"""Generator network, Adam optimizer and plateau schedule of the neural solver.

The solver differentiates one fixed graph, so its gradient is written
out by hand.  `pinn.PinnProblem.build_losses` carries it from the losses
back to the normalized density n_tilde; `pinn.solve_bias` joins it to the
generator.  `GeneratorNet.forward` keeps each layer's input and ELU
derivative, and `GeneratorNet.backward` turns dL/d(output) into every
parameter gradient; dL/d(output) is dL/d(n_tilde), since n_tilde is the
output shifted by a constant.  A parameter is a `Tensor`: its ``value``
and the ``grad`` last set for it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "AdamState",
    "GeneratorNet",
    "PlateauScheduler",
    "Tensor",
    "adam_step",
    "scheduler_step",
]


class Tensor:
    """A trained parameter: its ``value`` and the gradient last set for it."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.grad = None


def _elu(z):
    """Exponential linear unit (alpha = 1) and its derivative at ``z``.

    The output is bounded below by -1.
    """
    pos = z > 0.0
    out = np.where(pos, z, np.expm1(np.minimum(z, 0.0)))
    return out, np.where(pos, 1.0, out + 1.0)


# ---------------------------------------------------------------------------
# generator network

class GeneratorNet:
    """Maps a scaled gate voltage to a raw (post-ELU) density profile.

    Dense layers 1 -> hidden... -> n_out, each followed by ELU (1-64-256-n_out
    by default).  Weights are uniform in +-1/sqrt(fan_in), biases zero,
    fully determined by the seed.  ``params`` alternates each layer's
    weight (out, in) and bias (out,).
    """

    def __init__(self, n_out: int, seed: int, hidden=(64, 256)):
        self.n_out = n_out
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        sizes = (1, *self.hidden, n_out)
        self.params: list[Tensor] = []
        self._grad_w = []  # one weight-gradient buffer per layer
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.params.append(Tensor(rng.uniform(-bound, bound, size=(fan_out, fan_in))))
            self.params.append(Tensor(np.zeros(fan_out)))
            self._grad_w.append(np.empty((fan_out, fan_in)))
        self._inputs = []   # each layer's input, from the last forward
        self._derivs = []   # each layer's ELU derivative, from the last forward

    def forward(self, v_scaled: float) -> np.ndarray:
        """Deterministic forward pass; output length n_out, post-ELU.

        Keeps what ``backward`` needs, so a ``backward`` differentiates
        the last ``forward``.
        """
        t = np.array([float(v_scaled)])
        self._inputs.clear()
        self._derivs.clear()
        for i in range(len(self._grad_w)):
            self._inputs.append(t)
            t, deriv = _elu(self.params[2 * i].value @ t + self.params[2 * i + 1].value)
            self._derivs.append(deriv)
        return t

    def backward(self, g_out: np.ndarray) -> None:
        """Set every parameter's ``grad`` from dL/d(output) of the last forward.

        A weight's gradient is written into the buffer this net owns for
        it, so the next ``backward`` overwrites it; a bias's gradient is a
        new array.
        """
        g = g_out
        for i in reversed(range(len(self._grad_w))):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            g = g * self._derivs[i]
            x = self._inputs[i]
            # bitwise equal to np.outer(g, x)
            w.grad = np.multiply(g[:, None], x[None, :], out=self._grad_w[i])
            b.grad = g
            if i:
                g = w.value.T @ g


# ---------------------------------------------------------------------------
# optimizer and schedule

# Kingma & Ba's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# PlateauScheduler's decay factor, least relative improvement and floor
PLATEAU_FACTOR = 0.5
PLATEAU_THRESHOLD = 1e-3
MIN_LR = 1e-5
# Elements per Adam block: the six block slices (p, g, m, v and two
# scratch) take 256 KB each, so a block's 1.5 MB stays in a core's L2.
_ADAM_BLOCK = 32768


class AdamState:
    """Adam moments, the current learning rate and the update's scratch."""

    def __init__(self, params, lr: float):
        self.step_count = 0
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        size = min(_ADAM_BLOCK, max((p.value.size for p in params), default=0))
        self._scratch = (np.empty(size), np.empty(size))


def _adam_kernel(p, g, m, v, b1, b2, eps, step_scale, inv_c2, scratch):
    """Kingma & Ba's update on flat arrays, block by block, without temporaries.

    Rounds exactly like m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= step_scale*m / (sqrt(v*inv_c2) + eps).
    """
    s1, s2 = scratch
    for lo in range(0, p.size, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, p.size)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = s1[:hi - lo], s2[:hi - lo]
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, 1.0 - b2, out=a)
        np.multiply(a, gb, out=a)
        np.add(vb, a, out=vb)
        np.multiply(vb, inv_c2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.multiply(mb, step_scale, out=b)
        np.divide(b, a, out=b)
        np.subtract(pb, b, out=pb)


def adam_step(state: AdamState, params, grads) -> None:
    """One Adam update with bias correction, in place on ``params``."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step_scale = state.lr / (1.0 - b1**t)
    inv_c2 = 1.0 / (1.0 - b2**t)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        gv = np.asarray(g, dtype=float)
        if gv.shape != p.value.shape:
            raise ValueError(f"gradient shape {gv.shape} does not match parameter {p.value.shape}")
        _adam_kernel(p.value.reshape(-1), np.ascontiguousarray(gv).reshape(-1),
                     m.reshape(-1), v.reshape(-1), b1, b2, ADAM_EPS, step_scale, inv_c2,
                     state._scratch)


class PlateauScheduler:
    """Halve the learning rate when the loss stops improving.

    No improvement better than PLATEAU_THRESHOLD (relative) for
    ``patience`` consecutive steps triggers a decay by PLATEAU_FACTOR,
    clamped at MIN_LR; the rate never increases.
    """

    def __init__(self, lr: float, patience: int):
        self.lr = lr
        self.patience = patience
        self.best = math.inf
        self.wait = 0


def scheduler_step(sched: PlateauScheduler, loss: float) -> float:
    """Observe one loss value; returns the learning rate to use."""
    if loss < sched.best * (1.0 - PLATEAU_THRESHOLD):
        sched.best = loss
        sched.wait = 0
    else:
        sched.wait += 1
        if sched.wait >= sched.patience:
            sched.lr = max(sched.lr * PLATEAU_FACTOR, MIN_LR)
            sched.wait = 0
    return sched.lr
