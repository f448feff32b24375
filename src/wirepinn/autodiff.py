"""Generator network, Adam optimizer and plateau schedule of the neural solver.

The solver differentiates one fixed graph, so its gradient is written
out by hand.  `pinn.PinnProblem.build_losses` carries it from the losses
back to the normalized density n_tilde; `pinn.solve_bias` joins it to the
generator.  `GeneratorNet.forward` keeps each layer's input and ELU
derivative, and `GeneratorNet.backward` turns dL/d(output) into every
parameter gradient; dL/d(output) is dL/d(n_tilde), since n_tilde is the
output shifted by a constant.  A parameter is a `Tensor`: its ``value``
and the ``grad`` last set for it.

The generator and Adam run in float32, a mixed-precision split
(Micikevicius et al., 2018) without loss scaling that halves the bytes
Adam streams each epoch.  float32 are the weights and biases, their
gradients, Adam's moments and scratch, the matrix-vector products, the
hidden layers' ELUs and the backward pass's outer products and ``W.T @
g``.  The last layer's pre-activation is cast up to float64 before its
ELU: near -1 a float32 ELU output is spaced 6e-8 apart, too coarse for
the density it becomes, and ``out + 1`` would round to 0 below z = -17.3
and stop those units' gradients.  So the output, and everything the
losses, the best state and the predictions see, stays float64.  The
passes follow the parameters' dtype: a net whose values are cast to
float64 runs the same code in float64, as the gradient checks do.
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
        value = np.asarray(value)
        # a float array keeps its precision; anything else becomes float64
        self.value = value if value.dtype.kind == "f" else value.astype(float)
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
    by default).  Weights are uniform in +-1/sqrt(fan_in), drawn in
    float64 and rounded to float32, biases zero, fully determined by the
    seed.  ``params`` alternates each layer's weight (out, in) and bias
    (out,).
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
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32)
            self.params.append(Tensor(w))
            self.params.append(Tensor(np.zeros(fan_out, dtype=np.float32)))
            self._grad_w.append(np.empty_like(w))
        self._inputs = []   # each layer's input, from the last forward
        self._derivs = []   # each layer's ELU derivative, from the last forward

    def forward(self, v_scaled: float) -> np.ndarray:
        """Deterministic forward pass; output length n_out, post-ELU.

        Keeps what ``backward`` needs, so a ``backward`` differentiates
        the last ``forward``.  Runs in the parameters' dtype up to the
        last ELU, which is float64 (see the module docstring), as is the
        output.
        """
        t = np.array([float(v_scaled)], dtype=self.params[0].value.dtype)
        self._inputs.clear()
        self._derivs.clear()
        last = len(self._grad_w) - 1
        for i in range(last + 1):
            self._inputs.append(t)
            z = self.params[2 * i].value @ t + self.params[2 * i + 1].value
            t, deriv = _elu(z.astype(np.float64) if i == last else z)
            self._derivs.append(deriv)
        return t

    def backward(self, g_out: np.ndarray) -> None:
        """Set every parameter's ``grad`` from dL/d(output) of the last forward.

        A weight's gradient is written into the buffer this net owns for
        it, so the next ``backward`` overwrites it; a bias's gradient is a
        new array.  Every gradient has its parameter's dtype: the float64
        dL/d(output) is rounded once, after the last ELU's derivative.
        """
        g = g_out
        for i in reversed(range(len(self._grad_w))):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            g = (g * self._derivs[i]).astype(w.value.dtype, copy=False)
            x = self._inputs[i]
            if self._grad_w[i].dtype != w.value.dtype:  # the values were cast
                self._grad_w[i] = np.empty_like(w.value)
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
# scratch) take 128 KB each in float32, so a block's 768 KB stays in a
# core's L2.  Blocks of 16K to 128K elements time the same.
_ADAM_BLOCK = 32768


class AdamState:
    """Adam moments, the current learning rate and the update's scratch."""

    def __init__(self, params, lr: float):
        self.step_count = 0
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        size = min(_ADAM_BLOCK, max((p.value.size for p in params), default=0))
        dtype = np.result_type(np.float32, *{p.value.dtype for p in params})
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype))


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
    """One Adam update with bias correction, in place on ``params``.

    Runs in each parameter's dtype; a gradient of another dtype is
    converted to it.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step_scale = state.lr / (1.0 - b1**t)
    inv_c2 = 1.0 / (1.0 - b2**t)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        gv = np.asarray(g, dtype=p.value.dtype)
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
