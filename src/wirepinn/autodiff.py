"""Minimal reverse-mode automatic differentiation for the neural solver.

A tape of `Tensor` nodes built by the op functions below, with exactly the
primitives the solver pipeline needs: dense layers, ELU, a frozen affine
map (the fitted surrogate), the elementwise Fermi-Dirac closure, log10,
scale/shift, gather, and mean-square reductions.  Ops accept plain numpy
arrays too, in which case they just compute values - the loss functions
can therefore be evaluated outside any tape.

Also hosts the generator network (scalar gate voltage in, density profile
out), the Adam optimizer and the reduce-on-plateau learning-rate schedule.
"""

from __future__ import annotations

import math

import numpy as np

from . import fermi

__all__ = [
    "AdamState",
    "GeneratorNet",
    "PlateauScheduler",
    "Tensor",
    "adam_step",
    "add_weighted",
    "backward",
    "dense",
    "elu",
    "fermi_density",
    "fixed_affine",
    "gather",
    "log10",
    "mse",
    "scale_shift",
    "scheduler_step",
    "shift_divide",
]

_LN10 = math.log(10.0)


class Tensor:
    """Value node on the tape; ``grad`` is filled by ``backward``."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.value.shape}, leaf={self._vjp is None})"


def _value(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def backward(loss: Tensor) -> None:
    """Reverse traversal from a scalar loss, accumulating ``grad``.

    Raises ValueError if the root is not scalar (the contract of every
    training objective here).
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# primitives

def dense(x, w: Tensor, b: Tensor, grad_w: np.ndarray | None = None):
    """y = W @ x + b with parameter tensors W (out, in) and b (out,).

    The weight gradient is written into ``grad_w`` (shape of W) when one is
    given, else into a fresh array.  ``grad_w`` is reused, not copied: after
    ``backward``, ``w.grad`` is that buffer, and the next ``backward``
    through a layer built with the same buffer overwrites it.
    """
    xv = _value(x)
    out = w.value @ xv + b.value

    def outer(g):
        # bitwise equal to np.outer(g, xv)
        return np.multiply(g[:, None], xv[None, :], out=grad_w)

    if not isinstance(x, Tensor):
        return Tensor(out, (w, b), lambda g: (outer(g), g))
    return Tensor(out, (x, w, b), lambda g: (w.value.T @ g, outer(g), g))


def elu(x):
    """Exponential linear unit, alpha = 1; output is bounded below by -1."""
    xv = _value(x)
    pos = xv > 0.0
    out = np.where(pos, xv, np.expm1(np.minimum(xv, 0.0)))
    if not isinstance(x, Tensor):
        return out
    deriv = np.where(pos, 1.0, out + 1.0)
    return Tensor(out, (x,), lambda g: (g * deriv,))


def fixed_affine(x, a_matrix: np.ndarray, c):
    """y = A @ x + c with a frozen matrix; the backward rule is A^T @ g."""
    xv = _value(x)
    out = a_matrix @ xv + c
    if not isinstance(x, Tensor):
        return out
    return Tensor(out, (x,), lambda g: (a_matrix.T @ g,))


def scale_shift(x, scale: float, shift: float):
    """y = scale * x + shift (elementwise, scalar constants)."""
    out = _value(x) * scale + shift
    if not isinstance(x, Tensor):
        return out
    return Tensor(out, (x,), lambda g: (g * scale,))


def shift_divide(x, offset: float, denom: float):
    """y = (x + offset) / denom, rounding exactly like the eager form.

    Kept distinct from ``scale_shift`` so the density-consistency loss is
    bitwise zero when both sides come from the shared closure.
    """
    out = (_value(x) + offset) / denom
    if not isinstance(x, Tensor):
        return out
    inv = 1.0 / denom
    return Tensor(out, (x,), lambda g: (g * inv,))


def log10(x):
    xv = _value(x)
    out = np.log10(xv)
    if not isinstance(x, Tensor):
        return out
    inv = 1.0 / (xv * _LN10)
    return Tensor(out, (x,), lambda g: (g * inv,))


def gather(x, indices: np.ndarray):
    """y = x[indices]."""
    xv = _value(x)
    out = xv[indices]
    if not isinstance(x, Tensor):
        return out

    def vjp(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, indices, g)
        return (gx,)

    return Tensor(out, (x,), vjp)


def fermi_density(phi, params: fermi.SemiconductorParams, silicon_mask: np.ndarray):
    """Elementwise electron-density closure n(phi), differentiable.

    Uses the module-level `fermi.electron_density` / `_deriv` pair so the
    backward rule always matches the closure in use.
    """
    phiv = _value(phi)
    out = fermi.electron_density(phiv, params, silicon_mask)
    if not isinstance(phi, Tensor):
        return out

    def vjp(g):
        return (g * fermi.electron_density_deriv(phiv, params, silicon_mask),)

    return Tensor(out, (phi,), vjp)


def mse(a, b):
    """Mean of (a - b)^2; ``b`` may be a tensor, an array, or a scalar."""
    av = _value(a)
    bv = _value(b)
    diff = av - bv
    out = np.mean(diff * diff)
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    if not (a_t or b_t):
        return float(out)
    scale = 2.0 / diff.size

    def vjp(g):
        gd = (g * scale) * diff
        if a_t and b_t:
            return gd, -gd
        return (gd,) if a_t else (-gd,)

    parents = tuple(t for t, flag in ((a, a_t), (b, b_t)) if flag)
    return Tensor(out, parents, vjp)


def add_weighted(a, wa: float, b, wb: float):
    """wa * a + wb * b for scalar loss terms."""
    out = _value(a) * wa + _value(b) * wb
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    if not (a_t or b_t):
        return float(out)

    def vjp(g):
        gs = []
        if a_t:
            gs.append(g * wa)
        if b_t:
            gs.append(g * wb)
        return tuple(gs)

    parents = tuple(t for t, flag in ((a, a_t), (b, b_t)) if flag)
    return Tensor(out, parents, vjp)


# ---------------------------------------------------------------------------
# generator network

class GeneratorNet:
    """Maps a scaled gate voltage to a raw (post-ELU) density profile.

    Dense layers 1 -> hidden... -> n_out, each followed by ELU (1-64-256-2193
    by default).  Weights are uniform in +-1/sqrt(fan_in), biases zero,
    fully determined by the seed (default 42).
    """

    def __init__(self, n_out: int = 2193, hidden=(64, 256), seed: int = 42):
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

    def forward(self, v_scaled: float) -> Tensor:
        """Deterministic forward pass; output length n_out, post-ELU."""
        t = np.array([float(v_scaled)])
        for i, grad_w in enumerate(self._grad_w):
            t = elu(dense(t, self.params[2 * i], self.params[2 * i + 1], grad_w))
        return t

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def arch_string(self) -> str:
        return "dense:" + "-".join(map(str, (1, *self.hidden, self.n_out)))


# ---------------------------------------------------------------------------
# optimizer and schedule

# Elements per Adam block: the six block slices (p, g, m, v and two
# scratch) take 256 KB each, so a block's 1.5 MB stays in a core's L2.
_ADAM_BLOCK = 32768


class AdamState:
    """Adam moments, the current learning rate and the update's scratch."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.step_count = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
    b1, b2 = state.beta1, state.beta2
    step_scale = state.lr / (1.0 - b1**t)
    inv_c2 = 1.0 / (1.0 - b2**t)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        gv = _value(g)
        if gv.shape != p.value.shape:
            raise ValueError(f"gradient shape {gv.shape} does not match parameter {p.value.shape}")
        _adam_kernel(p.value.reshape(-1), np.ascontiguousarray(gv).reshape(-1),
                     m.reshape(-1), v.reshape(-1), b1, b2, state.eps, step_scale, inv_c2,
                     state._scratch)


class PlateauScheduler:
    """Halve the learning rate when the loss stops improving.

    No improvement better than ``threshold`` (relative) for ``patience``
    consecutive steps triggers a decay by ``factor``, clamped at
    ``min_lr``; the rate never increases.
    """

    def __init__(self, lr: float = 1e-3, factor: float = 0.5, patience: int = 2000,
                 threshold: float = 1e-3, min_lr: float = 1e-5):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best = math.inf
        self.wait = 0


def scheduler_step(sched: PlateauScheduler, loss: float) -> float:
    """Observe one loss value; returns the learning rate to use."""
    if loss < sched.best * (1.0 - sched.threshold):
        sched.best = loss
        sched.wait = 0
    else:
        sched.wait += 1
        if sched.wait >= sched.patience:
            sched.lr = max(sched.lr * sched.factor, sched.min_lr)
            sched.wait = 0
    return sched.lr
