"""Generator network, Adam optimizer and plateau schedule of the neural solver.

The net has one scalar input, so a weight's gradient is the rank-1 g xᵀ
of the layer's dL/dz and input.  `GeneratorNet.backward` keeps the factor
pair ``(g, x)`` and never forms it; `adam_step` takes it as BLAS rank-1
updates (``ger``) of the moments, and any 1-D gradient as ``(g, [1])``.
The step is Kingma & Ba's epsilon-hat form, exact in real arithmetic:
p -= s·m / (sqrt(v) + eps·c), c = sqrt(1 - b2ᵗ), s = lr·c / (1 - b1ᵗ).
The moments are stored lazily scaled, m' = m / m_scale and
v' = v / v_scale with float64 scales that take the decays b1ᵗ and b2ᵗ, so
no pass over the parameters decays them: ``ger`` adds the gradient with
alpha (1 - b1) / m_scale (and (1 - b2) / v_scale), and the step becomes
p -= s·(m_scale / sqrt(v_scale))·m' / (sqrt(v') + eps·c / sqrt(v_scale)).
An update makes 6 passes over the parameters: two ``ger`` over each
whole parameter, then sqrt, add, divide and ``axpy`` block by block of
ADAM_BLOCK elements (loop tiling, Wolf & Lam 1991).  The last layer's
arrays are 2.25 MB each in float32, more than a 2 MB L2, so unblocked
each of the four passes streams them from L3; a block of p, m, v and the
scratch stays in L2 between them.  The passes are elementwise, so the
blocking changes no bit.  Blocking the ``ger`` calls too was slower.

The generator's matvecs are numpy's ``@`` and Adam's updates go through
`_blas`, both on numpy's bundled OpenBLAS: with scipy's BLAS in the same
epoch, each library waited for the other's thread pool (8.2 ms an epoch
against 3.2 ms on 2 cores, medians of 600).  A parameter's Adam update
binds its moments and blocks once (`_plan`), so a call hands C only its
new vectors; checking and passing every array anew cost 12% of the epoch
rate.  The first layer's input is one scalar t, so its matvec is
elementwise, and OpenBLAS's matrix-vector kernel rounds each w·t + b once,
as a fused multiply-add.  A product of two float32 values is exact in
float64, so `GeneratorNet.forward` computes the layer in float64 and casts
it once to float32, which gives that kernel's bits: only a float64 sum
that lands on a float32 rounding midpoint, about 2^-29 of them, could
round apart.  In float32 the product rounds before the sum, and missed
the kernel's bits in nearly every call.

The generator and Adam run in float32, mixed precision without loss
scaling (Micikevicius et al., 2018), but the last layer's pre-activation
is cast up to float64 before its ELU: near -1 a float32 ELU is spaced
6e-8 apart, too coarse for the density, and ``out + 1`` would round to 0
below z = -17.3.  So the output, and all the losses see, is float64.  The
passes follow the parameters' dtype: cast to float64, as the gradient
checks do, the same code runs in float64.
"""

from __future__ import annotations

import math

import numpy as np

from . import _blas

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

# Float64 elements of a weight drawn at a time: 64 KiB, 3% of the canonical
# generator's float32 parameters
DRAW_BLOCK = 8192


class GeneratorNet:
    """Maps a scaled gate voltage to a raw (post-ELU) density profile.

    Dense layers 1 -> hidden... -> n_out, each followed by ELU (1-64-256-n_out
    by default).  Weights are uniform in +-1/sqrt(fan_in), drawn in
    float64 and rounded to float32, biases zero, fully determined by the
    seed.  ``params`` alternates each layer's weight (out, in) and bias
    (out,).  A weight is drawn into its float32 array by blocks of rows,
    at most DRAW_BLOCK elements at a time; the stream is the one-shot
    draw's, so the bits are too.
    """

    def __init__(self, n_out: int, seed: int, hidden=(64, 256)):
        self.n_out = n_out
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        sizes = (1, *self.hidden, n_out)
        self.params: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            w = np.empty((fan_out, fan_in), np.float32)
            rows = max(1, DRAW_BLOCK // fan_in)
            for lo in range(0, fan_out, rows):
                block = w[lo:lo + rows]
                block[...] = rng.uniform(-bound, bound, size=block.shape)
            self.params.append(Tensor(w))
            self.params.append(Tensor(np.zeros(fan_out, dtype=np.float32)))
        self._inputs = []   # each layer's input, from the last forward
        self._derivs = []   # each layer's ELU derivative, from the last forward

    def forward(self, v_scaled: float) -> np.ndarray:
        """Deterministic forward pass; output length n_out, post-ELU, float64.

        Keeps what ``backward`` needs, so a ``backward`` differentiates
        the last ``forward``.
        """
        t = np.array([float(v_scaled)], dtype=self.params[0].value.dtype)
        self._inputs, self._derivs = [], []
        last = len(self.params) // 2 - 1
        for i in range(last + 1):
            self._inputs.append(t)
            w, b = self.params[2 * i].value, self.params[2 * i + 1].value
            if i == 0:
                # one scalar input: w·t + b rounded once (module docstring)
                z = (w[:, 0].astype(np.float64) * float(t[0]) + b).astype(w.dtype)
            else:
                z = w @ t
                z += b
            t, deriv = _elu(z.astype(np.float64) if i == last else z)
            self._derivs.append(deriv)
        return t

    def backward(self, g_out: np.ndarray) -> None:
        """Set every parameter's ``grad`` from dL/d(output) of the last forward.

        A weight's is the pair ``(g, x)``, a bias's g; every array is new
        and in its parameter's dtype, rounded once after the last ELU.
        """
        g = g_out
        for i in reversed(range(len(self.params) // 2)):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            g = (g * self._derivs[i]).astype(w.value.dtype, copy=False)
            w.grad = (g, self._inputs[i])
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
# A moment's scale below this is folded back into it by one multiply pass:
# every 219 steps for m, every 23k for v
ADAM_MIN_SCALE = 1e-10
# Elements per block of the step's elementwise passes: 256 KiB in float32,
# so a block of p, m, v and the scratch stays in L2 between the passes
ADAM_BLOCK = 65536


class AdamState:
    """Adam moments, learning rate, scratch and each parameter's dtype.

    ``m`` and ``v`` hold the scaled moments; the true ones are
    ``m[i] * m_scale`` and ``v[i] * v_scale``.  A scale stays at or above
    ADAM_MIN_SCALE·b (b = b1 or b2), so a float32 v' holds squared
    gradients up to 3.4e38·1e-10, |g| up to 1.8e14.  A larger gradient
    makes v' inf, and the update of that parameter silently zero rather
    than a non-finite loss.  The step's sqrt, add, divide and ``axpy``
    run block by block, so the block stays in L2 between them; the
    scratch holds one block, min(largest parameter, ADAM_BLOCK) elements.
    """

    def __init__(self, params, lr: float):
        self.step_count = 0
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.m_scale = 1.0
        self.v_scale = 1.0
        self._dtypes = [p.value.dtype for p in params]
        self._plans = [None] * len(params)
        size = min(max((p.value.size for p in params), default=0), ADAM_BLOCK)
        self._scratch = np.empty(size, np.result_type(np.float32, *(p.value.dtype for p in params)))


def _factors(p, grad, dtype):
    """A gradient's factors (g, x).  Raises ValueError unless it is a factor
    pair or 1-D."""
    pair = isinstance(grad, tuple)
    g, x = (np.asarray(a, dtype) for a in (grad if pair else (grad, (1.0,))))
    if g.ndim != 1 or x.ndim != 1 or ((g.size, x.size) if pair else g.shape) != p.shape:
        raise ValueError(f"gradient {g.shape}{f' x {x.shape}' if pair else ''} for a parameter "
                         f"{p.shape}: a weight's is its factor pair (g, x), any other 1-D")
    return g, x


def _plan(p, m, v, dtype, scratch):
    """A parameter's update with its operands bound once: (p, m, v, the
    ``ger`` of m and of v, and per block of ADAM_BLOCK elements its m and
    v, the scratch and the ``axpy`` into p).  Bound to these very arrays;
    `adam_step` makes a new plan when any of them is replaced.  Raises
    ValueError unless all three are C-contiguous ``dtype`` arrays, which
    BLAS updates in place rather than in a silent copy."""
    if any(a.dtype != dtype or not a.flags.c_contiguous for a in (p, m, v)):
        raise ValueError(f"Adam updates C-contiguous {dtype} parameters and moments in place")
    blas = _blas.routines()
    blocks = []
    for lo in range(0, p.size, ADAM_BLOCK):
        pb = p.reshape(-1)[lo:lo + ADAM_BLOCK]
        s = scratch[:pb.size]
        blocks.append((m.reshape(-1)[lo:lo + ADAM_BLOCK], v.reshape(-1)[lo:lo + ADAM_BLOCK], s,
                       blas.axpy_into(s, pb)))
    # a bias is the one-column matrix of its (g, [1]) pair
    return (p, m, v, blas.ger_into(m.reshape(len(m), -1)), blas.ger_into(v.reshape(len(v), -1)), blocks)


def adam_step(state: AdamState, params, grads) -> None:
    """One Adam update with bias correction, in place on ``params``.  Every
    gradient, a factor pair or 1-D in any float dtype, and every operand
    is checked before any parameter is updated."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    updates = []
    for i, (p, m, v, grad, dtype) in enumerate(zip(params, state.m, state.v, grads, state._dtypes)):
        plan = state._plans[i]
        if plan is None or plan[0] is not p.value or plan[1] is not m or plan[2] is not v:
            plan = state._plans[i] = _plan(p.value, m, v, dtype, state._scratch)
        updates.append((plan, _factors(p.value, grad, dtype)))
    if state.m_scale < ADAM_MIN_SCALE:
        for m in state.m:
            np.multiply(m, state.m_scale, out=m)
        state.m_scale = 1.0
    if state.v_scale < ADAM_MIN_SCALE:
        for v in state.v:
            np.multiply(v, state.v_scale, out=v)
        state.v_scale = 1.0
    state.step_count += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.m_scale *= b1
    state.v_scale *= b2
    c = math.sqrt(1.0 - b2**state.step_count)
    root_v = math.sqrt(state.v_scale)
    step = state.lr * c / (1.0 - b1**state.step_count) * state.m_scale / root_v
    eps = ADAM_EPS * c / root_v
    m_alpha, v_alpha = (1.0 - b1) / state.m_scale, (1.0 - b2) / state.v_scale
    for (_, _, _, ger_m, ger_v, blocks), (g, x) in updates:
        ger_m(m_alpha, g, x)
        ger_v(v_alpha, g * g, x * x)
        for mb, vb, s, axpy in blocks:
            np.sqrt(vb, out=s)
            np.add(s, eps, out=s)
            np.divide(mb, s, out=s)
            axpy(-step)


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
