"""Self-supervised solver: generator + frozen surrogate + Fermi closure.

For a requested gate bias, a freshly initialized generator network is
trained to emit a normalized density profile whose surrogate-predicted
potential (a) matches the bias on the gate contact nodes and (b) maps
back to the same density through the Fermi-Dirac closure.  No bias
ramping and no labeled solution data are involved; the only trained-on-
data component is the frozen low-bias surrogate.

The density-consistency loss is taken in log10 space: the density spans
many orders of magnitude and a linear-scale MSE would see everything
below the normalization scale as zero.

The graph is fixed, so its gradient is written out by hand:
`PinnProblem.build_losses` carries dL/d(generator output) back through
the two mean squares, the Fermi closure and the surrogate's transposed
factors, and `autodiff.GeneratorNet.backward` takes it from there.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fermi
from .mesh import TensorMesh
from .oracle import Snapshot
from .surrogate import DENSITY_OFFSET, DENSITY_SCALE, LinearSurrogate, denormalize_density, predict_phi

__all__ = [
    "DivergedError",
    "ErrorReport",
    "PinnProblem",
    "PinnResult",
    "SolveOptions",
    "best_losses_within",
    "evaluate_against",
    "gate_voltage",
    "loss_boundary",
    "loss_fd",
    "postprocess",
    "solve_bias",
    "sweep_solve",
    "teacher_forced_losses",
]

logger = logging.getLogger(__name__)

V_GATE_SCALE = 0.75          # network input is v_gate / V_GATE_SCALE
POSTPROCESS_SHIFT = 1.0 + 1e-9
MAX_TRAINING_BIAS = 0.30     # [V] firewall: the surrogate may be fitted only below this
ACCEPT_LOSS = 1e-6           # total-loss bound marking a run as converged
# Adam learning rate and its reduce-on-plateau schedule
LR = 1e-3
LR_FACTOR = 0.5
LR_PATIENCE = 2000
LR_THRESHOLD = 1e-3
LR_MIN = 1e-5

_LN10 = math.log(10.0)


class DivergedError(RuntimeError):
    """Training loss became non-finite; carries the step index and the
    loss history accumulated up to it."""

    def __init__(self, message: str, step: int, history: np.ndarray | None = None):
        super().__init__(message)
        self.step = step
        self.history = history


@dataclass
class PinnProblem:
    """Frozen ingredients of a self-supervised solve.

    The surrogate must have been trained only below ``MAX_TRAINING_BIAS``
    (the out-of-range firewall); violating metadata raises at
    construction.
    """

    mesh: TensorMesh
    surrogate: LinearSurrogate
    params: fermi.SemiconductorParams
    w_boundary: float = 1.0
    w_fd: float = 1.0

    gate_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        meta = self.surrogate.meta
        if meta.bias_max > MAX_TRAINING_BIAS + 1e-9:
            raise ValueError(
                f"surrogate was trained up to V_G={meta.bias_max} V, above the "
                f"{MAX_TRAINING_BIAS} V firewall for out-of-range claims"
            )
        if meta.mesh_fingerprint and meta.mesh_fingerprint != self.mesh.fingerprint():
            raise ValueError("surrogate was fitted on a different mesh")
        self.gate_nodes = self.mesh.gate_nodes()
        if len(self.gate_nodes) == 0:
            raise ValueError("mesh has no gate contact nodes")

    def weighted_total(self, l1, l2):
        """The training objective from the boundary and consistency losses."""
        return l1 * self.w_boundary + l2 * self.w_fd

    def build_losses(self, net: "ad.GeneratorNet", v_gate: float):
        """The training graph and its gradient: (l1, l2, total, n_tilde, g_raw).

        ``g_raw`` is d(total)/d(raw generator output) for ``net.backward``.
        The chain rule's factors are multiplied in one fixed order, from
        the loss back to the generator output, one forward operation at a
        time; regrouping them changes the bits of every solve.
        """
        raw = net.forward(v_gate / V_GATE_SCALE)
        n_tilde = postprocess(raw)
        sur = self.surrogate
        phi = predict_phi(sur, n_tilde)
        mask = self.mesh.silicon_mask()
        r1 = _boundary_residual(phi, v_gate, self.gate_nodes)
        r2, n_fd_tilde = _fd_residual(n_tilde, phi, self.params, mask)
        l1, l2 = _mean_square(r1), _mean_square(r2)
        total = self.weighted_total(l1, l2)

        # d total / d r = w * 2 r / size for each mean square
        g1 = (self.w_boundary * (2.0 / r1.size)) * r1
        g2 = (self.w_fd * (2.0 / r2.size)) * r2
        # phi feeds the gate residual and the closure
        g_phi = np.zeros_like(phi)
        np.add.at(g_phi, self.gate_nodes, g1)
        g_phi += (g2 * (1.0 / (n_fd_tilde * _LN10)) * (1.0 / DENSITY_SCALE)
                  * fermi.electron_density_deriv(phi, self.params, mask))
        # n_tilde feeds the surrogate and the log; postprocess is a shift
        g_raw = sur.right.T @ (sur.left.T @ g_phi)
        g_raw += (-g2) * (1.0 / (n_tilde * _LN10))
        return l1, l2, total, n_tilde, g_raw


@dataclass
class SolveOptions:
    epochs: int = 200_000
    seed: int = 42
    arch: str = "dense"            # the only generator; kept because perfbench/stage.py passes it
    checkpoints: tuple = ()        # epoch counts at which to snapshot the prediction
    log_every: int = 0             # 0 disables progress logging

    def __post_init__(self):
        if self.arch != "dense":
            raise ValueError(f"unknown generator architecture {self.arch!r}; only 'dense' is available")


@dataclass
class ErrorReport:
    """Per-profile error metrics against an oracle snapshot."""

    v_gate: float
    max_phi_err_pct: float
    max_logn_err_pct: float
    phi_err_pct: np.ndarray
    logn_err_pct: np.ndarray
    epochs: int = 0
    final_loss_boundary: float = float("nan")
    final_loss_fd: float = float("nan")
    final_loss_total: float = float("nan")
    v_gate_extracted: float = float("nan")

    def __post_init__(self):
        if self.max_phi_err_pct < 0 or self.max_logn_err_pct < 0:
            raise ValueError("error percentages cannot be negative")


@dataclass
class PinnResult:
    prediction: Snapshot           # fields of the best-loss state in the budget
    history: np.ndarray            # (steps, 5): step, lr, loss1, loss2, total
    checkpoints: dict              # epoch budget -> Snapshot (best state within it)
    seed: int
    epochs: int
    wall_time_s: float
    best_loss: float = float("nan")


def postprocess(raw):
    """Raw ELU output -> normalized density: n_tilde = raw + 1 + 1e-9.

    The +1 lifts the ELU floor to zero; the extra 1e-9 keeps the log
    defined and equals the 1e10/1e19 normalization offset, so a floored
    output means exactly zero physical density.
    """
    return raw + POSTPROCESS_SHIFT


def gate_voltage(phi, gate_nodes: np.ndarray) -> float:
    """Extracted gate bias: mean potential over the gate contact nodes."""
    if len(gate_nodes) == 0:
        raise ValueError("gate node set is empty")
    return float(np.mean(np.asarray(phi)[gate_nodes]))


def _mean_square(r):
    return np.mean(r * r)


def _boundary_residual(phi, v_gate: float, gate_nodes: np.ndarray):
    """Gate-node deviation from the requested bias [V]."""
    if len(gate_nodes) == 0:
        raise ValueError("gate node set is empty")
    return phi[gate_nodes] - float(v_gate)


def _fd_residual(n_tilde, phi, params: fermi.SemiconductorParams, silicon_mask: np.ndarray):
    """Log10 mismatch of the closure's normalized density at ``phi`` against
    ``n_tilde``, and that normalized density.

    The closure is looked up through `fermi` at call time, like its
    derivative in `PinnProblem.build_losses`.
    """
    n_fd_tilde = (fermi.electron_density(phi, params, silicon_mask) + DENSITY_OFFSET) / DENSITY_SCALE
    return np.log10(n_fd_tilde) - np.log10(n_tilde), n_fd_tilde


def loss_boundary(phi, v_gate: float, gate_nodes: np.ndarray) -> float:
    """Mean squared gate-node deviation from the requested bias [V^2]."""
    return float(_mean_square(_boundary_residual(phi, v_gate, gate_nodes)))


def loss_fd(n_tilde, phi, params: fermi.SemiconductorParams, mesh: TensorMesh) -> float:
    """Fermi-Dirac consistency loss in log space.

    The potential is pushed through the density closure (region aware, so
    oxide nodes pin to the normalization floor), normalized exactly like
    the generator output, and compared in log10 over all nodes.
    """
    return float(_mean_square(_fd_residual(n_tilde, phi, params, mesh.silicon_mask())[0]))


def _prediction_snapshot(problem: PinnProblem, n_tilde: np.ndarray, v_gate: float,
                         converged: bool) -> Snapshot:
    return Snapshot(v_gate=float(v_gate), phi=predict_phi(problem.surrogate, n_tilde),
                    n=denormalize_density(n_tilde), converged=converged, residual_norm=float("nan"))


def _check_bias(v_gate: float) -> None:
    if not (-0.01 <= v_gate <= 1.0):
        raise ValueError(f"v_gate {v_gate} outside the sane [-0.01, 1] V range")


def solve_bias(problem: PinnProblem, v_gate: float, opts: SolveOptions | None = None) -> PinnResult:
    """Train a fresh generator to solve one gate bias.

    Every step: forward -> postprocess -> surrogate potential -> boundary
    loss; potential -> Fermi closure -> consistency loss; Adam update with
    the plateau schedule.  Returns the predicted snapshot (potential from
    the surrogate, density from the generator) taken at the best-loss
    state within the budget, the full loss history and any requested
    intermediate checkpoints (each the best state within its own budget,
    so a checkpoint equals a run stopped there).  Raises DivergedError if
    the loss goes non-finite.
    """
    opts = opts or SolveOptions()
    _check_bias(v_gate)
    epochs, seed = opts.epochs, opts.seed
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    net = ad.GeneratorNet(n_out=problem.mesh.n_nodes, seed=seed)
    adam = ad.AdamState(net.params, lr=LR)
    sched = ad.PlateauScheduler(lr=LR, factor=LR_FACTOR, patience=LR_PATIENCE,
                                threshold=LR_THRESHOLD, min_lr=LR_MIN)

    want_checkpoint = set(int(c) for c in opts.checkpoints)

    # The run keeps the best-loss state: Adam occasionally takes a
    # transient excursion, and the trained state for a given epoch budget
    # should not depend on whether the budget ends mid-excursion.  The
    # prediction depends on the parameters only through the generator's
    # output, so that output is all that is kept.
    best_loss = np.inf
    best_n_tilde = np.empty(problem.mesh.n_nodes)

    def best_prediction(converged):
        return _prediction_snapshot(problem, best_n_tilde, v_gate, converged)

    history = np.empty((epochs, 5))
    checkpoints = {}
    t0 = time.perf_counter()
    for step in range(epochs):
        l1, l2, total, n_tilde, g_raw = problem.build_losses(net, v_gate)
        tv = float(total)
        if not np.isfinite(tv):
            raise DivergedError(f"loss diverged at step {step} (V_G={v_gate})",
                                step=step, history=history[:step].copy())
        if tv < best_loss:
            best_loss = tv
            np.copyto(best_n_tilde, n_tilde)
        net.backward(g_raw)
        lr = ad.scheduler_step(sched, tv)
        adam.lr = lr
        ad.adam_step(adam, net.params, [p.grad for p in net.params])
        history[step] = (step, lr, float(l1), float(l2), tv)
        done = step + 1
        if done in want_checkpoint:
            checkpoints[done] = best_prediction(converged=bool(best_loss <= ACCEPT_LOSS))
        if opts.log_every and done % opts.log_every == 0:
            rate = done / (time.perf_counter() - t0)
            logger.info("V_G=%.4f step %d/%d lr=%.2e loss=%.3e best=%.3e %.1f epoch/s ETA %.0f s",
                        v_gate, done, epochs, lr, tv, best_loss, rate, (epochs - done) / rate)

    converged = bool(best_loss <= ACCEPT_LOSS)
    prediction = checkpoints[epochs] if epochs in checkpoints else best_prediction(converged)
    return PinnResult(
        prediction=prediction,
        history=history,
        checkpoints=checkpoints,
        seed=seed,
        epochs=epochs,
        wall_time_s=time.perf_counter() - t0,
        best_loss=float(best_loss),
    )


def best_losses_within(history: np.ndarray, budget: int):
    """(loss1, loss2, total) at the best-total step within a budget prefix."""
    budget = min(int(budget), len(history))
    idx = int(np.argmin(history[:budget, 4]))
    return tuple(history[idx, 2:5])


def evaluate_against(prediction: Snapshot, oracle: Snapshot,
                     gate_nodes: np.ndarray | None = None,
                     epochs: int = 0, losses=(float("nan"),) * 3) -> ErrorReport:
    """Max-percentage error report of a prediction against an oracle snapshot.

    Potential errors are normalized by the oracle's max |phi|; density
    errors are compared as log10 of the normalized density (+1e10, /1e19,
    same convention on both sides) and normalized by the oracle's max
    |log10 n_tilde|.
    """
    if prediction.phi.shape != oracle.phi.shape:
        raise ValueError("prediction and oracle live on different meshes")
    phi_scale = float(np.max(np.abs(oracle.phi)))
    phi_err = 100.0 * np.abs(prediction.phi - oracle.phi) / phi_scale

    log_pred = np.log10((prediction.n + DENSITY_OFFSET) / DENSITY_SCALE)
    log_orac = np.log10((oracle.n + DENSITY_OFFSET) / DENSITY_SCALE)
    log_scale = float(np.max(np.abs(log_orac)))
    logn_err = 100.0 * np.abs(log_pred - log_orac) / log_scale

    return ErrorReport(
        v_gate=prediction.v_gate,
        max_phi_err_pct=float(phi_err.max()),
        max_logn_err_pct=float(logn_err.max()),
        phi_err_pct=phi_err,
        logn_err_pct=logn_err,
        epochs=epochs,
        final_loss_boundary=float(losses[0]),
        final_loss_fd=float(losses[1]),
        final_loss_total=float(losses[2]),
        v_gate_extracted=(gate_voltage(prediction.phi, gate_nodes)
                          if gate_nodes is not None else float("nan")),
    )


def teacher_forced_losses(problem: PinnProblem, snapshot: Snapshot):
    """Losses with the generator bypassed and the oracle density fed in.

    Documents the fixed-point property: at ground truth the consistency
    loss vanishes up to surrogate error and the boundary loss equals the
    squared surrogate gate error.
    """
    n_tilde = (snapshot.n + DENSITY_OFFSET) / DENSITY_SCALE
    phi = predict_phi(problem.surrogate, n_tilde)
    l1 = loss_boundary(phi, snapshot.v_gate, problem.gate_nodes)
    l2 = loss_fd(n_tilde, phi, problem.params, problem.mesh)
    return l1, l2, float(problem.weighted_total(l1, l2))


def sweep_solve(problem: PinnProblem, biases, opts: SolveOptions | None = None) -> list:
    """One ``solve_bias`` per bias, in order, each with a fresh generator.

    Returns, per bias, its ``PinnResult`` or, if the loss diverged, the
    ``DivergedError`` itself, which keeps the step and the partial loss
    history; the rest of the sweep continues past a divergence.  Every
    bias is checked against the solvable range before any is trained.  Each result is bitwise equal to ``solve_bias`` at the same
    bias and options, so it does not depend on the other biases.  The
    bits do depend on the OpenBLAS thread count (``OPENBLAS_NUM_THREADS``),
    which changes the summation order of the matrix products.  This only
    solves; it never scores against an oracle (see ``evaluate_against``).
    """
    opts = opts or SolveOptions()
    biases = [float(v) for v in biases]
    for v in biases:
        _check_bias(v)
    results: list = []
    for v in biases:
        try:
            results.append(solve_bias(problem, v, opts))
        except DivergedError as exc:
            results.append(exc)
    return results
