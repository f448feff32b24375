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
`PinnProblem.build_losses` carries dL/d(n_tilde) back from the two
losses through the mean squares, the Fermi closure and the surrogate's
transposed factors.  `solve_bias` joins it to the generator: the
postprocess shift passes the gradient through unchanged, and
`autodiff.GeneratorNet.backward` takes it from there.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from . import autodiff as ad
from . import fermi
from .mesh import TensorMesh
from .oracle import Snapshot
from .surrogate import (DENSITY_SCALE, LinearSurrogate, denormalize_density, normalize_density,
                        predict_phi)

__all__ = [
    "DivergedError",
    "ErrorReport",
    "PinnProblem",
    "PinnResult",
    "SolveOptions",
    "best_losses_within",
    "evaluate_against",
    "gate_voltage",
    "postprocess",
    "solve_bias",
    "sweep_solve",
]

logger = logging.getLogger(__name__)

V_GATE_SCALE = 0.75          # network input is v_gate / V_GATE_SCALE
POSTPROCESS_SHIFT = 1.0 + 1e-9
MAX_TRAINING_BIAS = 0.30     # [V] firewall: the surrogate may be fitted only below this
ACCEPT_LOSS = 1e-6           # total-loss bound marking a run as converged
# Adam's starting learning rate, and the plateau length that halves it
LR = 1e-3
LR_PATIENCE = 2000

_LN10 = math.log(10.0)


class DivergedError(RuntimeError):
    """Training loss became non-finite; carries the step index and the
    loss history accumulated up to it."""

    def __init__(self, message: str, step: int, history: np.ndarray | None = None):
        super().__init__(message)
        self.step = step
        self.history = history

    def __reduce__(self):
        # an exception pickles as its class and ``args`` (the message
        # alone), which could not rebuild the step and history
        return type(self), (self.args[0], self.step, self.history)


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
    silicon_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        meta = self.surrogate.meta
        if meta.bias_max > MAX_TRAINING_BIAS + 1e-9:
            raise ValueError(
                f"surrogate was trained up to V_G={meta.bias_max} V, above the "
                f"{MAX_TRAINING_BIAS} V firewall for out-of-range claims"
            )
        if meta.mesh_fingerprint != self.mesh.fingerprint():
            raise ValueError("surrogate was fitted on a different mesh")
        self.gate_nodes = self.mesh.gate_nodes()
        if len(self.gate_nodes) == 0:
            raise ValueError("mesh has no gate contact nodes")
        self.silicon_mask = self.mesh.silicon_mask()

    def build_losses(self, n_tilde: np.ndarray, v_gate: float):
        """The two losses of a normalized density and their gradient: (l1, l2, total, g).

        ``l1`` is the mean squared gate-node deviation of the surrogate
        potential from ``v_gate`` [V^2].  ``l2`` pushes that potential
        through the density closure (region aware, so oxide nodes pin to
        the normalization floor), normalizes it like ``n_tilde`` and
        compares the two in log10 over all nodes.  ``g`` is
        d(total)/d(n_tilde).  The chain rule's factors are multiplied in
        one fixed order, from the loss back to ``n_tilde``; regrouping them
        changes the bits of every solve.
        """
        sur = self.surrogate
        phi = predict_phi(sur, n_tilde)
        r1 = phi[self.gate_nodes] - float(v_gate)
        # one closure call gives n and dn/dphi; it is looked up through `fermi`
        # at call time, so fault injection and tracing reach it
        n_fd, dn_fd = fermi.electron_density(phi, self.params, self.silicon_mask)
        n_fd_tilde = normalize_density(n_fd)
        r2 = np.log10(n_fd_tilde) - np.log10(n_tilde)
        l1, l2 = np.mean(r1 * r1), np.mean(r2 * r2)
        total = l1 * self.w_boundary + l2 * self.w_fd

        # d total / d r = w * 2 r / size for each mean square
        g1 = (self.w_boundary * (2.0 / r1.size)) * r1
        g2 = (self.w_fd * (2.0 / r2.size)) * r2
        # phi feeds the gate residual and the closure
        g_phi = np.zeros_like(phi)
        np.add.at(g_phi, self.gate_nodes, g1)
        g_phi += g2 * (1.0 / (n_fd_tilde * _LN10)) * (1.0 / DENSITY_SCALE) * dn_fd
        # n_tilde feeds the surrogate and the log
        g = sur.right.T @ (sur.left.T @ g_phi)
        g += (-g2) * (1.0 / (n_tilde * _LN10))
        return l1, l2, total, g


@dataclass
class SolveOptions:
    epochs: int = 200_000
    seed: int = 42
    arch: str = "dense"            # the only generator; kept because perfbench/stage.py passes it
    checkpoints: tuple = ()        # epoch counts at which to snapshot the prediction; the last always is
    log_every: int = 0             # 0 disables progress logging

    def __post_init__(self):
        if self.arch != "dense":
            raise ValueError(f"unknown generator architecture {self.arch!r}; only 'dense' is available")
        if self.epochs < 1:
            raise ValueError(f"epochs {self.epochs} is below 1")
        outside = [c for c in self.checkpoints if not 1 <= c <= self.epochs]
        if outside:
            raise ValueError(f"checkpoints {outside} outside 1..epochs ({self.epochs}); "
                             "they would never be recorded")
        if self.log_every < 0:
            raise ValueError(f"log_every {self.log_every} is negative; 0 disables logging")


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
    checkpoints: dict              # epoch budget -> Snapshot (best state within it), final included
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


def _check_bias(v_gate: float) -> None:
    if not (-0.01 <= v_gate <= 1.0):
        raise ValueError(f"v_gate {v_gate} outside the sane [-0.01, 1] V range")


@_blas.one_thread()
def solve_bias(problem: PinnProblem, v_gate: float, opts: SolveOptions) -> PinnResult:
    """Train a fresh generator to solve one gate bias.

    Every step: forward -> postprocess -> surrogate potential -> boundary
    loss; potential -> Fermi closure -> consistency loss; Adam update with
    the plateau schedule.  Returns the predicted snapshot (potential from
    the surrogate, density from the generator) taken at the best-loss
    state within the budget, the full loss history and the checkpoints:
    the final budget and any requested earlier one, each the best state
    within its own budget, so a checkpoint equals a run stopped there.
    Raises DivergedError if the loss goes non-finite.  BLAS runs on one
    thread (`_blas`), so the bits do not depend on the host's core count
    or ``OPENBLAS_NUM_THREADS``.
    """
    _check_bias(v_gate)
    epochs, seed = opts.epochs, opts.seed

    net = ad.GeneratorNet(n_out=problem.mesh.n_nodes, seed=seed)
    adam = ad.AdamState(net.params, lr=LR)
    sched = ad.PlateauScheduler(lr=LR, patience=LR_PATIENCE)

    want_checkpoint = {int(c) for c in opts.checkpoints} | {epochs}

    # The run keeps the best-loss state: Adam occasionally takes a
    # transient excursion, and the trained state for a given epoch budget
    # should not depend on whether the budget ends mid-excursion.  The
    # prediction depends on the parameters only through the generator's
    # output, so that output is all that is kept.  The generator and Adam
    # run in float32; its output, the losses, this state, the history and
    # the checkpoints are float64 (see `autodiff`).
    best_loss = np.inf
    best_n_tilde = np.empty(problem.mesh.n_nodes)

    history = np.empty((epochs, 5))
    checkpoints = {}
    t0 = time.perf_counter()
    for step in range(epochs):
        n_tilde = postprocess(net.forward(v_gate / V_GATE_SCALE))
        l1, l2, total, g = problem.build_losses(n_tilde, v_gate)
        tv = float(total)
        if not np.isfinite(tv):
            raise DivergedError(f"loss diverged at step {step} (V_G={v_gate})",
                                step=step, history=history[:step].copy())
        if tv < best_loss:
            best_loss = tv
            np.copyto(best_n_tilde, n_tilde)
        net.backward(g)
        lr = ad.scheduler_step(sched, tv)
        adam.lr = lr
        ad.adam_step(adam, net.params, [p.grad for p in net.params])
        history[step] = (step, lr, float(l1), float(l2), tv)
        done = step + 1
        if done in want_checkpoint:
            checkpoints[done] = Snapshot(
                v_gate=float(v_gate), phi=predict_phi(problem.surrogate, best_n_tilde),
                n=denormalize_density(best_n_tilde), converged=bool(best_loss <= ACCEPT_LOSS),
                residual_norm=float("nan"))
        if opts.log_every and done % opts.log_every == 0:
            rate = done / (time.perf_counter() - t0)
            logger.info("V_G=%.4f step %d/%d lr=%.2e loss=%.3e best=%.3e %.1f epoch/s ETA %.0f s",
                        v_gate, done, epochs, lr, tv, best_loss, rate, (epochs - done) / rate)

    return PinnResult(
        prediction=checkpoints[epochs],
        history=history,
        checkpoints=checkpoints,
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

    log_pred = np.log10(normalize_density(prediction.n))
    log_orac = np.log10(normalize_density(oracle.n))
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


def sweep_solve(problem: PinnProblem, biases, opts: SolveOptions) -> list:
    """One ``solve_bias`` per bias, each with a fresh generator, on one
    spawned worker process per CPU this process may run on (never more
    than there are biases); with one worker, in this process.

    Returns, per bias and in the order given, its ``PinnResult`` or, if
    the loss diverged, the ``DivergedError`` itself, which keeps the step
    and the partial loss history; the rest of the sweep continues past a
    divergence.  Every bias is checked against the solvable range before
    any is trained.  A worker that dies raises a RuntimeError naming the
    bias it was solving.  ``solve_bias`` runs BLAS on one thread, so each
    result is bitwise equal to ``solve_bias`` at the same bias and
    options wherever it ran, whatever the other biases and the thread
    count.  A worker's log records are logged here, so ``log_every``
    progress shows for every bias.  This only solves; it never scores
    against an oracle (see ``evaluate_against``).
    """
    biases = [float(v) for v in biases]
    for v in biases:
        _check_bias(v)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n_workers = min(cpus, len(biases))
    if n_workers <= 1:
        return [_solve_or_diverged(problem, v, opts) for v in biases]
    return _pooled(problem, biases, opts, n_workers)


def _solve_or_diverged(problem: PinnProblem, v_gate: float, opts: SolveOptions):
    try:
        return solve_bias(problem, v_gate, opts)
    except DivergedError as exc:
        return exc


class _SendLogs(logging.Handler):
    """A worker's log records, sent to the parent as ("log", record)."""

    def __init__(self, conn):
        super().__init__()
        self.conn = conn

    def emit(self, record):
        # the message is rendered here: its arguments need not pickle
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.conn.send(("log", record))


def _worker(conn, problem: PinnProblem, opts: SolveOptions, level: int) -> None:
    """A spawned worker: solves each bias the parent sends, until None."""
    log = logging.getLogger(__package__)
    log.setLevel(level)
    log.addHandler(_SendLogs(conn))
    log.propagate = False
    while (v_gate := conn.recv()) is not None:
        conn.send(("done", _solve_or_diverged(problem, v_gate, opts)))


def _pooled(problem: PinnProblem, biases: list, opts: SolveOptions, n_workers: int) -> list:
    # imported here, as only a pool needs them: at module level they cost
    # every command about 0.5 MB of peak memory
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("spawn")
    results = [None] * len(biases)
    todo = list(reversed(range(len(biases))))
    workers = {}  # a worker's pipe -> its process
    running = {}  # a worker's pipe -> the index of the bias it solves

    def hand_out(conn):
        if todo:
            running[conn] = todo.pop()
            with contextlib.suppress(BrokenPipeError):  # a dead worker reads as EOF below
                conn.send(biases[running[conn]])

    done = False
    try:
        for _ in range(n_workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(child, problem, opts, logger.getEffectiveLevel()),
                               daemon=True)
            proc.start()
            child.close()  # the worker's end is its own now; a dead worker reads as EOF here
            workers[conn] = proc
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    workers[conn].join(timeout=10.0)
                    raise RuntimeError(f"the worker solving V_G={biases[running[conn]]:g} died "
                                       f"(exit code {workers[conn].exitcode})") from None
                if kind == "log":
                    logging.getLogger(payload.name).handle(payload)
                else:
                    results[running.pop(conn)] = payload
                    hand_out(conn)
        done = True
    finally:
        for conn, proc in workers.items():
            if not done:
                proc.terminate()
                continue
            with contextlib.suppress(BrokenPipeError):  # it died after its last result
                conn.send(None)
        for conn, proc in workers.items():
            proc.join()
            conn.close()
    return results
