"""Linear map from normalized electron density to electrostatic potential.

Fit on the low-bias snapshots only, this affine surrogate emulates the
inverse of the discretized Poisson operator: once the charge profile is
known, the potential is a linear function of it, so plain least squares
can learn the solve.  With 40 snapshots against 2193 features the fit is
underdetermined; the minimum-norm pseudoinverse solution interpolates the
training set exactly and is the canonical deterministic choice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, svd

from . import _blas

__all__ = [
    "DENSITY_OFFSET",
    "DENSITY_SCALE",
    "LinearSurrogate",
    "SurrogateMeta",
    "denormalize_density",
    "fit",
    "normalize_density",
    "predict_phi",
    "scatter_stats",
]

logger = logging.getLogger(__name__)

DENSITY_OFFSET = 1e10  # cm^-3, keeps oxide nodes positive for the log
DENSITY_SCALE = 1e19   # cm^-3
RCOND = 1e-12         # relative SVD cutoff of the fit


def normalize_density(n):
    """n -> (n + 1e10) / 1e19 elementwise."""
    return (np.asarray(n, dtype=float) + DENSITY_OFFSET) / DENSITY_SCALE


def denormalize_density(n_tilde):
    """Inverse of ``normalize_density``."""
    return np.asarray(n_tilde, dtype=float) * DENSITY_SCALE - DENSITY_OFFSET


@dataclass(frozen=True)
class SurrogateMeta:
    n_snapshots: int
    bias_min: float
    bias_max: float
    mesh_fingerprint: str
    rcond: float
    density_offset: float = DENSITY_OFFSET
    density_scale: float = DENSITY_SCALE

    def __post_init__(self):
        # every caller normalizes with the module constants, so a model
        # fitted under others would be silently misread
        if (self.density_offset, self.density_scale) != (DENSITY_OFFSET, DENSITY_SCALE):
            raise ValueError(
                f"density normalization (offset {self.density_offset:g}, scale {self.density_scale:g}) "
                f"differs from the solver's (offset {DENSITY_OFFSET:g}, scale {DENSITY_SCALE:g})"
            )


@dataclass(frozen=True)
class LinearSurrogate:
    """phi = left @ (right @ n_tilde) + intercept, with training provenance.

    ``left`` and ``right`` are the factors of the fit's SVD; their inner
    dimension is the kept rank, at most n_snapshots - 1.
    """

    left: np.ndarray       # (n_nodes, rank)
    right: np.ndarray      # (rank, n_nodes)
    intercept: np.ndarray  # (n_nodes,)
    meta: SurrogateMeta

    def __post_init__(self):
        n = len(self.intercept)
        if self.left.ndim != 2 or self.left.shape[0] != n or self.right.shape != (self.left.shape[1], n):
            raise ValueError(
                f"factor shapes {self.left.shape} and {self.right.shape} do not match intercept ({n},)"
            )
        for arr in (self.left, self.right, self.intercept):
            if not np.all(np.isfinite(arr)):
                raise ValueError("surrogate entries must be finite")
            arr.flags.writeable = False


@_blas.one_thread()
def fit(snapshots, mesh_fingerprint: str) -> LinearSurrogate:
    """Least-squares fit of potential profiles against normalized densities.

    ``snapshots`` is the training slice (typically the first 40 of a
    sweep).  The fit centers both sides, computes the minimum-norm
    solution through an SVD with relative cutoff RCOND, keeps it as
    the factors Yc^T U diag(1/s) and V^T, and absorbs the static
    donor/boundary contribution into the intercept.  ``mesh_fingerprint``
    names the snapshots' mesh; a solver refuses the model on any other.
    Raises ValueError on empty input or mismatched field lengths.

    The SVD and the products run on scipy's OpenBLAS, as the generator's
    do: a fit on numpy's leaves that pool spinning into the next solve,
    which then waits for it (see `autodiff`'s docstring).  They run on
    one thread (`_blas`): the SVD of a 40 x 2193 matrix is faster so.
    """
    if len(snapshots) == 0:
        raise ValueError("cannot fit a surrogate on zero snapshots")
    if len(snapshots) < 2:
        logger.warning("fitting on %d snapshot(s): rank-deficient, intercept-only model", len(snapshots))

    n_nodes = len(snapshots[0].phi)
    for s in snapshots:
        if len(s.phi) != n_nodes or len(s.n) != n_nodes:
            raise ValueError("snapshots disagree on mesh size")

    x = np.stack([normalize_density(s.n) for s in snapshots])  # (k, n)
    y = np.stack([s.phi for s in snapshots])                   # (k, n)
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)

    u, s, vt = svd(x - x_mean, full_matrices=False)
    keep = s > RCOND * s[0]  # none kept when s[0] == 0
    logger.info("surrogate fit: %d snapshots, rank %d kept of %d", len(snapshots), keep.sum(), len(s))
    # The Fortran calls numpy's `@` makes on these C-ordered operands, so the
    # bits are numpy's: Yc^T U as (U^T Yc)^T, and A v as a transposed A.T v.
    left = blas.dgemm(1.0, u[:, keep].T, (y - y_mean).T, trans_b=1).T / s[keep]
    right = vt[keep]
    intercept = y_mean
    if keep.any():  # rank 0 is the intercept alone, and dgemv refuses an empty result
        intercept = y_mean - blas.dgemv(1.0, left.T, blas.dgemv(1.0, right.T, x_mean, trans=1), trans=1)

    biases = [float(s.v_gate) for s in snapshots]
    meta = SurrogateMeta(
        n_snapshots=len(snapshots),
        bias_min=min(biases),
        bias_max=max(biases),
        mesh_fingerprint=mesh_fingerprint,
        rcond=RCOND,
    )
    return LinearSurrogate(left=left, right=right, intercept=intercept, meta=meta)


def predict_phi(surrogate: LinearSurrogate, n_tilde: np.ndarray) -> np.ndarray:
    """phi = left @ (right @ n_tilde) + b.  The adjoint of this exact
    linear map is right^T left^T, which is what backpropagation through
    the frozen surrogate uses."""
    n_tilde = np.asarray(n_tilde, dtype=float)
    if n_tilde.shape != surrogate.intercept.shape:
        raise ValueError(
            f"n_tilde has shape {n_tilde.shape}, surrogate expects {surrogate.intercept.shape}"
        )
    return surrogate.left @ (surrogate.right @ n_tilde) + surrogate.intercept


def scatter_stats(surrogate: LinearSurrogate, dataset, gate_nodes=None) -> dict:
    """Predicted-vs-oracle statistics over a whole sweep.

    Returns R^2 over all nodes and snapshots, the per-snapshot max
    absolute potential error, the predicted potentials (one row per
    snapshot) and (if gate nodes are given) the error of the mean gate
    potential against each snapshot's bias.
    """
    preds = np.stack([predict_phi(surrogate, normalize_density(s.n)) for s in dataset.snapshots])
    truth = np.stack([s.phi for s in dataset.snapshots])
    resid = preds - truth
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    stats = {
        "r2": 1.0 - ss_res / ss_tot,
        "max_abs_err": float(np.max(np.abs(resid))),
        "per_snapshot_max_err": np.max(np.abs(resid), axis=1),
        "predictions": preds,
    }
    if gate_nodes is not None:
        gate_mean = preds[:, gate_nodes].mean(axis=1)
        stats["gate_err"] = gate_mean - dataset.biases
    return stats
