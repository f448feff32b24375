"""Equilibrium nonlinear Poisson oracle for the gated nanowire.

Solves div(eps grad phi) = -q (N_D - N_A - n(phi)) on the tensor mesh by
damped Newton iteration with a direct banded factorization (y-fastest
ordering, bandwidth ny), and generates the gate-bias sweep that is the
only ground truth in this project.  Holes are neglected: the electron
density dominates the space charge in this device.

Boundary conditions: gate nodes are Dirichlet at the applied gate bias
(zero workfunction offset), source/drain nodes are Dirichlet at the
built-in potential fixed by charge neutrality, everything else -
including the y = 0 symmetry axis - is natural zero flux.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import _blas, fermi
from .mesh import (
    CONTACT_DRAIN,
    CONTACT_GATE,
    CONTACT_SOURCE,
    EPS0_F_PER_CM,
    FvCoefficients,
    Q_COULOMB,
    TensorMesh,
    assemble_fv_coefficients,
)

__all__ = [
    "ConvergenceError",
    "Snapshot",
    "SweepDataset",
    "built_in_potential",
    "extract_probe",
    "ramp_sweep",
    "residual_check",
    "solve_equilibrium",
]

logger = logging.getLogger(__name__)

# Two biases closer than this are the same bias point: far below any ramp
# step, far above the rounding of a bias parsed from text.
BIAS_MATCH_TOL = 1e-9
# Newton convergence: residual inf-norm at most this fraction of the
# largest charge term (see default_tolerance)
RESIDUAL_TOL_REL = 1e-10
# Newton damping: |delta phi| <= DAMPING_CLAMP_VT * V_T per node per step
DAMPING_CLAMP_VT = 10.0
# Newton steps before a solve gives up with ConvergenceError
MAX_NEWTON_ITERATIONS = 100


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last residual norm."""

    def __init__(self, message: str, residual: float = float("nan"), iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class Snapshot:
    """Fields of one bias point on the shared mesh."""

    v_gate: float
    phi: np.ndarray          # [V] per node
    n: np.ndarray            # [cm^-3] per node, 0 in oxide
    converged: bool = True
    residual_norm: float = float("nan")
    newton_iterations: int = 0


@dataclass
class SweepDataset:
    """Ordered snapshots of a gate ramp plus provenance."""

    snapshots: list
    mesh_fingerprint: str
    params: fermi.SemiconductorParams

    def __post_init__(self):
        b = self.biases
        if len(b) > 1 and np.any(np.diff(b) <= 0):
            raise ValueError("sweep biases must be strictly increasing")

    @property
    def biases(self) -> np.ndarray:
        return np.array([s.v_gate for s in self.snapshots])

    def __len__(self) -> int:
        return len(self.snapshots)

    def snapshot_at(self, v_gate: float) -> Snapshot | None:
        """The snapshot at bias ``v_gate`` (within BIAS_MATCH_TOL), or None."""
        for snap in self.snapshots:
            if abs(snap.v_gate - v_gate) < BIAS_MATCH_TOL:
                return snap
        return None


def default_tolerance(mesh: TensorMesh, coeffs: FvCoefficients) -> float:
    """RESIDUAL_TOL_REL of the largest charge term q * |doping|_max * vol_max."""
    doping_scale = max(float(np.max(np.abs(mesh.net_doping))), 1e10)
    return RESIDUAL_TOL_REL * Q_COULOMB * doping_scale * float(np.max(coeffs.volume))


def built_in_potential(mesh: TensorMesh, params: fermi.SemiconductorParams) -> float:
    """Source/drain Dirichlet value from charge neutrality n = N_D."""
    source = mesh.contact_nodes(CONTACT_SOURCE)
    nd = float(mesh.net_doping[source].max()) if len(source) else 0.0
    if nd <= 0.0:
        return 0.0
    return params.phi_ref + params.v_t * fermi.inverse_fermi_half(nd / params.n_c)


def _dirichlet_values(mesh: TensorMesh, v_gate: float, phi_bi: float) -> np.ndarray:
    """Per-node boundary values on contact nodes (0 elsewhere)."""
    bc = np.zeros(mesh.n_nodes)
    bc[mesh.contact == CONTACT_GATE] = v_gate
    bc[mesh.contact == CONTACT_SOURCE] = phi_bi
    bc[mesh.contact == CONTACT_DRAIN] = phi_bi
    return bc


def _initial_guess(mesh: TensorMesh, bc: np.ndarray, v_gate: float, phi_bi: float) -> np.ndarray:
    """Interpolate between contact values: phi_bi in the bulk, blending
    linearly in y toward the gate value under the gate span."""
    nx, ny = mesh.nx, mesh.ny
    phi = np.full((nx, ny), phi_bi)
    gate_cols = np.unique(mesh.gate_nodes() // ny)
    if len(gate_cols):
        frac = mesh.y_nodes / mesh.y_nodes[-1]
        phi[gate_cols, :] = phi_bi + (v_gate - phi_bi) * frac[None, :]
    phi = phi.reshape(-1)
    mask = mesh.dirichlet_mask()
    phi[mask] = bc[mask]
    return phi


# LAPACK's banded LU solve for float64, looked up once.
(_GBSV,) = lapack.get_lapack_funcs(("gbsv",))


def solve_banded(ab: np.ndarray, b: np.ndarray, lu: np.ndarray) -> np.ndarray:
    """Solve J x = b for a J with l = u = (len(ab) - 1) // 2 sub- and
    superdiagonals, stored as ab[u + i - j, j] = J[i, j].

    ``lu`` is gbsv's (3u + 1, n) work array, F-contiguous so that gbsv
    works in it rather than in a silent copy: ab is copied into its rows
    u:, and the factorization overwrites ``lu``.  The solution overwrites
    ``b`` where f2py can pass it without a copy.  Raises ValueError for a
    ``lu`` that is not F-contiguous and LinAlgError if J is singular.
    """
    if not lu.flags.f_contiguous:
        raise ValueError("solve_banded factorizes in an F-contiguous lu work array")
    u = (len(ab) - 1) // 2
    lu[u:] = ab
    _, _, x, info = _GBSV(u, u, lu, b, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _newton(mesh: TensorMesh, coeffs: FvCoefficients, params: fermi.SemiconductorParams,
            zero_charge: bool):
    """The set-up of solve_equilibrium that does not depend on the bias: the
    Dirichlet and silicon masks, the built-in potential, the tolerance, the
    banded Jacobian's fixed off-diagonals and the LU work array.  Returns
    ``solve(v_gate, phi0) -> Snapshot``, one bias on that set-up; a ramp
    builds it once for all of its biases."""
    nx, ny = mesh.nx, mesh.ny
    n_nodes = mesh.n_nodes
    tol = default_tolerance(mesh, coeffs)
    clamp = DAMPING_CLAMP_VT * params.v_t

    bc_mask = mesh.dirichlet_mask()
    free = ~bc_mask
    phi_bi = 0.0 if zero_charge else built_in_potential(mesh, params)
    # no silicon means no carriers: the closure returns zeros for n and dn
    si = np.zeros(n_nodes, dtype=bool) if zero_charge else mesh.silicon_mask()
    doping = np.zeros(n_nodes) if zero_charge else mesh.net_doping
    q_vol = Q_COULOMB * coeffs.volume
    gx, gy = coeffs.gx, coeffs.gy

    def residual(p, n, bc):
        p2 = p.reshape(nx, ny)
        f = np.zeros((nx, ny))
        flux_x = gx * (p2[1:, :] - p2[:-1, :])
        f[:-1, :] += flux_x
        f[1:, :] -= flux_x
        flux_y = gy * (p2[:, 1:] - p2[:, :-1])
        f[:, :-1] += flux_y
        f[:, 1:] -= flux_y
        f = f.reshape(-1)
        f += q_vol * (doping - n)
        f[bc_mask] = p[bc_mask] - bc[bc_mask]
        return f

    # The banded Jacobian for solve_banded, ab[ny + i - j, j] = J[i, j]:
    # only the closure term of its diagonal changes between iterations.
    # F-ordered like lu, so solve_banded's copy runs along memory.
    ab = np.zeros((2 * ny + 1, n_nodes), order="F")
    lu = np.zeros((3 * ny + 1, n_nodes), order="F")
    lap_diag = np.zeros((nx, ny))
    lap_diag[:-1, :] -= gx
    lap_diag[1:, :] -= gx
    lap_diag[:, :-1] -= gy
    lap_diag[:, 1:] -= gy
    lap_diag = lap_diag.reshape(-1)
    # y edges couple i and i+1 only within a column (i % ny != ny - 1);
    # Dirichlet rows keep only their unit diagonal
    gy_vals = np.zeros(n_nodes - 1)
    gy_vals[(np.arange(n_nodes - 1) % ny) != ny - 1] = gy.reshape(-1)
    ab[ny - 1, 1:] = np.where(bc_mask[:-1], 0.0, gy_vals)            # J[i, i+1]
    ab[ny + 1, :-1] = np.where(bc_mask[1:], 0.0, gy_vals)            # J[i+1, i]
    ab[0, ny:] = np.where(bc_mask[:-ny], 0.0, gx.reshape(-1))        # J[i, i+ny]
    ab[2 * ny, :-ny] = np.where(bc_mask[ny:], 0.0, gx.reshape(-1))   # J[i+ny, i]

    def solve(v_gate: float, phi0: np.ndarray | None) -> Snapshot:
        bc = _dirichlet_values(mesh, v_gate, phi_bi)
        if phi0 is None:
            phi = _initial_guess(mesh, bc, v_gate, phi_bi)
        else:
            phi = phi0.copy()
            phi[bc_mask] = bc[bc_mask]

        rnorm = float("inf")
        for iteration in range(MAX_NEWTON_ITERATIONS + 1):
            n, dn = fermi.electron_density(phi, params, si)
            f = residual(phi, n, bc)
            rnorm = float(np.max(np.abs(f[free]))) if free.any() else 0.0
            if rnorm <= tol:
                return Snapshot(
                    v_gate=float(v_gate),
                    phi=phi,
                    n=n,
                    converged=True,
                    residual_norm=rnorm,
                    newton_iterations=iteration,
                )
            if not math.isfinite(rnorm):
                raise ConvergenceError(
                    f"non-finite residual at V_G={v_gate} (iteration {iteration})",
                    residual=rnorm,
                    iterations=iteration,
                )
            if iteration == MAX_NEWTON_ITERATIONS:
                break
            ab[ny] = lap_diag - q_vol * dn
            ab[ny, bc_mask] = 1.0
            try:
                dphi = solve_banded(ab, -f, lu)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                raise ConvergenceError(
                    f"singular linear system at V_G={v_gate} (iteration {iteration})",
                    residual=rnorm,
                    iterations=iteration,
                ) from exc
            np.clip(dphi, -clamp, clamp, out=dphi)
            phi = phi + dphi

        raise ConvergenceError(
            f"Newton did not converge at V_G={v_gate}: residual {rnorm:.3e} > {tol:.3e} "
            f"after {MAX_NEWTON_ITERATIONS} iterations",
            residual=rnorm,
            iterations=MAX_NEWTON_ITERATIONS,
        )

    return solve


def solve_equilibrium(
    mesh: TensorMesh,
    coeffs: FvCoefficients,
    params: fermi.SemiconductorParams,
    v_gate: float,
    phi0: np.ndarray | None = None,
    *,
    zero_charge: bool = False,
) -> Snapshot:
    """Damped Newton solve of the equilibrium Poisson system at one bias.

    The discrete residual at node c is
        F_c = sum_edges g * (phi_nb - phi_c) + q * (N_D - N_A - n(phi_c)) * vol_c
    and convergence requires max|F| <= default_tolerance over all
    non-Dirichlet nodes.  Newton updates are clamped to
    +-DAMPING_CLAMP_VT * V_T per node.  Each iteration evaluates the
    closure once: its n enters the residual, its dn/dphi the Jacobian's
    diagonal.  ``zero_charge`` drops doping and carriers and grounds the
    contacts, leaving a Laplace problem whose exact solution at V_G = 0
    is zero.
    Raises ConvergenceError on stagnation, a non-finite residual or a
    singular linear system.
    """
    return _newton(mesh, coeffs, params, zero_charge)(v_gate, phi0)


@_blas.one_thread()
def ramp_sweep(
    mesh: TensorMesh,
    params: fermi.SemiconductorParams,
    v_start: float,
    v_end: float,
    step: float,
) -> SweepDataset:
    """Solve a gate ramp by natural-parameter continuation.

    The bias list is v_start + k*step up to v_end inclusive, never past
    it; a quotient (v_end - v_start)/step that rounding left within 1e-9
    below an integer keeps that last bias, so the default 0 -> 0.75 V at
    7.5 mV gives 101 snapshots.  Newton starts the first bias from the
    contact interpolation, the second from the first's solution and each
    later one from the secant predictor 2 * phi[k-1] - phi[k-2], which
    saves one step per bias; a quadratic 3-point predictor saves more but
    stops its solves just inside the tolerance.  Solver failures are
    re-raised with the offending bias index attached.  BLAS runs on one
    thread (`_blas`).
    """
    for name, value in (("v_start", v_start), ("v_end", v_end), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if v_end < v_start:
        raise ValueError(f"v_end={v_end} must be >= v_start={v_start}")
    n_steps = math.floor((v_end - v_start) / step + 1e-9)
    biases = v_start + step * np.arange(n_steps + 1)

    solve = _newton(mesh, assemble_fv_coefficients(mesh), params, zero_charge=False)
    snapshots = []
    for k, v in enumerate(biases):
        if k >= 2:
            phi0 = 2.0 * snapshots[-1].phi - snapshots[-2].phi
        else:
            phi0 = snapshots[-1].phi if snapshots else None
        try:
            snap = solve(float(v), phi0)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"sweep failed at bias index {k} (V_G={v:.6g} V): {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        snapshots.append(snap)
        logger.debug("V_G=%.4f V converged in %d iterations", v, snap.newton_iterations)
    return SweepDataset(snapshots=snapshots, mesh_fingerprint=mesh.fingerprint(), params=params)


def residual_check(
    mesh: TensorMesh,
    coeffs: FvCoefficients,
    params: fermi.SemiconductorParams,
    snapshot: Snapshot,
) -> float:
    """Independent residual of a snapshot's stored (phi, n) fields.

    Recomputes the discrete flux balance from the mesh geometry with its
    own edge bookkeeping (no code shared with the Newton assembly) and
    returns the inf-norm over non-Dirichlet nodes.  Uses the snapshot's
    stored n, so it verifies the pair of fields, not just phi.
    """
    nx, ny = mesh.nx, mesh.ny
    x = mesh.x_nodes * 1e-4  # um -> cm
    y = mesh.y_nodes * 1e-4
    phi = snapshot.phi.reshape(nx, ny)
    eps = mesh.eps_node().reshape(nx, ny)

    def width(c):
        w = np.empty_like(c)
        w[0] = 0.5 * (c[1] - c[0])
        w[-1] = 0.5 * (c[-1] - c[-2])
        if len(c) > 2:
            w[1:-1] = 0.5 * (c[2:] - c[:-2])
        return w

    wx, wy = width(x), width(y)
    f = np.zeros((nx, ny))

    g = EPS0_F_PER_CM * (2.0 / (1.0 / eps[:-1, :] + 1.0 / eps[1:, :])) * wy[None, :] / np.diff(x)[:, None]
    jump = phi[1:, :] - phi[:-1, :]
    f[:-1, :] += g * jump
    f[1:, :] -= g * jump

    g = EPS0_F_PER_CM * (2.0 / (1.0 / eps[:, :-1] + 1.0 / eps[:, 1:])) * wx[:, None] / np.diff(y)[None, :]
    jump = phi[:, 1:] - phi[:, :-1]
    f[:, :-1] += g * jump
    f[:, 1:] -= g * jump

    f = f.reshape(-1) + Q_COULOMB * (mesh.net_doping - snapshot.n) * coeffs.volume
    free = ~mesh.dirichlet_mask()
    return float(np.max(np.abs(f[free]))) if free.any() else 0.0


def extract_probe(dataset: SweepDataset, mesh: TensorMesh, node: int):
    """(biases, phi_series, n_series) at one node across all snapshots, for
    probe-trace reporting (``mesh.probe_node`` gives the usual node)."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.mesh_fingerprint != mesh.fingerprint():
        raise ValueError("dataset was generated on a different mesh")
    if not 0 <= node < mesh.n_nodes:
        raise ValueError(f"node {node} outside 0..{mesh.n_nodes - 1}")
    phi = np.array([s.phi[node] for s in dataset.snapshots])
    n = np.array([s.n[node] for s in dataset.snapshots])
    return dataset.biases, phi, n
