"""Fermi-Dirac statistics of order one half.

Provides the closed-form Bednarczyk approximation of the Fermi integral
F_1/2 together with its exact analytic derivative, a slow quadrature
reference, the inverse, and the potential -> electron-density closure
that is shared by the nonlinear Poisson oracle and the self-supervised
solver.  Sharing one closure makes the solver's density-consistency loss
exactly zero on oracle fields.  The closure returns its derivative with
its value, so a Newton step or a training epoch evaluates it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SemiconductorParams",
    "default_params",
    "electron_density",
    "fermi_half",
    "fermi_half_quadrature",
    "inverse_fermi_half",
]

_GAMMA_3_2 = 0.5 * math.sqrt(math.pi)
# Prefactor 3*sqrt(pi)/4 of the Bednarczyk closed form.
_BED_C = 0.75 * math.sqrt(math.pi)


@dataclass(frozen=True)
class SemiconductorParams:
    """Constants of the electron-statistics closure.

    n_c: effective conduction-band density of states [cm^-3].
    v_t: thermal voltage kT/q [V].
    phi_ref: potential at which the reduced Fermi level is zero [V].  The
        equilibrium Fermi level is the global zero reference (source and
        drain are grounded), so one fixed offset suffices.
    """

    n_c: float
    v_t: float
    phi_ref: float

    def __post_init__(self):
        if not self.n_c > 0.0:
            raise ValueError(f"n_c must be positive, got {self.n_c}")
        if not self.v_t > 0.0:
            raise ValueError(f"v_t must be positive, got {self.v_t}")


def fermi_half(eta):
    """Bednarczyk closed-form approximation of F_1/2(eta) and its exact
    derivative in one pass: (F, dF/deta).

    F(eta) = 1 / (exp(-eta) + 3*sqrt(pi)/4 * nu(eta)**(-3/8)) with
    nu(eta) = eta**4 + 50 + 33.6*eta*(1 - 0.68*exp(-0.17*(eta + 1)**2)),
    normalized so that F -> exp(eta) in the nondegenerate limit.  Accurate
    to about 0.4% relative against ``fermi_half_quadrature``.  The
    derivative is that of the approximation itself (not of the true
    integral), which keeps Newton Jacobians and backpropagation consistent
    with finite differences of the closure in use.  Accepts scalars or
    arrays; total on finite input.

    No ``pow`` here has eta as its base: the powers of eta are products,
    and the one ``pow`` has the base nu > 0.  numpy's ``pow`` leaves its
    SIMD path for a negative base, at about 160 ns per element against
    4 ns for a positive one.  On the canonical device's 2193 nodes, 11-23%
    of them at negative eta along the 0-0.75 V ramp, ``eta**4`` and
    ``eta**3`` made this function take 210-335 µs; without them it takes
    100-120 µs.
    """
    eta = np.asarray(eta, dtype=float)
    e2 = eta * eta
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-0.17 * (eta + 1.0) ** 2)
        nu = e2 * e2 + 50.0 + 33.6 * eta * (1.0 - 0.68 * g)
        dnu = 4.0 * e2 * eta + 33.6 * (1.0 - 0.68 * g) + 33.6 * 0.2312 * eta * (eta + 1.0) * g
        e = np.exp(-eta)
        q = _BED_C * nu**-0.375
        f = 1.0 / (e + q)
        df = (e + 0.375 * q / nu * dnu) * f * f
        # exp(-eta) overflows below about -700; there F = exp(eta) exactly.
        df = np.where(eta < -300.0, np.exp(eta), df)
    return (f, df) if f.ndim else (float(f), float(df))


def fermi_half_quadrature(eta: float) -> float:
    """Reference F_1/2 by adaptive quadrature, relative accuracy <= 1e-8.

    Evaluates (1/Gamma(3/2)) * integral_0^inf sqrt(x)/(1 + exp(x - eta)) dx,
    splitting at x = eta so the Fermi-edge region is resolved.  Raises
    ArithmeticError if the quadrature error estimate is too large.
    """
    from scipy import integrate  # here, so that importing the package skips it

    eta = float(eta)

    def integrand(x):
        t = x - eta
        if t > 0.0:
            e = math.exp(-t)
            return math.sqrt(x) * e / (1.0 + e)
        return math.sqrt(x) / (1.0 + math.exp(t))

    pieces = [(0.0, eta), (eta, np.inf)] if eta > 0.0 else [(0.0, np.inf)]
    total = 0.0
    err = 0.0
    for a, b in pieces:
        val, abserr = integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-10, limit=300)
        total += val
        err += abserr
    if not (total > 0.0) or err > 1e-8 * total:
        raise ArithmeticError(
            f"Fermi quadrature failed at eta={eta}: value={total}, error estimate={err}"
        )
    return total / _GAMMA_3_2


def inverse_fermi_half(u: float) -> float:
    """Solve fermi_half(eta)[0] = u for eta, u > 0.

    Newton on ``fermi_half``, kept inside a bracket that each step narrows;
    a step that would leave the bracket bisects it instead.  The result
    satisfies |F(eta) - u| <= 1e-13 * u.  Raises ValueError for u <= 0 and
    ArithmeticError if 100 steps do not get there.
    """
    u = float(u)
    if not u > 0.0:
        raise ValueError(f"inverse_fermi_half requires u > 0, got {u}")
    # F(eta) < exp(eta) everywhere, so log(u) brackets from below.  Where
    # rounding puts F(log u) above u, it is by at most half an ulp of
    # |log u| < 709, 5.7e-14 relative, so the first step stops there.
    lo = math.log(u)
    hi = max(2.0, (u / 0.752) ** (2.0 / 3.0) + 2.0)
    for _ in range(200):
        if fermi_half(hi)[0] > u:
            break
        hi = hi * 1.5 + 1.0
    else:  # pragma: no cover - F is unbounded, bracket always found
        raise ArithmeticError(f"could not bracket inverse Fermi integral for u={u}")
    eta = lo
    for _ in range(100):
        f, df = fermi_half(eta)
        if abs(f - u) <= 1e-13 * u:
            return eta
        if f < u:
            lo = eta
        else:
            hi = eta
        eta -= (f - u) / df
        if not lo < eta < hi:
            eta = 0.5 * (lo + hi)
    raise ArithmeticError(f"inverse Fermi integral did not converge for u={u}")


def electron_density(phi, params: SemiconductorParams, silicon_mask=None):
    """Electron density n = N_C * F_1/2((phi - phi_ref)/V_T) [cm^-3] and its
    derivative dn/dphi [cm^-3 / V]: (n, dn).

    Region aware: where ``silicon_mask`` is False both are zero (insulator
    nodes carry no mobile charge).
    """
    eta = (np.asarray(phi, dtype=float) - params.phi_ref) / params.v_t
    f, df = fermi_half(eta)
    n = params.n_c * f
    dn = params.n_c * df / params.v_t
    if silicon_mask is not None:
        n = np.where(silicon_mask, n, 0.0)
        dn = np.where(silicon_mask, dn, 0.0)
    return (n, dn) if np.ndim(n) else (float(n), float(dn))


def default_params() -> SemiconductorParams:
    """Standard silicon 300 K constants with the calibrated band reference.

    phi_ref anchors the gate window on the device's transfer curve: with
    0.30 V the 0..0.75 V sweep runs from depletion through the onset of
    inversion (near the low-bias training boundary) into strong degenerate
    inversion, and the density surrogate's extrapolation stays sub-mV.
    Larger references push the whole transition outside the sweep and the
    low-bias snapshots then carry no space-charge response at all.
    """
    return SemiconductorParams(n_c=2.86e19, v_t=0.025852, phi_ref=0.30)
