"""Built-in self tests behind the ``check`` command.

Each check returns (name, passed, detail).  The checks re-derive their
expectations from independent routes (quadrature, finite differences of
the closure and of the training loss against its hand-written gradient,
mirror symmetry, the from-scratch residual), so a fresh build passing
here means the numerical core is wired correctly.  Functions are looked
up through their modules at call time, which keeps the suite honest under
fault injection in tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import fermi
from . import mesh as mesh_mod
from . import oracle
from . import pinn
from . import surrogate as sur_mod

__all__ = ["run_self_checks"]


def _check_fermi_accuracy(fast: bool):
    step = 0.25 if fast else 0.05
    grid = np.arange(-30.0, 50.0 + step / 2, step)
    approx = fermi.fermi_half(grid)[0]
    worst = 0.0
    for eta, a in zip(grid, approx):
        q = fermi.fermi_half_quadrature(eta)
        worst = max(worst, abs(a - q) / q)
    return worst <= 5e-3, f"max relative error of the closed form vs quadrature: {worst:.3e} (<= 5e-3)"


def _check_fermi_derivative(fast: bool):
    grid = np.linspace(-25.0, 45.0, 30 if fast else 200)
    h = 1e-6
    fd = (fermi.fermi_half_approx(grid + h) - fermi.fermi_half_approx(grid - h)) / (2 * h)
    an = fermi.fermi_half(grid)[1]
    rel = np.max(np.abs(an - fd) / np.abs(fd))
    return rel <= 1e-5, f"analytic derivative vs central differences: {rel:.3e} (<= 1e-5)"


def _check_fermi_inverse(fast: bool):
    worst = 0.0
    for eta in np.linspace(-20.0, 20.0, 9):
        u = fermi.fermi_half_approx(eta)
        worst = max(worst, abs(fermi.fermi_half_approx(fermi.inverse_fermi_half(u)) - u) / u)
    return worst <= 1e-12, f"inverse round-trip residual: {worst:.3e} (<= 1e-12)"


def _check_oracle(fast: bool):
    mesh = mesh_mod.build_device_mesh()
    coeffs = mesh_mod.assemble_fv_coefficients(mesh)
    params = fermi.default_params()
    tol = oracle.default_tolerance(mesh, coeffs)
    biases = (0.0, 0.75) if fast else (0.0, 0.3, 0.75)
    msgs = []
    ok = True
    for v in biases:
        snap = oracle.solve_equilibrium(mesh, coeffs, params, v)
        p2 = snap.phi.reshape(mesh.nx, mesh.ny)
        asym = float(np.max(np.abs(p2 - p2[::-1, :])))
        resid = oracle.residual_check(mesh, coeffs, params, snap)
        ok = ok and asym <= 1e-10 and resid <= tol and snap.converged
        msgs.append(f"V_G={v}: residual {resid:.2e}, mirror asymmetry {asym:.2e}")
    return ok, "; ".join(msgs)


def _check_laplace(fast: bool):
    cfg = mesh_mod.DeviceConfig(nx=33, ny=9)
    mesh = mesh_mod.build_device_mesh(cfg)
    coeffs = mesh_mod.assemble_fv_coefficients(mesh)
    params = fermi.default_params()
    snap = oracle.solve_equilibrium(mesh, coeffs, params, 0.0, zero_charge=True)
    worst = float(np.max(np.abs(snap.phi)))
    return worst <= 1e-12, f"zero charge, grounded contacts: max |phi| = {worst:.2e}"


def _check_gradients(fast: bool):
    mesh = mesh_mod.build_device_mesh(mesh_mod.DeviceConfig(nx=17, ny=8))
    params = fermi.default_params()
    ds = oracle.ramp_sweep(mesh, params, 0.0, 0.2925, 0.0075 if not fast else 0.0225)
    sur = sur_mod.fit(ds.snapshots, mesh.fingerprint())
    problem = pinn.PinnProblem(mesh=mesh, surrogate=sur, params=params)
    net = ad.GeneratorNet(n_out=mesh.n_nodes, hidden=(8, 16), seed=11)
    # difference in float64, as the passes follow the parameters' dtype:
    # a step of 1e-5 is only about 170 float32 ulps at 0.5
    for p in net.params:
        p.value = p.value.astype(np.float64)

    def losses():
        return problem.build_losses(pinn.postprocess(net.forward(0.5 / pinn.V_GATE_SCALE)), 0.5)

    net.backward(losses()[3])
    # a weight's gradient is the factor pair of its outer product
    grads = [np.outer(*p.grad) if isinstance(p.grad, tuple) else p.grad for p in net.params]
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20 if fast else 50):
        li = int(rng.integers(len(net.params)))
        values = net.params[li].value
        idx = np.unravel_index(int(rng.integers(values.size)), values.shape)
        # rounding costs fd about eps·|f|/h: with the fast check's loss of
        # 93 and smallest sampled gradient of 7.4e-5, that is 3e-5 relative
        # at this h, 3e-4 at h = 1e-6
        h = 1e-5
        keep = values[idx]
        values[idx] = keep + h
        f_plus = float(losses()[2])
        values[idx] = keep - h
        f_minus = float(losses()[2])
        values[idx] = keep
        fd = (f_plus - f_minus) / (2 * h)
        an = float(grads[li][idx])
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-12))
    return worst <= 1e-4, f"composed-loss gradient vs finite differences: {worst:.3e} (<= 1e-4)"


def _check_optimizer(fast: bool):
    w = ad.Tensor(np.array([0.0]))
    state = ad.AdamState([w], lr=1e-2)
    for _ in range(2000):
        grad = 2.0 * (w.value - 3.0)
        ad.adam_step(state, [w], [grad])
    err = abs(float(w.value[0]) - 3.0)
    # the path training takes, against float64 textbook Adam; the error was
    # at most 2.7e-7 of the weight's move over seeds 0-199, a 3.7x margin
    rng = np.random.default_rng(3)
    w2 = ad.Tensor((1e-2 * rng.standard_normal((3, 4))).astype(np.float32))
    state = ad.AdamState([w2], lr=1e-2)
    p = p0 = w2.value.astype(np.float64)
    m = v = 0.0
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    for t in range(1, 11):
        g, x = rng.standard_normal(3).astype(np.float32), rng.standard_normal(4).astype(np.float32)
        ad.adam_step(state, [w2], [(g, x)])
        grad = np.outer(g, x.astype(np.float64))
        m, v = b1 * m + (1.0 - b1) * grad, b2 * v + (1.0 - b2) * grad * grad
        p = p - 1e-2 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ad.ADAM_EPS)
    rank1 = float(np.max(np.abs(w2.value - p)) / np.max(np.abs(p - p0)))
    sched = ad.PlateauScheduler(lr=1e-3, patience=10)
    lr = 1e-3
    for _ in range(200):
        lr = ad.scheduler_step(sched, 1.0)
    return (err <= 1e-3 and rank1 <= 1e-6 and lr == 1e-5,
            f"scalar Adam |w-3|={err:.2e}; float32 rank-1 Adam vs float64 textbook "
            f"{rank1:.1e} (<= 1e-6); plateau floor lr={lr:g}")


_CHECKS = (
    ("fermi-approx-vs-quadrature", _check_fermi_accuracy),
    ("fermi-derivative-fd", _check_fermi_derivative),
    ("fermi-inverse-roundtrip", _check_fermi_inverse),
    ("oracle-laplace-zero", _check_laplace),
    ("oracle-symmetry-residual", _check_oracle),
    ("gradient-composed-loss", _check_gradients),
    ("adam-and-scheduler", _check_optimizer),
)


def run_self_checks(fast: bool = False):
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(fast)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
