import dataclasses
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from wirepinn import fermi, oracle, pinn, surrogate
from wirepinn.mesh import DeviceConfig, assemble_fv_coefficients, build_device_mesh


@pytest.fixture(scope="session")
def default_mesh():
    return build_device_mesh()


@pytest.fixture(scope="session")
def default_coeffs(default_mesh):
    return assemble_fv_coefficients(default_mesh)


@pytest.fixture(scope="session")
def params():
    return fermi.default_params()


@pytest.fixture(scope="session")
def oracle_sweep(default_mesh, params):
    """The canonical 101-snapshot gate ramp (shared, read-only)."""
    return oracle.ramp_sweep(default_mesh, params, 0.0, 0.75, 0.0075)


@pytest.fixture(scope="session")
def lr_surrogate(oracle_sweep, default_mesh):
    return surrogate.fit(oracle_sweep.snapshots[:40], default_mesh.fingerprint())


@pytest.fixture(scope="session")
def problem(default_mesh, lr_surrogate, params):
    return pinn.PinnProblem(mesh=default_mesh, surrogate=lr_surrogate, params=params)


@pytest.fixture
def nan_closure(monkeypatch):
    """``poison(mesh, v_gate)``: from then on the closure returns a NaN
    density at one free silicon node whenever the gate sits at ``v_gate``."""
    def poison(mesh, v_gate):
        real = fermi.electron_density
        gate = mesh.gate_nodes()[0]
        node = np.flatnonzero(mesh.silicon_mask() & ~mesh.dirichlet_mask())[0]

        def poisoned(phi, params, si):
            n, dn = real(phi, params, si)
            if phi[gate] == v_gate:
                n = n.copy()
                n[node] = np.nan
            return n, dn

        monkeypatch.setattr(fermi, "electron_density", poisoned)
    return poison


@pytest.fixture
def skewed_derivative(monkeypatch):
    """A fault: ``fermi_half`` returns its dF scaled by 1.1, so every
    hand-written gradient through the closure is off by 10% while every
    value is right."""
    real = fermi.fermi_half

    def skewed(eta):
        f, df = real(eta)
        return f, 1.1 * np.asarray(df)

    monkeypatch.setattr(fermi, "fermi_half", skewed)


# Faults that reach `sweep_solve`'s spawned workers, which never see a
# monkeypatch: a module-level class pickles by reference, so a worker
# unpickles the fault with the problem it is sent.
@dataclasses.dataclass
class DivergingProblem(pinn.PinnProblem):
    """The solve at ``diverge_at`` raises a DivergedError carrying
    ``history``, as if the loss had gone non-finite after that many steps."""

    diverge_at: float = float("nan")
    history: np.ndarray | None = None

    def build_losses(self, n_tilde, v_gate):
        if v_gate == self.diverge_at:
            raise pinn.DivergedError(f"forced at V_G={v_gate}", step=len(self.history),
                                     history=self.history)
        return super().build_losses(n_tilde, v_gate)


@dataclasses.dataclass
class DyingProblem(pinn.PinnProblem):
    """The worker process that solves ``die_at`` exits at once, as a
    killed worker does.  Outside a worker it raises instead, so a sweep
    that spawned nothing fails its test rather than ending the run."""

    die_at: float = float("nan")

    def build_losses(self, n_tilde, v_gate):
        if v_gate == self.die_at:
            if multiprocessing.parent_process() is None:
                raise RuntimeError(f"V_G={v_gate} was solved outside a worker")
            os._exit(70)
        return super().build_losses(n_tilde, v_gate)


@pytest.fixture(scope="session")
def diverging_problem():
    return DivergingProblem


@pytest.fixture(scope="session")
def dying_problem():
    return DyingProblem


@pytest.fixture
def two_workers(monkeypatch):
    """`sweep_solve` sees two CPUs, so a sweep of two or more biases runs
    on two spawned workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


# A coarse device for tests that train or solve many times.
@pytest.fixture(scope="session")
def small_mesh():
    return build_device_mesh(DeviceConfig(nx=17, ny=8))


@pytest.fixture(scope="session")
def small_sweep(small_mesh, params):
    return oracle.ramp_sweep(small_mesh, params, 0.0, 0.75, 0.0075)


@pytest.fixture(scope="session")
def small_surrogate(small_sweep, small_mesh):
    return surrogate.fit(small_sweep.snapshots[:40], small_mesh.fingerprint())


@pytest.fixture(scope="session")
def small_problem(small_mesh, small_surrogate, params):
    return pinn.PinnProblem(mesh=small_mesh, surrogate=small_surrogate, params=params)


@pytest.fixture(scope="session")
def fixed_phi():
    """``fixed_phi(problem, phi)``: ``problem`` with a rank-0 surrogate,
    whose potential is ``phi`` exactly for every density (``left`` is
    (n, 0), ``right`` (0, n) and the intercept ``phi``), so a test can
    drive ``build_losses`` at a potential it chooses."""
    def make(problem, phi):
        n = problem.mesh.n_nodes
        sur = surrogate.LinearSurrogate(left=np.zeros((n, 0)), right=np.zeros((0, n)),
                                        intercept=np.array(phi, dtype=float),
                                        meta=problem.surrogate.meta)
        return dataclasses.replace(problem, surrogate=sur)
    return make


@pytest.fixture(scope="session")
def float64_net():
    """``float64_net(net)``: ``net`` with its values cast up to float64,
    so its passes run in float64.  A central difference with h = 1e-6
    needs it: that step is about 17 float32 ulps at 0.5."""
    def cast(net):
        for p in net.params:
            p.value = p.value.astype(np.float64)
        return net
    return cast


@pytest.fixture(scope="session")
def dense_grads():
    """``dense_grads(net)``: every gradient ``backward`` last set, as a new
    array of its parameter's shape; a weight's is the outer product of
    its factor pair."""
    def dense(net):
        return [np.outer(*p.grad) if isinstance(p.grad, tuple) else p.grad.copy()
                for p in net.params]
    return dense


@pytest.fixture(scope="session")
def traced_peak():
    """``traced_peak(call)``: the tracemalloc peak, in bytes, of ``call()``.
    The call runs once untraced first, so one-time set-up is not counted."""
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
