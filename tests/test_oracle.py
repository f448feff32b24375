import math

import numpy as np
import pytest
import scipy.linalg

from wirepinn import fermi, oracle
from wirepinn.mesh import (CONTACT_SOURCE, DeviceConfig, assemble_fv_coefficients, build_device_mesh,
                           nearest_node, probe_node)
from wirepinn.oracle import (
    ConvergenceError,
    SweepDataset,
    built_in_potential,
    default_tolerance,
    extract_probe,
    ramp_sweep,
    residual_check,
    solve_equilibrium,
)


class TestSolveEquilibrium:
    def test_laplace_with_grounded_contacts_is_zero(self, params):
        mesh = build_device_mesh(DeviceConfig(nx=33, ny=9))
        coeffs = assemble_fv_coefficients(mesh)
        snap = solve_equilibrium(mesh, coeffs, params, 0.0, zero_charge=True)
        assert np.max(np.abs(snap.phi)) <= 1e-12
        assert np.all(snap.n == 0.0)

    def test_source_density_matches_doping(self, default_mesh, default_coeffs, params):
        snap = solve_equilibrium(default_mesh, default_coeffs, params, 0.0)
        source = default_mesh.contact_nodes(CONTACT_SOURCE)
        assert np.max(np.abs(snap.n[source] - 1e20)) / 1e20 <= 0.01

    @pytest.mark.parametrize("v_gate", [0.0, 0.3, 0.75])
    def test_mirror_symmetry(self, default_mesh, default_coeffs, params, v_gate):
        # cold starts; the ramp's warm starts are checked in TestRampSweep
        snap = solve_equilibrium(default_mesh, default_coeffs, params, v_gate)
        assert snap.converged
        assert (residual_check(default_mesh, default_coeffs, params, snap)
                <= default_tolerance(default_mesh, default_coeffs))
        phi = snap.phi.reshape(default_mesh.nx, default_mesh.ny)
        n = snap.n.reshape(default_mesh.nx, default_mesh.ny)
        assert np.max(np.abs(phi - phi[::-1, :])) <= 1e-10
        scale = np.maximum(np.abs(n), 1.0)
        assert np.max(np.abs(n - n[::-1, :]) / scale) <= 1e-8

    def test_gate_nodes_pinned_to_bias(self, default_mesh, default_coeffs, params):
        snap = solve_equilibrium(default_mesh, default_coeffs, params, 0.42)
        assert np.all(snap.phi[default_mesh.gate_nodes()] == 0.42)

    def test_one_closure_call_per_newton_iteration(self, small_mesh, params, monkeypatch):
        # k iterations evaluate the closure k+1 times: n and dn/dphi together
        # at every iterate, the last one's n kept as the snapshot's
        real, calls = fermi.electron_density, []

        def counted(*args, **kwargs):
            calls.append(args[0].copy())
            return real(*args, **kwargs)

        monkeypatch.setattr(fermi, "electron_density", counted)
        coeffs = assemble_fv_coefficients(small_mesh)
        snap = solve_equilibrium(small_mesh, coeffs, params, 0.6)
        assert snap.newton_iterations >= 3
        assert len(calls) == snap.newton_iterations + 1
        assert np.array_equal(calls[-1], snap.phi)

    def test_density_is_shared_closure_of_phi(self, default_mesh, default_coeffs, params):
        snap = solve_equilibrium(default_mesh, default_coeffs, params, 0.6)
        recomputed = fermi.electron_density(snap.phi, params, default_mesh.silicon_mask())[0]
        assert np.array_equal(snap.n, recomputed)

    def test_nonconvergence_raises_with_diagnostics(self, default_mesh, default_coeffs, params,
                                                    monkeypatch):
        monkeypatch.setattr(oracle, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(default_mesh, default_coeffs, params, 0.75)
        assert err.value.iterations == 1
        assert np.isfinite(err.value.residual)


class TestSolveBanded:
    def test_matches_scipy_with_reused_work_array(self):
        rng = np.random.default_rng(0)
        u, n = 6, 40
        lu = np.full((3 * u + 1, n), np.nan, order="F")  # gbsv sets the fill-in rows itself
        for _ in range(3):  # each solve after the first starts from old factors
            ab = rng.standard_normal((2 * u + 1, n))
            ab[u] += 10.0
            b = rng.standard_normal(n)
            want = scipy.linalg.solve_banded((u, u), ab, b)
            assert oracle.solve_banded(ab, b.copy(), lu).tobytes() == want.tobytes()

    def test_factorization_left_in_work_array(self):
        rng = np.random.default_rng(1)
        u, n = 6, 40
        ab = rng.standard_normal((2 * u + 1, n))
        ab[u] += 10.0
        lu = np.zeros((3 * u + 1, n), order="F")
        oracle.solve_banded(ab, rng.standard_normal(n), lu)
        assert not np.array_equal(lu[u:], ab)

    def test_c_ordered_work_array_rejected(self):
        # f2py would factorize a C-ordered lu in a hidden Fortran copy
        with pytest.raises(ValueError, match="F-contiguous"):
            oracle.solve_banded(np.eye(13, 40), np.ones(40), np.zeros((19, 40)))

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            oracle.solve_banded(np.zeros((13, 40)), np.ones(40), np.zeros((19, 40), order="F"))


class TestRampSweep:
    def test_canonical_sweep_has_101_snapshots(self, oracle_sweep):
        assert len(oracle_sweep) == 101
        assert oracle_sweep.biases[0] == 0.0
        assert oracle_sweep.biases[-1] == pytest.approx(0.75)

    def test_degenerate_range_yields_one_snapshot(self, default_mesh, params):
        ds = ramp_sweep(default_mesh, params, 0.3, 0.3, 0.0075)
        assert len(ds) == 1
        assert ds.snapshots[0].v_gate == 0.3

    def test_last_bias_never_passes_v_end(self, small_mesh, params):
        assert list(ramp_sweep(small_mesh, params, 0.0, 0.05, 0.03).biases) == [0.0, 0.03]
        assert list(ramp_sweep(small_mesh, params, 0.0, 0.2, 0.3).biases) == [0.0]

    def test_invalid_ranges(self, default_mesh, params):
        with pytest.raises(ValueError):
            ramp_sweep(default_mesh, params, 0.0, 0.75, 0.0)
        with pytest.raises(ValueError):
            ramp_sweep(default_mesh, params, 0.75, 0.0, 0.0075)
        for args, name in (((0.0, math.inf, 0.0075), "v_end"), ((0.0, 0.75, math.nan), "step"),
                           ((math.nan, 0.75, 0.0075), "v_start")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ramp_sweep(default_mesh, params, *args)

    def test_nan_residual_names_bias(self, small_mesh, params, nan_closure):
        v = 0.0075 * 2  # the ramp's third bias, bit for bit
        nan_closure(small_mesh, v)
        with pytest.raises(ConvergenceError) as err:
            ramp_sweep(small_mesh, params, 0.0, 0.03, 0.0075)
        assert str(err.value).startswith(f"sweep failed at bias index 2 (V_G={v:.6g} V): "
                                         f"non-finite residual at V_G={v} (iteration 0)")
        assert err.value.iterations == 0
        assert np.isnan(err.value.residual)

    def test_every_snapshot_converged_within_budget(self, oracle_sweep):
        # measured with the secant predictor: 6 at the cold first bias, 3 at
        # the second and 2 at each later one, 207 over the ramp (306 when each
        # bias starts from the last solution); the bounds leave one iteration
        # at the worst bias and 5% overall, rounded up (a Jacobian 10% off
        # takes 11 and 613)
        iters = [s.newton_iterations for s in oracle_sweep.snapshots]
        assert all(s.converged for s in oracle_sweep.snapshots)
        assert max(iters) <= 7
        assert sum(iters) <= 218

    def test_predictor_moves_the_path_not_the_answer(self, default_mesh, default_coeffs, params,
                                                     oracle_sweep):
        # Each predicted start still converges well inside the tolerance
        # (measured: 1.4e-26 against 3.38e-24, a 24x margin; a quadratic
        # 3-point predictor stops at 3.32e-24) and lands where a start from
        # the previous snapshot lands (measured: 3.3e-13 V)
        tol = default_tolerance(default_mesh, default_coeffs)
        assert max(s.residual_norm for s in oracle_sweep.snapshots) <= tol / 10
        snaps = oracle_sweep.snapshots
        for prev, snap in zip(snaps, snaps[1:]):
            warm = solve_equilibrium(default_mesh, default_coeffs, params, snap.v_gate, phi0=prev.phi)
            assert np.max(np.abs(warm.phi - snap.phi)) <= 1e-11, snap.v_gate

    def test_every_snapshot_passes_residual_check(self, default_mesh, default_coeffs, params, oracle_sweep):
        tol = default_tolerance(default_mesh, default_coeffs)
        worst = max(residual_check(default_mesh, default_coeffs, params, s)
                    for s in oracle_sweep.snapshots)
        assert worst <= tol

    def test_biases_strictly_increasing(self, oracle_sweep):
        assert np.all(np.diff(oracle_sweep.biases) > 0)

    def test_snapshot_at(self, oracle_sweep):
        grid = oracle_sweep.snapshots[50]
        assert oracle_sweep.snapshot_at(0.375) is grid                # hit
        assert oracle_sweep.snapshot_at(0.9) is None                  # beyond the ramp
        assert oracle_sweep.snapshot_at(grid.v_gate + 1e-12) is grid  # rounding from text
        assert oracle_sweep.snapshot_at(grid.v_gate + 1e-6) is None   # near, but another bias


class TestResidualCheck:
    def test_perturbation_increases_residual(self, default_mesh, default_coeffs, params, oracle_sweep):
        snap = oracle_sweep.snapshots[50]
        base = residual_check(default_mesh, default_coeffs, params, snap)
        node = (default_mesh.nx // 2) * default_mesh.ny + 3
        phi = snap.phi.copy()
        phi[node] += 1e-3
        perturbed = type(snap)(v_gate=snap.v_gate, phi=phi, n=snap.n)
        assert residual_check(default_mesh, default_coeffs, params, perturbed) > base

    def test_zero_field_zero_charge_gives_zero(self, params):
        from wirepinn.oracle import Snapshot

        mesh = build_device_mesh(DeviceConfig(nx=9, ny=7))
        coeffs = assemble_fv_coefficients(mesh)
        # constant-zero field with n exactly cancelling the doping: no flux, no charge
        neutral = Snapshot(v_gate=0.0, phi=np.zeros(mesh.n_nodes), n=mesh.net_doping.copy())
        assert residual_check(mesh, coeffs, params, neutral) == 0.0


class TestBuiltInPotential:
    def test_neutrality(self, default_mesh, params):
        phi_bi = built_in_potential(default_mesh, params)
        assert fermi.electron_density(phi_bi, params)[0] == pytest.approx(1e20, rel=1e-9)


class TestExtractProbe:
    def test_series_length_and_monotonicity(self, oracle_sweep, default_mesh):
        node = probe_node(default_mesh)
        biases, phi, n = extract_probe(oracle_sweep, default_mesh, node)
        ny = default_mesh.ny
        assert (default_mesh.x_nodes[node // ny], default_mesh.y_nodes[node % ny]) == (0.0405, 0.002)
        assert len(biases) == len(phi) == len(n) == len(oracle_sweep)
        assert np.array_equal(n, [s.n[node] for s in oracle_sweep.snapshots])
        assert np.all(np.diff(phi) >= 0)

    def test_gate_probe_equals_bias_series(self, oracle_sweep, default_mesh):
        m = default_mesh
        biases, phi, _ = extract_probe(oracle_sweep, m, nearest_node(m, 0.0405, float(m.y_nodes[-1])))
        assert np.array_equal(phi, biases)

    def test_empty_dataset_rejected(self, default_mesh, params):
        empty = SweepDataset(snapshots=[], mesh_fingerprint=default_mesh.fingerprint(), params=params)
        with pytest.raises(ValueError):
            extract_probe(empty, default_mesh, 0)

    def test_wrong_mesh_rejected(self, oracle_sweep, default_mesh, params):
        other = build_device_mesh(DeviceConfig(length_nm=80.0))
        with pytest.raises(ValueError, match="different mesh"):
            extract_probe(oracle_sweep, other, 0)
        with pytest.raises(ValueError, match="outside"):
            extract_probe(oracle_sweep, default_mesh, default_mesh.n_nodes)
