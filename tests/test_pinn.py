import numpy as np
import pytest

from wirepinn import autodiff as ad
from wirepinn import pinn, surrogate
from wirepinn.mesh import nearest_node
from wirepinn.pinn import (
    DivergedError,
    PinnProblem,
    SolveOptions,
    evaluate_against,
    gate_voltage,
    loss_boundary,
    loss_fd,
    postprocess,
    solve_bias,
    sweep_solve,
    teacher_forced_losses,
)


class TestPostprocess:
    def test_elu_floor_maps_to_offset(self):
        assert postprocess(np.array([-1.0]))[0] == pytest.approx(1e-9, rel=1e-12)

    def test_zero_maps_to_one(self):
        assert postprocess(np.array([0.0]))[0] == pytest.approx(1.0 + 1e-9)

    def test_floor_means_zero_physical_density(self):
        n = surrogate.denormalize_density(postprocess(np.array([-1.0])))
        assert n[0] == pytest.approx(0.0, abs=1e4)  # 1e4 cm^-3 of 1e19 scale is rounding


class TestGateVoltage:
    def test_constant_gate(self, small_problem):
        phi = np.zeros(small_problem.mesh.n_nodes)
        phi[small_problem.gate_nodes] = 0.5
        assert gate_voltage(phi, small_problem.gate_nodes) == pytest.approx(0.5)

    def test_mean_of_two(self):
        phi = np.array([0.4, 0.6])
        assert gate_voltage(phi, np.array([0, 1])) == pytest.approx(0.5)

    def test_oracle_snapshot_is_exact(self, oracle_sweep, problem):
        # Dirichlet nodes all carry V_G; the mean only re-rounds at one ulp
        snap = oracle_sweep.snapshots[40]
        assert gate_voltage(snap.phi, problem.gate_nodes) == pytest.approx(snap.v_gate, rel=1e-14)

    def test_empty_gate_set_rejected(self):
        with pytest.raises(ValueError):
            gate_voltage(np.ones(5), np.array([], dtype=int))


class TestLossBoundary:
    def test_oracle_gate_is_zero(self, oracle_sweep, problem):
        snap = oracle_sweep.snapshots[30]
        assert loss_boundary(snap.phi, snap.v_gate, problem.gate_nodes) == 0.0

    def test_uniform_offset(self, problem):
        phi = np.zeros(problem.mesh.n_nodes)
        phi[problem.gate_nodes] = 0.51
        assert loss_boundary(phi, 0.5, problem.gate_nodes) == pytest.approx(1e-4)


class TestLossFd:
    def test_exact_zero_on_oracle_snapshot(self, oracle_sweep, problem):
        # shared closure: the oracle's n is electron_density(phi) bit for bit
        for snap in (oracle_sweep.snapshots[0], oracle_sweep.snapshots[100]):
            n_tilde = surrogate.normalize_density(snap.n)
            assert loss_fd(n_tilde, snap.phi, problem.params, problem.mesh) == 0.0

    def test_one_decade_at_one_node(self, problem, params):
        mesh = problem.mesh
        phi = np.full(mesh.n_nodes, 0.2)
        from wirepinn import fermi
        n_tilde = surrogate.normalize_density(
            fermi.electron_density(phi, params, mesh.silicon_mask()))
        shifted = n_tilde.copy()
        shifted[5] *= 10.0
        expected = 1.0 / mesh.n_nodes
        assert loss_fd(shifted, phi, params, mesh) == pytest.approx(expected, rel=1e-9)

    def test_positive_when_inconsistent(self, problem, params):
        mesh = problem.mesh
        phi = np.full(mesh.n_nodes, 0.3)
        n_tilde = np.full(mesh.n_nodes, 0.5)
        assert loss_fd(n_tilde, phi, params, mesh) > 0.0


class TestFirewall:
    def test_rejects_surrogate_trained_beyond_cutoff(self, oracle_sweep, default_mesh, params):
        wide = surrogate.fit(oracle_sweep.snapshots[:60], default_mesh.fingerprint())
        with pytest.raises(ValueError, match="firewall"):
            PinnProblem(mesh=default_mesh, surrogate=wide, params=params)

    def test_accepts_canonical_surrogate(self, problem):
        assert problem.surrogate.meta.bias_max <= 0.30

    def test_rejects_foreign_mesh(self, small_surrogate, default_mesh, params):
        with pytest.raises(ValueError, match="mesh"):
            PinnProblem(mesh=default_mesh, surrogate=small_surrogate, params=params)


class TestFixedPoint:
    def test_teacher_forced_training_snapshot(self, problem, oracle_sweep):
        l1, l2, total = teacher_forced_losses(problem, oracle_sweep.snapshots[20])
        assert l2 <= 1e-12
        assert total <= l1 + 1e-12

    def test_teacher_forced_out_of_range(self, problem, oracle_sweep, default_mesh):
        # loss1 at ground truth equals the squared surrogate gate error
        stats = surrogate.scatter_stats(problem.surrogate, oracle_sweep, default_mesh.gate_nodes())
        gate_err_sq = float(np.max(stats["gate_err"] ** 2))
        l1, l2, _ = teacher_forced_losses(problem, oracle_sweep.snapshots[100])
        assert l1 <= 4.0 * gate_err_sq + 1e-12
        assert l2 <= 1e-3  # surrogate error through the steep closure, small but nonzero


class TestSurrogateFactorization:
    def test_surrogate_phi_matches_predict_phi(self, problem, rng):
        sur = problem.surrogate
        x = rng.uniform(0.0, 5.0, size=problem.mesh.n_nodes)
        assert np.array_equal(surrogate.predict_phi(sur, x), sur.left @ (sur.right @ x) + sur.intercept)
        # the training graph's potential is predict_phi of its n_tilde
        net = ad.GeneratorNet(n_out=problem.mesh.n_nodes, hidden=(8, 16), seed=2)
        l1, l2, total, n_tilde, _ = problem.build_losses(net, 0.4)
        phi = surrogate.predict_phi(sur, n_tilde)
        assert l1 == loss_boundary(phi, 0.4, problem.gate_nodes)
        assert l2 == loss_fd(n_tilde, phi, problem.params, problem.mesh)
        assert total == l1 + l2


class TestTrainingGradient:
    @pytest.mark.parametrize("w_boundary, w_fd", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                             ids=["boundary", "fd", "both"])
    def test_matches_central_differences(self, small_problem, w_boundary, w_fd):
        # with both terms, phi and n_tilde each sum two gradient paths
        problem = PinnProblem(mesh=small_problem.mesh, surrogate=small_problem.surrogate,
                              params=small_problem.params, w_boundary=w_boundary, w_fd=w_fd)
        net = ad.GeneratorNet(n_out=problem.mesh.n_nodes, hidden=(8, 16), seed=11)
        _, _, f0, _, g_raw = problem.build_losses(net, 0.5)
        net.backward(g_raw)
        grads = [p.grad.copy() for p in net.params]
        rng = np.random.default_rng(5)
        h = 1e-6
        # central differences lose about eps * |f| / h to rounding
        atol = 1e-8 * abs(f0)
        for p, g in zip(net.params, grads):  # every layer's W and b
            for _ in range(4):
                idx = np.unravel_index(int(rng.integers(p.value.size)), p.value.shape)
                keep = p.value[idx]
                p.value[idx] = keep + h
                f_plus = problem.build_losses(net, 0.5)[2]
                p.value[idx] = keep - h
                f_minus = problem.build_losses(net, 0.5)[2]
                p.value[idx] = keep
                fd = (f_plus - f_minus) / (2 * h)
                assert abs(g[idx] - fd) <= 1e-4 * max(abs(g[idx]), abs(fd)) + atol, (p.value.shape, idx)


@pytest.mark.slow
class TestSolveBias:
    def test_short_run_decreases_loss(self, small_problem, small_sweep):
        # the coarse fixture mesh has a stiff surrogate, so only the
        # mechanics are asserted here; no test in this suite checks
        # accuracy on the canonical mesh, the perfbench solve workload
        # gates it
        result = solve_bias(small_problem, 0.45, SolveOptions(epochs=4000, seed=42))
        assert np.all(np.isfinite(result.history))
        assert result.best_loss < 0.01 * result.history[0, 4]
        snap = small_sweep.snapshot_at(0.45)
        report = evaluate_against(result.prediction, snap, gate_nodes=small_problem.gate_nodes)
        assert np.isfinite(report.max_phi_err_pct)

    def test_checkpoints_recorded(self, small_problem):
        result = solve_bias(small_problem, 0.3, SolveOptions(epochs=300, seed=1,
                                                             checkpoints=(100, 300)))
        assert sorted(result.checkpoints) == [100, 300]
        assert np.array_equal(result.checkpoints[300].phi, result.prediction.phi)

    def test_determinism_bitwise(self, small_problem):
        a = solve_bias(small_problem, 0.6, SolveOptions(epochs=400, seed=7))
        b = solve_bias(small_problem, 0.6, SolveOptions(epochs=400, seed=7))
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.prediction.phi, b.prediction.phi)

    def test_checkpoint_equals_shorter_run(self, small_problem):
        full = solve_bias(small_problem, 0.5, SolveOptions(epochs=400, seed=3, checkpoints=(250,)))
        short = solve_bias(small_problem, 0.5, SolveOptions(epochs=250, seed=3))
        assert np.array_equal(full.checkpoints[250].phi, short.prediction.phi)

    def test_insane_bias_rejected(self, small_problem):
        for v_gate in (5.0, -0.02):
            with pytest.raises(ValueError, match=r"\[-0\.01, 1\] V"):
                solve_bias(small_problem, v_gate, SolveOptions(epochs=10))

    def test_progress_line_reports_rate_and_eta(self, small_problem, caplog):
        with caplog.at_level("INFO", logger="wirepinn.pinn"):
            solve_bias(small_problem, 0.3, SolveOptions(epochs=20, seed=1, log_every=10))
        lines = [r.getMessage() for r in caplog.records if r.name == "wirepinn.pinn"]
        assert len(lines) == 2
        assert all("epoch/s" in line and "ETA" in line for line in lines)
        assert lines[0].split("step ")[1].startswith("10/20")
        assert lines[1].endswith("ETA 0 s")


@pytest.mark.slow
class TestSweepSolve:
    def test_reports_and_probe(self, small_problem, small_sweep):
        biases = [0.0, 0.375, 0.75]
        results = sweep_solve(small_problem, biases, SolveOptions(epochs=1500, seed=42))
        assert len(results) == 3
        assert not any(isinstance(r, DivergedError) for r in results)
        probe = nearest_node(small_problem.mesh, 0.0405, 0.002)
        reports, probe_rows = [], []
        for v, result in zip(biases, results):
            snap = small_sweep.snapshot_at(v)
            pred = result.prediction
            reports.append(evaluate_against(pred, snap, gate_nodes=small_problem.gate_nodes))
            probe_rows.append((v, snap.phi[probe], pred.phi[probe], snap.n[probe], pred.n[probe]))
        assert all(r is not None for r in reports)
        assert all(r.max_phi_err_pct >= 0.0 and r.max_logn_err_pct >= 0.0 for r in reports)
        assert np.array(probe_rows).shape == (3, 5)

    def test_sweep_equals_solo(self, small_problem):
        opts = SolveOptions(epochs=300, seed=9)
        biases = [0.2, 0.6]
        sweep = sweep_solve(small_problem, biases, opts)
        for v_gate, result in zip(biases, sweep):
            solo = solve_bias(small_problem, v_gate, opts)
            assert np.array_equal(result.prediction.phi, solo.prediction.phi)
            assert np.array_equal(result.prediction.n, solo.prediction.n)
            assert np.array_equal(result.history, solo.history)

    def test_records_divergence(self, small_problem, monkeypatch):
        real_solve = pinn.solve_bias

        def solve_or_diverge(problem, v_gate, opts):
            if v_gate == 0.6:
                raise DivergedError(f"forced at V_G={v_gate}", step=3, history=np.zeros((3, 5)))
            return real_solve(problem, v_gate, opts)

        monkeypatch.setattr(pinn, "solve_bias", solve_or_diverge)
        results = sweep_solve(small_problem, [0.2, 0.6, 0.3], SolveOptions(epochs=20, seed=9))
        assert isinstance(results[1], DivergedError) and "forced" in str(results[1])
        assert results[1].step == 3 and np.array_equal(results[1].history, np.zeros((3, 5)))
        assert results[0].prediction.v_gate == 0.2 and results[2].prediction.v_gate == 0.3


class TestSweepSolveRange:
    def test_out_of_range_bias_rejected_before_training(self, small_problem, monkeypatch):
        calls = []
        monkeypatch.setattr(pinn, "solve_bias", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"v_gate 5.0 outside the sane \[-0.01, 1\] V range"):
            sweep_solve(small_problem, [0.2, 5.0], SolveOptions(epochs=20, seed=9))
        assert calls == []


class TestEvaluateAgainst:
    def test_identical_fields_zero(self, oracle_sweep, problem):
        snap = oracle_sweep.snapshots[80]
        report = evaluate_against(snap, snap, gate_nodes=problem.gate_nodes)
        assert report.max_phi_err_pct == 0.0
        assert report.max_logn_err_pct == 0.0

    def test_single_node_perturbation_definition(self, oracle_sweep, problem):
        snap = oracle_sweep.snapshots[80]
        scale = float(np.max(np.abs(snap.phi)))
        phi = snap.phi.copy()
        phi[1234] += 0.003 * scale
        from wirepinn.oracle import Snapshot
        pred = Snapshot(v_gate=snap.v_gate, phi=phi, n=snap.n)
        report = evaluate_against(pred, snap)
        assert report.max_phi_err_pct == pytest.approx(0.3, rel=1e-9)

    def test_mesh_mismatch_rejected(self, oracle_sweep, small_sweep):
        with pytest.raises(ValueError):
            evaluate_against(oracle_sweep.snapshots[0], small_sweep.snapshots[0])

    def test_negative_percentages_impossible(self, oracle_sweep):
        report = evaluate_against(oracle_sweep.snapshots[1], oracle_sweep.snapshots[2])
        assert report.max_phi_err_pct >= 0.0
        assert report.max_logn_err_pct >= 0.0
