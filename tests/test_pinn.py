import dataclasses
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from wirepinn import autodiff as ad
from wirepinn import fermi, pinn, surrogate
from wirepinn.mesh import nearest_node
from wirepinn.pinn import (
    DivergedError,
    PinnProblem,
    SolveOptions,
    evaluate_against,
    gate_voltage,
    postprocess,
    solve_bias,
    sweep_solve,
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
    def test_oracle_gate_is_zero(self, oracle_sweep, problem, fixed_phi):
        snap = oracle_sweep.snapshots[30]
        losses = fixed_phi(problem, snap.phi).build_losses(surrogate.normalize_density(snap.n), snap.v_gate)
        assert losses[0] == 0.0

    def test_uniform_offset(self, problem, fixed_phi):
        phi = np.zeros(problem.mesh.n_nodes)
        phi[problem.gate_nodes] = 0.51
        n_tilde = np.ones(problem.mesh.n_nodes)
        assert fixed_phi(problem, phi).build_losses(n_tilde, 0.5)[0] == pytest.approx(1e-4)


class TestLossFd:
    def test_exact_zero_on_oracle_snapshot(self, oracle_sweep, problem, fixed_phi):
        # shared closure: the oracle's n is electron_density(phi) bit for bit
        for snap in (oracle_sweep.snapshots[0], oracle_sweep.snapshots[100]):
            n_tilde = surrogate.normalize_density(snap.n)
            assert fixed_phi(problem, snap.phi).build_losses(n_tilde, snap.v_gate)[1] == 0.0

    def test_one_decade_at_one_node(self, problem, params, fixed_phi):
        mesh = problem.mesh
        phi = np.full(mesh.n_nodes, 0.2)
        n_tilde = surrogate.normalize_density(
            fermi.electron_density(phi, params, mesh.silicon_mask())[0])
        shifted = n_tilde.copy()
        shifted[5] *= 10.0
        expected = 1.0 / mesh.n_nodes
        assert fixed_phi(problem, phi).build_losses(shifted, 0.2)[1] == pytest.approx(expected, rel=1e-9)

    def test_positive_when_inconsistent(self, problem, fixed_phi):
        mesh = problem.mesh
        phi = np.full(mesh.n_nodes, 0.3)
        n_tilde = np.full(mesh.n_nodes, 0.5)
        assert fixed_phi(problem, phi).build_losses(n_tilde, 0.3)[1] > 0.0


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

    def test_rejects_empty_fingerprint(self, small_sweep, small_mesh, params):
        # a model that names no mesh is not taken as fitted on this one
        unnamed = surrogate.fit(small_sweep.snapshots[:40], "")
        with pytest.raises(ValueError, match="different mesh"):
            PinnProblem(mesh=small_mesh, surrogate=unnamed, params=params)


class TestFixedPoint:
    def test_teacher_forced_training_snapshot(self, problem, oracle_sweep):
        s = oracle_sweep.snapshots[20]
        l1, l2, total = problem.build_losses(surrogate.normalize_density(s.n), s.v_gate)[:3]
        assert l2 <= 1e-12
        assert total <= l1 + 1e-12

    def test_teacher_forced_out_of_range(self, problem, oracle_sweep, default_mesh):
        # loss1 at ground truth equals the squared surrogate gate error
        stats = surrogate.scatter_stats(problem.surrogate, oracle_sweep, default_mesh.gate_nodes())
        gate_err_sq = float(np.max(stats["gate_err"] ** 2))
        s = oracle_sweep.snapshots[100]
        l1, l2, _ = problem.build_losses(surrogate.normalize_density(s.n), s.v_gate)[:3]
        assert l1 <= 4.0 * gate_err_sq + 1e-12
        assert l2 <= 1e-3  # surrogate error through the steep closure, small but nonzero


class TestSurrogateFactorization:
    def test_surrogate_phi_matches_predict_phi(self, problem, rng):
        sur = problem.surrogate
        x = rng.uniform(0.0, 5.0, size=problem.mesh.n_nodes)
        assert np.array_equal(surrogate.predict_phi(sur, x), sur.left @ (sur.right @ x) + sur.intercept)
        # the losses are taken at predict_phi of their n_tilde
        net = ad.GeneratorNet(n_out=problem.mesh.n_nodes, hidden=(8, 16), seed=2)
        n_tilde = postprocess(net.forward(0.4 / pinn.V_GATE_SCALE))
        l1, l2, total, _ = problem.build_losses(n_tilde, 0.4)
        phi = surrogate.predict_phi(sur, n_tilde)
        assert l1 == np.mean((phi[problem.gate_nodes] - 0.4) ** 2)
        n_fd = fermi.electron_density(phi, problem.params, problem.mesh.silicon_mask())[0]
        assert l2 == np.mean((np.log10((n_fd + 1e10) / 1e19) - np.log10(n_tilde)) ** 2)
        assert total == l1 + l2


def _assert_gradient_matches_fd(problem, net, dense_grads, entries, h, f_slack):
    """Raise AssertionError unless the hand-written gradient of the total
    loss at 0.5 V matches a central difference with step ``h`` at every
    ``(parameter index, entry)`` of ``entries``, to 1e-4 relative plus
    ``f_slack * |f0|`` absolute (rounding costs the difference about
    eps * |f0| / h).  ``net`` holds float64 values."""
    def losses():
        return problem.build_losses(postprocess(net.forward(0.5 / pinn.V_GATE_SCALE)), 0.5)

    _, _, f0, g = losses()
    net.backward(g)
    grads = dense_grads(net)
    atol = f_slack * abs(f0)
    for li, idx in entries:
        values = net.params[li].value
        keep = values[idx]
        values[idx] = keep + h
        f_plus = losses()[2]
        values[idx] = keep - h
        f_minus = losses()[2]
        values[idx] = keep
        fd = (f_plus - f_minus) / (2 * h)
        an = grads[li][idx]
        assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd)) + atol, (values.shape, idx, an, fd)


def _small_net(problem, float64_net):
    return float64_net(ad.GeneratorNet(n_out=problem.mesh.n_nodes, hidden=(8, 16), seed=11))


def _per_layer_entries(net, per_layer=4):
    """``per_layer`` random entries of every layer's W and b."""
    rng = np.random.default_rng(5)
    return [(li, np.unravel_index(int(rng.integers(p.value.size)), p.value.shape))
            for li, p in enumerate(net.params) for _ in range(per_layer)]


class TestTrainingGradient:
    @pytest.mark.parametrize("w_boundary, w_fd", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                             ids=["boundary", "fd", "both"])
    def test_matches_central_differences(self, small_problem, w_boundary, w_fd, float64_net,
                                         dense_grads):
        # with both terms, phi and n_tilde each sum two gradient paths
        problem = dataclasses.replace(small_problem, w_boundary=w_boundary, w_fd=w_fd)
        net = _small_net(problem, float64_net)
        _assert_gradient_matches_fd(problem, net, dense_grads, _per_layer_entries(net), h=1e-6, f_slack=1e-8)

    def test_composed_loss_purely_relative(self, small_problem, float64_net, dense_grads):
        # both losses, 50 entries drawn across all layers, and no absolute
        # slack (f0 = 858 here, so 1e-8 * |f0| would allow 8.6e-6).  With
        # the smallest sampled gradient at 1.6e-3, rounding costs about
        # 1.1e-5 relative at h = 1e-5 and 1.1e-4 at 1e-6.  Measured worst
        # 5.2e-6.
        net = _small_net(small_problem, float64_net)
        rng = np.random.default_rng(5)
        entries = []
        for _ in range(50):
            li = int(rng.integers(len(net.params)))
            values = net.params[li].value
            entries.append((li, np.unravel_index(int(rng.integers(values.size)), values.shape)))
        _assert_gradient_matches_fd(small_problem, net, dense_grads, entries, h=1e-5, f_slack=0.0)

    def test_fails_under_skewed_derivative(self, small_problem, float64_net, dense_grads,
                                           skewed_derivative):
        # the fd term alone: under the fault 18 of its 24 entries fail, the
        # worst at 5.4e-2 relative; with the boundary term added only one
        # fails, at 1.27e-4, too near the 1e-4 bound to rely on
        problem = dataclasses.replace(small_problem, w_boundary=0.0, w_fd=1.0)
        net = _small_net(problem, float64_net)
        with pytest.raises(AssertionError):
            _assert_gradient_matches_fd(problem, net, dense_grads, _per_layer_entries(net),
                                        h=1e-6, f_slack=1e-8)

    def test_float32_backward_matches_float64(self, problem, float64_net, dense_grads):
        # the generator's float32 gradients against the same passes in
        # float64 at the same rounded parameters, each array's worst error
        # relative to its largest entry.  Measured on this problem at
        # seeds 1, 2, 3, 11 and 42 and these biases: at most 7.4e-7, about
        # 6 float32 ulps; the bound leaves a 2.7x margin.
        def grads(net, v_gate):
            n_tilde = postprocess(net.forward(v_gate / pinn.V_GATE_SCALE))
            net.backward(problem.build_losses(n_tilde, v_gate)[3])
            return dense_grads(net)

        for v_gate in (0.15, 0.5, 0.75):
            net32 = ad.GeneratorNet(n_out=problem.mesh.n_nodes, seed=42)
            net64 = float64_net(ad.GeneratorNet(n_out=problem.mesh.n_nodes, seed=42))
            for g32, g64 in zip(grads(net32, v_gate), grads(net64, v_gate)):
                assert g32.dtype == np.float32 and g64.dtype == np.float64
                assert np.max(np.abs(g32 - g64)) <= 2e-6 * np.max(np.abs(g64)), v_gate


class TestSolveOptions:
    @pytest.mark.parametrize("kwargs, field", [
        ({"epochs": 0}, "epochs"),
        ({"epochs": 100, "checkpoints": (200, 0)}, "checkpoints"),
        ({"epochs": 100, "checkpoints": (0,)}, "checkpoints"),
        ({"log_every": -1}, "log_every"),
    ])
    def test_options_check_their_fields(self, kwargs, field):
        # a checkpoint outside the budget would only fail later, as a KeyError
        with pytest.raises(ValueError, match=field):
            SolveOptions(**kwargs)


@pytest.mark.slow
class TestSolveBias:
    def test_short_run_decreases_loss(self, small_problem, small_sweep):
        # the coarse fixture mesh has a stiff surrogate, so only the
        # mechanics are asserted here; test_acceptance.py checks accuracy
        # on the canonical mesh
        result = solve_bias(small_problem, 0.45, SolveOptions(epochs=4000, seed=42))
        assert np.all(np.isfinite(result.history))
        assert result.best_loss < 0.01 * result.history[0, 4]
        snap = small_sweep.snapshot_at(0.45)
        report = evaluate_against(result.prediction, snap, gate_nodes=small_problem.gate_nodes)
        assert np.isfinite(report.max_phi_err_pct)

    def test_two_runs_bit_equal(self, small_problem):
        # the BLAS calls of the forward, backward and Adam are deterministic
        a, b = (solve_bias(small_problem, 0.3, SolveOptions(epochs=200, seed=3)) for _ in range(2))
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.prediction.phi, b.prediction.phi)
        assert np.array_equal(a.prediction.n, b.prediction.n)

    def test_one_closure_call_per_epoch(self, small_problem, monkeypatch):
        # n and dn/dphi come from one evaluation of the closure, and of F_1/2 under it
        calls = {"electron_density": 0, "fermi_half": 0}
        for name in calls:
            def counted(*args, _real=getattr(fermi, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(fermi, name, counted)
        solve_bias(small_problem, 0.3, SolveOptions(epochs=5, seed=1))
        assert calls == {"electron_density": 5, "fermi_half": 5}

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
        assert sorted(full.checkpoints) == [250, 400] and full.checkpoints[400] is full.prediction

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

    def test_sweep_equals_solo(self, small_problem, two_workers):
        opts = SolveOptions(epochs=300, seed=9)
        biases = [0.2, 0.6]
        sweep = sweep_solve(small_problem, biases, opts)
        for v_gate, result in zip(biases, sweep):
            solo = solve_bias(small_problem, v_gate, opts)
            assert np.array_equal(result.prediction.phi, solo.prediction.phi)
            assert np.array_equal(result.prediction.n, solo.prediction.n)
            assert np.array_equal(result.history, solo.history)

    def test_records_divergence(self, small_problem, diverging_problem, two_workers):
        problem = diverging_problem(mesh=small_problem.mesh, surrogate=small_problem.surrogate,
                                    params=small_problem.params, diverge_at=0.6, history=np.zeros((3, 5)))
        results = sweep_solve(problem, [0.2, 0.6, 0.3], SolveOptions(epochs=20, seed=9))
        assert isinstance(results[1], DivergedError) and "forced" in str(results[1])
        assert results[1].step == 3 and np.array_equal(results[1].history, np.zeros((3, 5)))
        assert results[0].prediction.v_gate == 0.2 and results[2].prediction.v_gate == 0.3

    def test_dead_worker_names_its_bias(self, small_problem, dying_problem, two_workers):
        problem = dying_problem(mesh=small_problem.mesh, surrogate=small_problem.surrogate,
                                params=small_problem.params, die_at=0.6)
        raised = []

        def sweep():
            try:
                sweep_solve(problem, [0.2, 0.6, 0.3], SolveOptions(epochs=2000, seed=9))
            except RuntimeError as exc:
                raised.append(exc)

        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "sweep_solve hung on a dead worker"
        assert len(raised) == 1
        assert str(raised[0]) == "the worker solving V_G=0.6 died (exit code 70)"

    def test_worker_progress_is_logged(self, small_problem, two_workers, caplog):
        with caplog.at_level("INFO", logger="wirepinn.pinn"):
            sweep_solve(small_problem, [0.2, 0.6], SolveOptions(epochs=20, seed=9, log_every=10))
        lines = sorted(r.getMessage().split(" lr=")[0] for r in caplog.records if r.name == "wirepinn.pinn")
        assert lines == ["V_G=0.2000 step 10/20", "V_G=0.2000 step 20/20",
                         "V_G=0.6000 step 10/20", "V_G=0.6000 step 20/20"]

    def test_one_worker_spawns_nothing(self, small_problem, monkeypatch):
        # one bias, or one CPU, solves in this process
        def no_pool(method):
            raise AssertionError("spawned a worker")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        opts = SolveOptions(epochs=20, seed=9)
        (single,) = sweep_solve(small_problem, [0.2], opts)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pair = sweep_solve(small_problem, [0.2, 0.6], opts)
        assert np.array_equal(single.history, pair[0].history)
        assert pair[1].prediction.v_gate == 0.6


class TestDivergedError:
    def test_pickles_with_step_and_history(self):
        history = np.arange(15.0).reshape(3, 5)
        exc = pickle.loads(pickle.dumps(DivergedError("loss diverged at step 3", step=3, history=history)))
        assert isinstance(exc, DivergedError) and str(exc) == "loss diverged at step 3"
        assert exc.step == 3 and np.array_equal(exc.history, history)


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
