import numpy as np
import pytest

from wirepinn import surrogate
from wirepinn.surrogate import fit, normalize_density, predict_phi, scatter_stats


class TestNormalize:
    def test_zero_density(self):
        assert normalize_density(0.0) == pytest.approx(1e-9)

    def test_scale_point(self):
        assert normalize_density(1e19) == pytest.approx(1.0 + 1e-9)

    def test_contact_level(self):
        assert normalize_density(1e20) == pytest.approx(10.000000001)

    def test_round_trip(self, rng):
        n = rng.uniform(0, 1e20, size=50)
        back = surrogate.denormalize_density(normalize_density(n))
        assert np.allclose(back, n, rtol=1e-12, atol=1e-3)


class TestFit:
    def test_training_set_interpolated(self, oracle_sweep, lr_surrogate):
        worst = 0.0
        for snap in oracle_sweep.snapshots[:40]:
            pred = predict_phi(lr_surrogate, normalize_density(snap.n))
            worst = max(worst, float(np.max(np.abs(pred - snap.phi))))
        assert worst <= 1e-6

    def test_duplicating_a_snapshot_changes_nothing_in_sample(self, oracle_sweep, default_mesh):
        base = fit(oracle_sweep.snapshots[:10], default_mesh.fingerprint())
        doubled = fit(oracle_sweep.snapshots[:10] + [oracle_sweep.snapshots[5]],
                      default_mesh.fingerprint())
        for snap in oracle_sweep.snapshots[:10]:
            x = normalize_density(snap.n)
            delta = np.max(np.abs(predict_phi(base, x) - predict_phi(doubled, x)))
            assert delta <= 1e-9

    def test_out_of_range_prediction_quality(self, oracle_sweep, lr_surrogate):
        stats = scatter_stats(lr_surrogate, oracle_sweep)
        assert stats["r2"] >= 0.9999
        # regression lock for the measured out-of-range ceiling (worst at V_G=0.75)
        assert stats["max_abs_err"] <= 1.5e-3

    def test_metadata_records_training_slice(self, lr_surrogate):
        meta = lr_surrogate.meta
        assert meta.n_snapshots == 40
        assert meta.bias_min == 0.0
        assert meta.bias_max == pytest.approx(0.2925)

    def test_empty_input_rejected(self, default_mesh):
        with pytest.raises(ValueError):
            fit([], default_mesh.fingerprint())

    def test_mesh_fingerprint_required(self, oracle_sweep):
        with pytest.raises(TypeError, match="mesh_fingerprint"):
            fit(oracle_sweep.snapshots[:10])

    def test_mismatched_meshes_rejected(self, oracle_sweep, small_sweep, default_mesh):
        with pytest.raises(ValueError, match="mesh size"):
            fit([oracle_sweep.snapshots[0], small_sweep.snapshots[0]], default_mesh.fingerprint())

    def test_single_snapshot_warns_low_rank(self, oracle_sweep, default_mesh, caplog):
        with caplog.at_level("WARNING"):
            sur = fit(oracle_sweep.snapshots[:1], default_mesh.fingerprint())
        assert any("rank" in r.message for r in caplog.records)
        x = normalize_density(oracle_sweep.snapshots[0].n)
        assert np.max(np.abs(predict_phi(sur, x) - oracle_sweep.snapshots[0].phi)) <= 1e-9


    def test_fit_is_numpys_svd_and_products(self, small_sweep, small_mesh):
        # the fit's factors are the numpy expressions', bit for bit
        snaps = small_sweep.snapshots[:40]
        x = np.stack([normalize_density(s.n) for s in snaps])
        y = np.stack([s.phi for s in snaps])
        u, sv, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        keep = sv > surrogate.RCOND * sv[0]
        left = (y - y.mean(axis=0)).T @ u[:, keep] / sv[keep]
        right = vt[keep]
        intercept = y.mean(axis=0) - left @ (right @ x.mean(axis=0))

        sur = fit(snaps, small_mesh.fingerprint())
        for got, want in ((sur.left, left), (sur.right, right), (sur.intercept, intercept)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPredict:
    def test_affine_superposition_identity(self, oracle_sweep, lr_surrogate, rng):
        x1 = normalize_density(oracle_sweep.snapshots[10].n)
        x2 = normalize_density(oracle_sweep.snapshots[90].n)
        p1 = predict_phi(lr_surrogate, x1)
        p2 = predict_phi(lr_surrogate, x2)
        for alpha in rng.uniform(0.0, 1.0, size=5):
            mixed = predict_phi(lr_surrogate, alpha * x1 + (1 - alpha) * x2)
            expected = alpha * p1 + (1 - alpha) * p2
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(mixed - expected)) <= 1e-9 * max(scale, 1.0)

    def test_shape_contract(self, lr_surrogate):
        with pytest.raises(ValueError, match="shape"):
            predict_phi(lr_surrogate, np.ones(7))

    def test_gate_boundary_recovery(self, oracle_sweep, lr_surrogate, default_mesh):
        stats = scatter_stats(lr_surrogate, oracle_sweep, default_mesh.gate_nodes())
        # measured ceiling, regression-locked: gate means track V_G to sub-mV
        assert np.max(np.abs(stats["gate_err"])) <= 1.5e-3

    def test_per_snapshot_errors_finite_and_reported(self, oracle_sweep, lr_surrogate):
        stats = scatter_stats(lr_surrogate, oracle_sweep)
        assert len(stats["per_snapshot_max_err"]) == 101
        assert np.all(np.isfinite(stats["per_snapshot_max_err"]))

    def test_scatter_stats_is_the_plain_expressions(self, small_sweep, small_surrogate, small_mesh):
        # the in-place scratch reduces the same values in the same shapes
        snaps, gates = small_sweep.snapshots, small_mesh.gate_nodes()
        preds = np.stack([predict_phi(small_surrogate, normalize_density(s.n)) for s in snaps])
        truth = np.stack([s.phi for s in snaps])
        resid = preds - truth
        stats = scatter_stats(small_surrogate, small_sweep, gates)
        assert stats["r2"] == 1.0 - float(np.sum(resid**2)) / float(np.sum((truth - truth.mean()) ** 2))
        assert stats["max_abs_err"] == float(np.max(np.abs(resid)))
        for name, want in (("per_snapshot_max_err", np.max(np.abs(resid), axis=1)), ("predictions", preds),
                           ("gate_err", preds[:, gates].mean(axis=1) - small_sweep.biases)):
            assert stats[name].shape == want.shape and stats[name].tobytes() == want.tobytes()

    def test_scatter_stats_holds_predictions_and_one_scratch(self, small_sweep, small_surrogate, small_mesh,
                                                             traced_peak):
        # two sweep-sized arrays, 1.0x the sweep's phi and n bytes: measured
        # 1.04x on 17x8 (the rest is one snapshot's temporaries); the bound
        # leaves 0.06x
        field_bytes = 2 * len(small_sweep) * small_mesh.n_nodes * 8
        peak = traced_peak(lambda: scatter_stats(small_surrogate, small_sweep, small_mesh.gate_nodes()))
        assert peak <= 1.1 * field_bytes
