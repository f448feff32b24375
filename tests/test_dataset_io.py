import numpy as np
import pytest

from wirepinn import dataset_io as dio
from wirepinn import pinn, surrogate
from wirepinn.mesh import DeviceConfig, build_device_mesh
from wirepinn.oracle import SweepDataset, ramp_sweep


@pytest.fixture(scope="module")
def tiny(params):
    mesh = build_device_mesh(DeviceConfig(nx=9, ny=7))
    sweep = ramp_sweep(mesh, params, 0.0, 0.03, 0.0075)
    return mesh, sweep


class TestSweepFiles:
    def test_round_trip_bitwise(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.txt"
        dio.write_sweep(sweep, mesh, path)
        loaded = dio.read_sweep(path, mesh)
        assert loaded.mesh_fingerprint == sweep.mesh_fingerprint
        assert loaded.params == sweep.params
        for a, b in zip(loaded.snapshots, sweep.snapshots):
            assert a.v_gate == b.v_gate
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.n, b.n)
            assert np.array_equal(a.net_charge, b.net_charge)
            assert a.converged == b.converged
            assert a.residual_norm == b.residual_norm
            assert a.newton_iterations == b.newton_iterations

    def test_record_count(self, tiny, tmp_path, default_mesh, oracle_sweep):
        path = tmp_path / "full.txt"
        dio.write_sweep(oracle_sweep, default_mesh, path)
        with open(path) as fh:
            records = [l for l in fh if l.strip() and not l.startswith("#")]
        assert len(records) == 101 * 2193

    def test_truncated_file_reports_state(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.txt"
        dio.write_sweep(sweep, mesh, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[:-30]) + "\n")
        with pytest.raises(dio.SweepFormatError, match="truncated"):
            dio.read_sweep(tmp_path / "cut.txt", mesh)

    def test_malformed_row_names_line(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.txt"
        dio.write_sweep(sweep, mesh, path)
        lines = path.read_text().splitlines()
        lines[10] = "not a record at all"
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(dio.SweepFormatError, match=":11:"):
            dio.read_sweep(tmp_path / "bad.txt", mesh)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("something else\n")
        with pytest.raises(dio.SweepFormatError, match=":1:"):
            dio.read_sweep(path)

    def test_fingerprint_mismatch_rejected(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.txt"
        dio.write_sweep(sweep, mesh, path)
        other = build_device_mesh(DeviceConfig(nx=9, ny=7, length_nm=80.0))
        with pytest.raises(dio.SweepFormatError, match="fingerprint"):
            dio.read_sweep(path, other)

    def test_read_without_mesh(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.txt"
        dio.write_sweep(sweep, mesh, path)
        loaded = dio.read_sweep(path)
        assert loaded.snapshots[0].net_charge is None
        assert np.array_equal(loaded.snapshots[0].phi, sweep.snapshots[0].phi)


class TestModelContainer:
    def test_surrogate_round_trip(self, lr_surrogate, oracle_sweep, default_mesh, tmp_path):
        rank0 = surrogate.fit(oracle_sweep.snapshots[:1], default_mesh.fingerprint())
        assert rank0.right.shape[0] == 0
        for sur in (lr_surrogate, rank0):
            path = tmp_path / "sur.wpnn"
            dio.write_model(sur, path)
            loaded = dio.read_model(path)
            assert np.array_equal(loaded.left, sur.left)
            assert np.array_equal(loaded.right, sur.right)
            assert np.array_equal(loaded.intercept, sur.intercept)
            assert loaded.meta == sur.meta

    def test_surrogate_payload_size(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        n, k = lr_surrogate.left.shape
        payload = (2 * n * k + n) * 8
        assert path.stat().st_size > payload
        assert path.stat().st_size < payload + 4096  # header/metadata only

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.wpnn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(dio.ModelFormatError, match="magic"):
            dio.read_model(path)

    def test_wrong_version(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        blob = bytearray(path.read_bytes())
        for version in (99, 1):  # 1: the dense-matrix container of earlier releases
            blob[4] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(dio.ModelFormatError, match=f"version {version};.*fit-lr"):
                dio.read_model(path)

    def test_truncated_container(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(dio.ModelFormatError, match="truncated"):
            dio.read_model(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            dio.write_model({"not": "a model"}, tmp_path / "x.wpnn")


class TestReports:
    def _report(self, mesh):
        n = mesh.n_nodes
        return pinn.ErrorReport(
            v_gate=0.75, max_phi_err_pct=0.21, max_logn_err_pct=0.4,
            phi_err_pct=np.linspace(0, 0.21, n), logn_err_pct=np.linspace(0, 0.4, n),
            epochs=200000, final_loss_boundary=1e-9, final_loss_fd=2e-9,
            final_loss_total=3e-9, v_gate_extracted=0.7501,
        )

    def test_write_and_read(self, tiny, tmp_path):
        mesh, _ = tiny
        path = tmp_path / "report.txt"
        dio.write_report(self._report(mesh), mesh, path)
        text = path.read_text()
        assert "max_phi_err_pct" in text
        assert "epochs = 200000" in text
        scalars, per_node = dio.read_report(path)
        assert scalars["max_phi_err_pct"] == 0.21
        assert scalars["epochs"] == 200000
        assert per_node.shape == (mesh.n_nodes, 2)

    def test_zero_error_renders_zero(self, tiny, tmp_path):
        mesh, _ = tiny
        report = self._report(mesh)
        report.phi_err_pct = np.zeros(mesh.n_nodes)
        report.max_phi_err_pct = 0.0
        path = tmp_path / "zero.txt"
        dio.write_report(report, mesh, path)
        scalars, per_node = dio.read_report(path)
        assert scalars["max_phi_err_pct"] == 0.0
        assert np.all(per_node[:, 0] == 0.0)


class TestHistoryAndCsv:
    def test_loss_history_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        history = np.column_stack([
            np.arange(50), np.full(50, 1e-3),
            rng.uniform(size=50), rng.uniform(size=50), rng.uniform(size=50),
        ])
        path = tmp_path / "hist.csv"
        dio.write_loss_history(history, path)
        loaded = dio.read_loss_history(path)
        assert np.array_equal(loaded, history)

    def test_csv_round_trip_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        x = np.array([0.1, 0.2, 0.30000000000000004])
        y = np.array([1e-9, 2e20, -3.5])
        dio.write_csv(path, ["x", "y"], [x, y])
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,y"
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.array_equal(parsed[:, 0], x)
        assert np.array_equal(parsed[:, 1], y)

    def test_atomic_write_leaves_no_temp(self, tiny, tmp_path):
        mesh, sweep = tiny
        dio.write_sweep(sweep, mesh, tmp_path / "s.txt")
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".wirepinn-tmp-")]
        assert not leftovers
