import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wirepinn import dataset_io as dio
from wirepinn import pinn, surrogate
from wirepinn.mesh import DeviceConfig, build_device_mesh
from wirepinn.oracle import Snapshot, SweepDataset, ramp_sweep


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
        assert loaded.mesh_fingerprint == mesh.fingerprint()
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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_file_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            dio.write_csv(tmp_path / "t.csv", ["x"], [np.array([1.0])])
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "t.csv").st_mode) == mode


# Every float64, including -0.0, subnormals, +-max, infinities and NaN.
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), -float("nan")]


def _same(a, b) -> bool:
    """Value-exact equality: NaN equals NaN, and -0.0 differs from 0.0.

    A NaN's sign and payload are not compared: its text is always ``nan``.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    signed = ~np.isnan(a)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[signed]), np.signbit(b[signed])))


def _column(shape):
    return arrays(np.float64, shape, elements=st.floats())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


class TestRenderer:
    def test_nonfinite_text_matches_fmt(self):
        values = np.array(EDGES)
        assert dio._rows([values], ",") == [dio._fmt(v) for v in EDGES]
        assert dio._rows([values[-4:]], ",") == ["inf", "-inf", "nan", "nan"]

    def test_integer_and_string_columns(self):
        rows = dio._rows([np.array([3, -4]), ["a", "b"], np.array([0.5, -0.0])], " ")
        assert rows == ["3 a 0.5", "-4 b -0.0"]


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(phi=_column(63), n=_column(63), v_gate=st.floats(), residual=st.floats(),
           iterations=st.integers(0, 10**6), converged=st.booleans())
    @example(phi=np.full(63, -0.0), n=np.resize(np.array(EDGES), 63), v_gate=-0.0,
             residual=float("nan"), iterations=0, converged=False)
    def test_sweep(self, tiny, scratch, phi, n, v_gate, residual, iterations, converged):
        mesh, sweep = tiny
        snap = Snapshot(v_gate=v_gate, phi=phi, n=n, converged=converged,
                        residual_norm=residual, newton_iterations=iterations)
        ds = SweepDataset(snapshots=[snap], mesh_fingerprint=mesh.fingerprint(), params=sweep.params)
        dio.write_sweep(ds, mesh, scratch / "sweep.txt")
        back = dio.read_sweep(scratch / "sweep.txt", mesh).snapshots[0]
        assert _same(back.v_gate, v_gate) and _same(back.residual_norm, residual)
        assert _same(back.phi, phi) and _same(back.n, n)
        assert back.converged == converged and back.newton_iterations == iterations

    @settings(max_examples=40, deadline=None)
    @given(values=_column(9), per_node=_column((63, 2)), epochs=st.integers(0, 10**9))
    @example(values=np.array(EDGES), per_node=np.resize(np.array(EDGES), (63, 2)), epochs=0)
    def test_report(self, tiny, scratch, values, per_node, epochs):
        mesh, _ = tiny
        report = pinn.ErrorReport(
            v_gate=values[0], max_phi_err_pct=abs(values[1]), max_logn_err_pct=abs(values[2]),
            phi_err_pct=per_node[:, 0], logn_err_pct=per_node[:, 1], epochs=epochs,
            final_loss_boundary=values[3], final_loss_fd=values[4], final_loss_total=values[5],
            v_gate_extracted=values[6],
        )
        dio.write_report(report, mesh, scratch / "report.txt")
        scalars, back = dio.read_report(scratch / "report.txt")
        assert scalars["epochs"] == epochs
        for key in ("v_gate", "max_phi_err_pct", "max_logn_err_pct", "final_loss_boundary",
                    "final_loss_fd", "final_loss_total", "v_gate_extracted"):
            assert _same(scalars[key], getattr(report, key))
        assert _same(back, per_node)

    @settings(max_examples=40, deadline=None)
    @given(losses=_column((12, 4)), start=st.integers(0, 2**53 - 12))
    @example(losses=np.resize(np.array(EDGES), (12, 4)), start=0)
    def test_loss_history(self, scratch, losses, start):
        history = np.column_stack([np.arange(start, start + 12, dtype=float), losses])
        dio.write_loss_history(history, scratch / "hist.csv")
        assert _same(dio.read_loss_history(scratch / "hist.csv"), history)

    @settings(max_examples=40, deadline=None)
    @given(x=_column(10), y=_column(10), k=arrays(np.int64, 10))
    @example(x=np.resize(np.array(EDGES), 10), y=np.zeros(10), k=np.zeros(10, dtype=np.int64))
    def test_csv(self, scratch, x, y, k):
        dio.write_csv(scratch / "t.csv", ["x", "k", "y"], [x, k, y])
        lines = (scratch / "t.csv").read_text().splitlines()
        assert lines[0] == "x,k,y"
        fields = [line.split(",") for line in lines[1:]]
        assert [int(f[1]) for f in fields] == k.tolist()
        assert _same([float(f[0]) for f in fields], x)
        assert _same([float(f[2]) for f in fields], y)
