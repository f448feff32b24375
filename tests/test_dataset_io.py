import json
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wirepinn import dataset_io as dio
from wirepinn import pinn, surrogate
from wirepinn.mesh import DeviceConfig, build_device_mesh
from wirepinn.oracle import Snapshot, SweepDataset, ramp_sweep


@pytest.fixture(scope="module")
def tiny(params):
    mesh = build_device_mesh(DeviceConfig(nx=9, ny=7))
    sweep = ramp_sweep(mesh, params, 0.0, 0.03, 0.0075)
    return mesh, sweep


def _edit_container(src, dst, drop=(), meta=None, **arrays):
    """Rewrite the container ``src`` to ``dst`` with names dropped, arrays
    replaced or added and meta keys changed."""
    kind, named, old_meta = dio._read_container(src)
    named.update(arrays)
    old_meta.update(meta or {})
    for name in drop:
        named.pop(name, None)
        old_meta.pop(name, None)
    dio._write_container(dst, kind, list(named.items()), old_meta)


class TestSweepFiles:
    def test_round_trip_bitwise(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.wpnn"
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

    def test_canonical_sweep_size(self, tmp_path, default_mesh, oracle_sweep):
        path = tmp_path / "full.wpnn"
        dio.write_sweep(oracle_sweep, default_mesh, path)
        kind, arrays, _ = dio._read_container(path)
        assert kind == "sweep"
        assert arrays["phi"].shape == arrays["n"].shape == (101, 2193)
        payload = (2 * 101 * 2193 + 4 * 101) * 8
        assert payload < path.stat().st_size < payload + 4096  # header/metadata only

    def test_truncated_file_reports_state(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(sweep, mesh, path)
        (tmp_path / "cut.wpnn").write_bytes(path.read_bytes()[:-30])
        with pytest.raises(dio.FormatError, match="cut.wpnn: truncated"):
            dio.read_sweep(tmp_path / "cut.wpnn", mesh)

    def test_malformed_arrays_name_file(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(sweep, mesh, path)
        k, n = len(sweep), mesh.n_nodes
        bad = tmp_path / "bad.wpnn"
        for edit, match in (
                (dict(iterations=np.full(k, 2.5)), "bad.wpnn: iterations holds values that are not whole"),
                (dict(converged=np.full(k, np.nan)), "bad.wpnn: converged holds values that are not whole"),
                (dict(phi=np.zeros((k, n - 1)), n=np.zeros((k, n - 1))),
                 f"bad.wpnn: {n - 1} nodes per snapshot, mesh has {n}"),
                (dict(phi=np.zeros((k - 1, n))),
                 r"bad.wpnn: array shapes do not fit one sweep \(biases \(5,\), phi \(4, 63\)"),
                (dict(residual_norm=np.zeros((k, 1))), "bad.wpnn: array shapes do not fit one sweep"),
                (dict(drop=("n", "v_t", "iterations")), "bad.wpnn: sweep container lacks n, iterations, v_t$"),
                (dict(biases=sweep.biases[::-1].copy()), "bad.wpnn: sweep biases must be strictly increasing"),
                (dict(meta={"n_c": -1.0}), "bad.wpnn: n_c must be positive"),
                (dict(meta={"v_t": None}), "bad.wpnn: float.. argument must be")):
            _edit_container(path, bad, **edit)
            with pytest.raises(dio.FormatError, match=match):
                dio.read_sweep(bad, mesh)

    def test_empty_sweep_refused(self, tiny, tmp_path):
        # every sweep the program writes holds at least one snapshot
        mesh, sweep = tiny
        empty = SweepDataset(snapshots=[], mesh_fingerprint=mesh.fingerprint(), params=sweep.params)
        with pytest.raises(ValueError, match="at least one snapshot"):
            dio.write_sweep(empty, mesh, tmp_path / "never.wpnn")
        assert not (tmp_path / "never.wpnn").exists()
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(sweep, mesh, path)
        _edit_container(path, tmp_path / "empty.wpnn", **{name: arr[:0] for name, arr in
                                                          dio._read_container(path)[1].items()})
        for read in (dio.read_container, dio.read_sweep):
            with pytest.raises(dio.FormatError, match="empty.wpnn: sweep holds no snapshots"):
                read(tmp_path / "empty.wpnn")

    def test_short_row_refused(self, tiny, tmp_path):
        # the rows are written as they are, so one of the wrong length
        # would leave a container whose header and bytes disagree
        mesh, sweep = tiny
        snaps = [Snapshot(v_gate=s.v_gate, phi=s.phi, n=s.n) for s in sweep.snapshots]
        snaps[-1] = Snapshot(v_gate=snaps[-1].v_gate, phi=snaps[-1].phi[:-1], n=snaps[-1].n)
        short = SweepDataset(snapshots=snaps, mesh_fingerprint=mesh.fingerprint(), params=sweep.params)
        with pytest.raises(ValueError, match="one value per node"):
            dio.write_sweep(short, mesh, tmp_path / "never.wpnn")
        assert not (tmp_path / "never.wpnn").exists()

    def test_wrong_header_rejected(self, tiny, lr_surrogate, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# wirepinn sweep v1\n")  # the text sweep of earlier releases
        with pytest.raises(dio.FormatError, match="x.txt: bad magic"):
            dio.read_sweep(path)
        dio.write_model(lr_surrogate, tmp_path / "sur.wpnn")
        with pytest.raises(dio.FormatError, match="sur.wpnn: holds a 'surrogate' container, not a 'sweep' one"):
            dio.read_sweep(tmp_path / "sur.wpnn")
        mesh, sweep = tiny
        dio.write_sweep(sweep, mesh, tmp_path / "sweep.wpnn")
        with pytest.raises(dio.FormatError, match="holds a 'sweep' container, not a 'surrogate' one"):
            dio.read_model(tmp_path / "sweep.wpnn")
        dio._write_container(tmp_path / "odd.wpnn", "tensor", [("x", np.zeros(2))], {})
        with pytest.raises(dio.FormatError, match="odd.wpnn: unknown container kind 'tensor'"):
            dio.read_sweep(tmp_path / "odd.wpnn")

    def test_fingerprint_mismatch_rejected(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(sweep, mesh, path)
        other = build_device_mesh(DeviceConfig(nx=9, ny=7, length_nm=80.0))
        with pytest.raises(dio.FormatError, match="fingerprint"):
            dio.read_sweep(path, other)
        with pytest.raises(dio.FormatError, match="fingerprint"):
            dio.write_sweep(sweep, other, path)

    def test_read_without_mesh(self, tiny, tmp_path):
        mesh, sweep = tiny
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(sweep, mesh, path)
        _edit_container(path, tmp_path / "narrow.wpnn",  # no mesh, so no node count to check
                        phi=np.zeros((len(sweep), 3)), n=np.zeros((len(sweep), 3)))
        for name, width in (("sweep.wpnn", mesh.n_nodes), ("narrow.wpnn", 3)):
            loaded = dio.read_sweep(tmp_path / name)
            assert loaded.mesh_fingerprint == mesh.fingerprint()
            assert loaded.snapshots[0].phi.shape == (width,)
        assert np.array_equal(dio.read_sweep(path).snapshots[0].phi, sweep.snapshots[0].phi)


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
        with pytest.raises(dio.FormatError, match="magic"):
            dio.read_model(path)

    def test_missing_names_listed(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        _edit_container(path, tmp_path / "bad.wpnn", drop=("left", "intercept", "rcond"))
        with pytest.raises(dio.FormatError, match="surrogate container lacks left, intercept, rcond$"):
            dio.read_model(tmp_path / "bad.wpnn")

    def test_foreign_normalization_rejected(self, lr_surrogate, tmp_path):
        # the solver normalizes with the module constants; a model fitted
        # under others must not load
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        _edit_container(path, tmp_path / "bad.wpnn", meta={"density_scale": 2e19})
        with pytest.raises(dio.FormatError, match=r"bad\.wpnn: density normalization .*scale 2e\+19"):
            dio.read_model(tmp_path / "bad.wpnn")

    def test_wrong_version(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        blob = bytearray(path.read_bytes())
        for version in (99, 1):  # 1: the dense-matrix container of earlier releases
            blob[4] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(dio.FormatError, match=f"version {version};.*fit-lr"):
                dio.read_model(path)

    def test_truncated_container(self, lr_surrogate, tmp_path):
        path = tmp_path / "sur.wpnn"
        dio.write_model(lr_surrogate, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:100])
        with pytest.raises(dio.FormatError, match="truncated"):
            dio.read_model(path)
        path.write_bytes(blob.replace(b'{"bias_max"', b'{"bias_max', 1))  # a meta block cut short
        with pytest.raises(dio.FormatError, match="sur.wpnn: unreadable metadata"):
            dio.read_model(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            dio.write_model({"not": "a model"}, tmp_path / "x.wpnn")


def _plain_container(kind, arrays, meta) -> bytes:
    """A container's bytes from a plain encoder: struct framing and each
    array's tobytes(), the format as its reader reads it."""
    def string(text):
        raw = text.encode()
        return struct.pack("<H", len(raw)) + raw

    meta_raw = json.dumps(meta, sort_keys=True).encode()
    out = [b"WPNN", struct.pack("<I", 2), string(kind), struct.pack("<I", len(meta_raw)), meta_raw,
           struct.pack("<I", len(arrays))]
    for name, arr in arrays:
        arr = np.asarray(arr, dtype="<f8")
        out += [string(name), struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(out)


class TestContainerEncoding:
    def test_sweep_bytes_match_plain_encoder(self, small_sweep, small_mesh, tmp_path):
        snaps, p = small_sweep.snapshots, small_sweep.params
        arrays = [("biases", small_sweep.biases), ("phi", np.stack([s.phi for s in snaps])),
                  ("n", np.stack([s.n for s in snaps])), ("converged", [s.converged for s in snaps]),
                  ("residual_norm", [s.residual_norm for s in snaps]),
                  ("iterations", [s.newton_iterations for s in snaps])]
        meta = {"mesh_fingerprint": small_mesh.fingerprint(), "n_c": p.n_c, "v_t": p.v_t, "phi_ref": p.phi_ref}
        dio.write_sweep(small_sweep, small_mesh, tmp_path / "sweep.wpnn")
        assert (tmp_path / "sweep.wpnn").read_bytes() == _plain_container("sweep", arrays, meta)

    def test_model_bytes_match_plain_encoder(self, small_surrogate, tmp_path):
        sur = small_surrogate
        meta = {key: getattr(sur.meta, key) for key in ("n_snapshots", "bias_min", "bias_max", "mesh_fingerprint",
                                                        "rcond", "density_offset", "density_scale")}
        arrays = [("left", sur.left), ("right", sur.right), ("intercept", sur.intercept)]
        dio.write_model(sur, tmp_path / "sur.wpnn")
        assert (tmp_path / "sur.wpnn").read_bytes() == _plain_container("surrogate", arrays, meta)

    def test_empty_and_strided_arrays_round_trip(self, tmp_path):
        # a rank-0 surrogate's left factor is (n, 0): its header and no
        # bytes; a transposed array is written in C order
        arrays = [("wide", np.zeros((7, 0))), ("tall", np.zeros((0, 3))),
                  ("strided", np.arange(12.0).reshape(3, 4).T)]
        dio._write_container(tmp_path / "c.wpnn", "surrogate", arrays, {})
        assert (tmp_path / "c.wpnn").read_bytes() == _plain_container("surrogate", arrays, {})
        _, back, _ = dio._read_container(tmp_path / "c.wpnn")
        for name, arr in arrays:
            assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes()

    def test_write_sweep_holds_each_field_once(self, small_sweep, small_mesh, traced_peak, tmp_path):
        # phi and n are written row by row from the snapshots' own
        # buffers, never stacked: measured 0.063x their bytes on 17x8 (the
        # file's 8 KiB write buffer, the lists of rows and the three small
        # arrays), where stacking the rows first reads 1.07x; the bound
        # leaves 0.017x
        field_bytes = 2 * len(small_sweep) * small_mesh.n_nodes * 8
        peak = traced_peak(lambda: dio.write_sweep(small_sweep, small_mesh, tmp_path / "sweep.wpnn"))
        assert peak <= 0.08 * field_bytes


class TestMappedReads:
    def test_read_sweep_copies_no_field(self, small_sweep, small_mesh, traced_peak, tmp_path):
        # phi and n are views of the mapped file, so only the per-snapshot
        # objects (a Snapshot and two views, about 350 B against 2176 B of
        # fields on 17x8) are allocated: measured 0.24x the field bytes,
        # where copying the fields reads 1.24x; the bound leaves 0.06x
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(small_sweep, small_mesh, path)
        field_bytes = 2 * len(small_sweep) * small_mesh.n_nodes * 8
        assert traced_peak(lambda: dio.read_sweep(path, small_mesh)) <= 0.3 * field_bytes

    def test_model_arrays_aligned_and_read_only(self, small_surrogate, tmp_path):
        dio.write_model(small_surrogate, tmp_path / "sur.wpnn")
        loaded = dio.read_model(tmp_path / "sur.wpnn")
        for arr in (loaded.left, loaded.right, loaded.intercept):
            assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable

    def test_empty_file_names_it(self, tmp_path):
        (tmp_path / "empty.wpnn").write_bytes(b"")
        with pytest.raises(dio.FormatError, match="empty.wpnn: empty file"):
            dio.read_sweep(tmp_path / "empty.wpnn")

    def test_sweep_survives_replacement(self, small_sweep, small_mesh, tmp_path):
        # a write replaces the file by rename, so the mapped inode keeps its bytes
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(small_sweep, small_mesh, path)
        held = dio.read_sweep(path, small_mesh)
        shifted = SweepDataset(snapshots=[Snapshot(v_gate=s.v_gate, phi=s.phi + 1.0, n=2.0 * s.n)
                                          for s in small_sweep.snapshots],
                               mesh_fingerprint=small_sweep.mesh_fingerprint, params=small_sweep.params)
        dio.write_sweep(shifted, small_mesh, path)
        for a, b in zip(held.snapshots, small_sweep.snapshots):
            assert a.phi.tobytes() == b.phi.tobytes() and a.n.tobytes() == b.n.tobytes()
        assert np.array_equal(dio.read_sweep(path, small_mesh).snapshots[-1].n, shifted.snapshots[-1].n)

    def test_mapped_arrays_write_a_private_copy(self, small_sweep, small_mesh, tmp_path):
        path = tmp_path / "sweep.wpnn"
        dio.write_sweep(small_sweep, small_mesh, path)
        before = path.read_bytes()
        dio.read_sweep(path, small_mesh).snapshots[0].phi[:] = 7.0
        assert path.read_bytes() == before
        assert dio.read_sweep(path, small_mesh).snapshots[0].phi.tobytes() == small_sweep.snapshots[0].phi.tobytes()


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
        lines = text.splitlines()
        lines[-1] = " ".join(lines[-1].split()[:3])  # a per-node row cut to 3 fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(dio.FormatError, match=f":{len(lines)}: expected 5 fields, got 3"):
            dio.read_report(path)
        lines[-1] = "0 0.0 0.0 0.5 abc"  # a per-node row with a non-number
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(dio.FormatError, match=f":{len(lines)}: malformed field 'abc'"):
            dio.read_report(path)
        path.write_text(f"{dio.REPORT_HEADER}\nv_gate = zero\n")
        with pytest.raises(dio.FormatError, match=":2: malformed field 'zero'"):
            dio.read_report(path)

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
        dio.write_loss_history(history[:0], path)  # a header and no rows
        assert dio.read_loss_history(path).shape == (0, 5)
        path.write_text(f"{dio.LOSS_HISTORY_HEADER}\n0 0.001 1.0 2.0 3.0\n1 0.001 1.0 2.0\n")
        with pytest.raises(dio.FormatError, match=":3: expected 5 fields, got 4"):
            dio.read_loss_history(path)
        path.write_text(f"{dio.LOSS_HISTORY_HEADER}\n0 0.001 1.0 abc 3.0\n")
        with pytest.raises(dio.FormatError, match=":2: malformed field 'abc'"):
            dio.read_loss_history(path)
        figure = tmp_path / "figure.csv"  # any other table is refused
        dio.write_csv(figure, ["step", "total"], [history[:, 0], history[:, 4]])
        with pytest.raises(dio.FormatError, match="not a wirepinn loss history"):
            dio.read_loss_history(figure)

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
        dio.write_sweep(sweep, mesh, tmp_path / "s.wpnn")
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


def _reference_text(head, columns, sep: str) -> bytes:
    """The text a renderer must write: each row's values through ``str``,
    joined by ``sep``, one row per line."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [*head, *(sep.join(map(str, row)) for row in zip(*values))]
    return "".join(line + "\n" for line in lines).encode()


_STRINGS = st.text(st.sampled_from("ab,% é\t"), max_size=4)
_ROW_COUNTS = (0, 1, 5, dio._CHUNK_ROWS, dio._CHUNK_ROWS + 1)


@st.composite
def _mixed_columns(draw):
    """1-4 columns of drawn kinds and lengths: each its drawn values
    repeated to the row count plus 0-2 extra, so the shortest sets it."""
    rows = draw(st.sampled_from(_ROW_COUNTS))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["int64", "float64", "list", "object"]))
        if kind == "int64":
            seed = draw(arrays(np.int64, st.integers(1, 6)))
        elif kind == "float64":
            seed = np.array(draw(st.lists(st.one_of(st.sampled_from(EDGES), st.floats()),
                                          min_size=1, max_size=6)))
        else:
            seed = np.array(draw(st.lists(_STRINGS, min_size=1, max_size=6)), dtype=object)
        col = np.resize(seed, rows + draw(st.integers(0, 2)))
        columns.append(col.tolist() if kind == "list" else col)
    return columns


class TestRenderer:
    def test_nonfinite_text_matches_fmt(self):
        values = np.array(EDGES)
        assert dio._lines([values], ",").splitlines() == [dio._fmt(v) for v in EDGES]
        assert dio._lines([values[-4:]], ",").splitlines() == ["inf", "-inf", "nan", "nan"]

    def test_integer_and_string_columns(self):
        rows = dio._lines([np.array([3, -4]), ["a", "b"], np.array([0.5, -0.0])], " ").splitlines()
        assert rows == ["3 a 0.5", "-4 b -0.0"]

    @settings(max_examples=60, deadline=None)
    @given(columns=_mixed_columns(), sep=st.sampled_from([",", " ", "%", "%s", ";%d "]))
    @example(columns=[np.resize(np.arange(-3, 3), dio._CHUNK_ROWS + 1),
                      np.resize(np.array(EDGES), dio._CHUNK_ROWS + 2),
                      ["5%", "%s", "a,b"] * 3000, np.array(["%%", "", "é"] * 2731, dtype=object)],
             sep="%")
    @example(columns=[np.zeros(0), ["x"]], sep=",")
    def test_bytes_match_str_join(self, columns, sep):
        head = ["# x y", "h%s"]
        assert b"".join(dio._text(head, columns, sep)) == _reference_text(head, columns, sep)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(dio._KINDS)),
           values=st.lists(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                                  elements=st.floats()), min_size=6, max_size=6),
           meta=st.lists(st.one_of(st.floats(), st.text()), min_size=7, max_size=7))
    @example(kind="sweep",
             values=[np.array(EDGES), np.zeros((0, 3)), np.array(-0.0), np.resize(np.array(EDGES), (2, 5)),
                     np.zeros(0), np.array([5e-324, -5e-324])],
             meta=[float("nan"), -0.0, float("inf"), 5e-324, "", "f" * 64, -1.7976931348623157e308])
    def test_container(self, scratch, kind, values, meta):
        names, keys, _ = dio._KINDS[kind]
        stored = list(zip(names, values))
        stored_meta = dict(zip(keys, meta))
        dio._write_container(scratch / "c.wpnn", kind, stored, stored_meta)
        back_kind, back, back_meta = dio._read_container(scratch / "c.wpnn")
        assert back_kind == kind and list(back) == list(names)
        for name, arr in stored:
            assert back[name].dtype == np.float64 and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()
        assert {k: repr(v) for k, v in back_meta.items()} == {k: repr(v) for k, v in stored_meta.items()}

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
        dio.write_sweep(ds, mesh, scratch / "sweep.wpnn")
        back = dio.read_sweep(scratch / "sweep.wpnn", mesh).snapshots[0]
        assert _bits(back.v_gate) == _bits(v_gate) and _bits(back.residual_norm) == _bits(residual)
        assert _bits(back.phi) == _bits(phi) and _bits(back.n) == _bits(n)
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
