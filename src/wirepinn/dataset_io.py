"""Deterministic persistence for sweeps, models, reports and run tables.

Text formats for anything a person might want to inspect (sweep datasets,
reports, loss histories, CSV figure data), one versioned binary container
for the surrogate's factor matrices.  All floats are written with
round-trip-exact rendering and all files are written atomically (temp
file + rename), so readers never observe partial output and write/read
cycles compare bitwise.
"""

from __future__ import annotations

import json
import os
import struct
from itertools import repeat

import numpy as np

from . import fermi
from .mesh import REGION_NAMES, TensorMesh
from .oracle import Snapshot, SweepDataset
from .surrogate import LinearSurrogate, SurrogateMeta

__all__ = [
    "ModelFormatError",
    "SweepFormatError",
    "read_loss_history",
    "read_model",
    "read_report",
    "read_sweep",
    "write_csv",
    "write_loss_history",
    "write_model",
    "write_report",
    "write_sweep",
]

SWEEP_HEADER = "# wirepinn sweep v1"
REPORT_HEADER = "# wirepinn report v1"
LOSS_HISTORY_HEADER = "# step lr loss_boundary loss_fd total"
MODEL_MAGIC = b"WPNN"
MODEL_VERSION = 2

_REGION_BY_NAME = {v: k for k, v in REGION_NAMES.items()}


class SweepFormatError(ValueError):
    """Malformed, truncated or mismatched sweep file."""


class ModelFormatError(ValueError):
    """Bad magic, version or layout in a model container."""


def _field(convert, text: str, path, lineno: int):
    """``convert(text)``; a ValueError becomes a SweepFormatError naming
    the file and line the text came from."""
    try:
        return convert(text)
    except ValueError:
        raise SweepFormatError(f"{path}:{lineno}: malformed field {text!r}") from None


def _key_value(text: str):
    key, value = text.split("=", 1)  # a ValueError without "="
    return key, value


def _fmt(x: float) -> str:
    """Shortest decimal rendering that round-trips the double exactly."""
    return repr(float(x))


def _rows(columns, sep: str) -> list:
    """Data rows: the i-th values of all columns, joined by ``sep``.

    Arrays go through ``.tolist()`` and every value through ``str``, which
    for a float is the same shortest round-trip text as ``_fmt`` and for
    an integer its digits.  Other columns (lists of strings, iterators)
    are taken as they are; the shortest column sets the row count.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [sep.join(map(str, row)) for row in zip(*cols)]


def _node_columns(mesh: TensorMesh) -> list:
    """Per-node index, x [um] and y [um] columns, in node order."""
    return [np.arange(mesh.n_nodes), np.repeat(mesh.x_nodes, mesh.ny), np.tile(mesh.y_nodes, mesh.nx)]


def _atomic_write(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.open applies the umask to 0o666, as open(path, "w") does;
    # mkstemp would create the file 0600, a mode os.replace keeps.
    tmp = os.path.join(directory, f".wirepinn-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# sweep datasets

def write_sweep(dataset: SweepDataset, mesh: TensorMesh, path) -> None:
    """Write a sweep as one text record per node per snapshot.

    Record columns: snapshot_index v_gate node_index x_um y_um region
    phi_V n_cm3.  The header carries the format version, the mesh
    fingerprint, the physics constants and the bias list; per-snapshot
    comment lines keep convergence metadata.
    """
    if dataset.mesh_fingerprint != mesh.fingerprint():
        raise SweepFormatError("dataset fingerprint does not match the supplied mesh")
    p = dataset.params
    lines = [
        SWEEP_HEADER,
        f"# fingerprint {dataset.mesh_fingerprint}",
        f"# constants n_c={_fmt(p.n_c)} v_t={_fmt(p.v_t)} phi_ref={_fmt(p.phi_ref)}",
        "# biases " + " ".join(_fmt(v) for v in dataset.biases),
        "# columns snapshot v_gate node x_um y_um region phi_V n_cm3",
    ]
    nodes = _rows([*_node_columns(mesh), [REGION_NAMES[r] for r in mesh.region.tolist()]], " ")
    for k, snap in enumerate(dataset.snapshots):
        lines.append(
            f"# snapshot {k} converged={int(snap.converged)} "
            f"residual_norm={_fmt(snap.residual_norm)} iterations={snap.newton_iterations}"
        )
        lines += _rows([repeat(f"{k} {_fmt(snap.v_gate)}"), nodes, snap.phi, snap.n], " ")
    lines.append("")
    _atomic_write(path, "\n".join(lines).encode())


def read_sweep(path, mesh: TensorMesh | None = None) -> SweepDataset:
    """Load a sweep file; raises SweepFormatError naming the bad line.

    If a mesh is supplied, its fingerprint and node count must match the
    file.
    """
    fingerprint = ""
    constants = {}
    biases: list[float] = []
    snap_meta = {}
    records: dict[int, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != SWEEP_HEADER:
            raise SweepFormatError(f"{path}:1: not a wirepinn sweep file (got {first!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if not parts:
                    continue
                if parts[0] == "fingerprint" and len(parts) == 2:
                    fingerprint = parts[1]
                elif parts[0] == "constants":
                    pairs = [_field(_key_value, kv, path, lineno) for kv in parts[1:]]
                    constants = {k: _field(float, v, path, lineno) for k, v in pairs}
                    missing = sorted({"n_c", "v_t", "phi_ref"} - constants.keys())
                    if missing:
                        raise SweepFormatError(f"{path}:{lineno}: constants line lacks {', '.join(missing)}")
                elif parts[0] == "biases":
                    biases = [_field(float, v, path, lineno) for v in parts[1:]]
                elif parts[0] == "snapshot" and len(parts) >= 2:
                    meta = dict(_field(_key_value, kv, path, lineno) for kv in parts[2:])
                    snap_meta[_field(int, parts[1], path, lineno)] = (
                        bool(_field(int, meta.get("converged", "1"), path, lineno)),
                        _field(float, meta.get("residual_norm", "nan"), path, lineno),
                        _field(int, meta.get("iterations", "0"), path, lineno))
                continue
            fields = line.split()
            if len(fields) != 8:
                raise SweepFormatError(f"{path}:{lineno}: expected 8 fields, got {len(fields)}")
            try:
                k = int(fields[0])
                node = int(fields[2])
                vg = float(fields[1])
                phi = float(fields[6])
                n = float(fields[7])
                region = _REGION_BY_NAME[fields[5]]
            except (ValueError, KeyError) as exc:
                raise SweepFormatError(f"{path}:{lineno}: malformed record ({exc})") from None
            rec = records.setdefault(k, [vg, [], []])
            if node != len(rec[1]):
                raise SweepFormatError(
                    f"{path}:{lineno}: node index {node} out of order (expected {len(rec[1])})"
                )
            rec[1].append(phi)
            rec[2].append(n)

    if not biases:
        raise SweepFormatError(f"{path}: missing bias list header")
    if not constants:
        raise SweepFormatError(f"{path}: missing constants header")
    if sorted(records) != list(range(len(biases))):
        raise SweepFormatError(
            f"{path}: found snapshots {sorted(records)} but header lists {len(biases)} biases"
        )
    n_nodes = len(records[0][1])
    if mesh is not None:
        if fingerprint != mesh.fingerprint():
            raise SweepFormatError(f"{path}: fingerprint does not match the supplied mesh")
        if n_nodes != mesh.n_nodes:
            raise SweepFormatError(f"{path}: {n_nodes} nodes per snapshot, mesh has {mesh.n_nodes}")

    params = fermi.SemiconductorParams(n_c=constants["n_c"], v_t=constants["v_t"],
                                       phi_ref=constants["phi_ref"])
    snapshots = []
    for k in range(len(biases)):
        vg, phis, ns = records[k]
        if len(phis) != n_nodes:
            raise SweepFormatError(f"{path}: snapshot {k} is truncated ({len(phis)}/{n_nodes} nodes)")
        converged, residual_norm, iterations = snap_meta.get(k, (True, float("nan"), 0))
        snapshots.append(Snapshot(
            v_gate=vg, phi=np.array(phis), n=np.array(ns), converged=converged,
            residual_norm=residual_norm, newton_iterations=iterations,
        ))
    return SweepDataset(snapshots=snapshots, mesh_fingerprint=fingerprint, params=params)


# ---------------------------------------------------------------------------
# model container (binary)

def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ModelFormatError(f"{self.path}: truncated container")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode()


def _write_container(path, kind: str, arrays, meta: dict) -> None:
    blob = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION), _pack_str(kind)]
    meta_raw = json.dumps(meta, sort_keys=True).encode()
    blob.append(struct.pack("<I", len(meta_raw)))
    blob.append(meta_raw)
    blob.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        blob.append(_pack_str(name))
        blob.append(struct.pack("<B", arr.ndim))
        blob.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        blob.append(arr.tobytes())
    _atomic_write(path, b"".join(blob))


def _read_container(path):
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic, not a wirepinn model file")
    (version,) = reader.unpack("<I")
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported container version {version}; this release reads version "
            f"{MODEL_VERSION}, so re-run `wirepinn fit-lr` to rewrite the surrogate"
        )
    kind = reader.string()
    (meta_len,) = reader.unpack("<I")
    meta = json.loads(reader.take(meta_len).decode())
    (n_arrays,) = reader.unpack("<I")
    arrays = []
    for _ in range(n_arrays):
        name = reader.string()
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(reader.take(8 * count), dtype="<f8").reshape(shape).copy()
        arrays.append((name, arr))
    if reader.off != len(reader.data):
        raise ModelFormatError(f"{path}: {len(reader.data) - reader.off} trailing bytes")
    return kind, arrays, meta


def write_model(obj, path) -> None:
    """Serialize a LinearSurrogate to the binary container."""
    if not isinstance(obj, LinearSurrogate):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    meta = {
        "n_snapshots": obj.meta.n_snapshots,
        "bias_min": obj.meta.bias_min,
        "bias_max": obj.meta.bias_max,
        "mesh_fingerprint": obj.meta.mesh_fingerprint,
        "rcond": obj.meta.rcond,
        "density_offset": obj.meta.density_offset,
        "density_scale": obj.meta.density_scale,
    }
    _write_container(path, "surrogate",
                     [("left", obj.left), ("right", obj.right), ("intercept", obj.intercept)], meta)


def read_model(path) -> LinearSurrogate:
    """Load a surrogate container back into its object."""
    kind, arrays, meta = _read_container(path)
    if kind != "surrogate":
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    named = dict(arrays)
    return LinearSurrogate(
        left=named["left"],
        right=named["right"],
        intercept=named["intercept"],
        meta=SurrogateMeta(
            n_snapshots=int(meta["n_snapshots"]),
            bias_min=float(meta["bias_min"]),
            bias_max=float(meta["bias_max"]),
            mesh_fingerprint=meta["mesh_fingerprint"],
            rcond=float(meta["rcond"]),
            density_offset=float(meta["density_offset"]),
            density_scale=float(meta["density_scale"]),
        ),
    )


# ---------------------------------------------------------------------------
# reports, histories, tables

def write_report(report, mesh: TensorMesh, path) -> None:
    """Error report as key/value lines plus per-node error columns."""
    lines = [
        REPORT_HEADER,
        f"v_gate = {_fmt(report.v_gate)}",
        f"v_gate_extracted = {_fmt(report.v_gate_extracted)}",
        f"epochs = {report.epochs}",
        f"final_loss_boundary = {_fmt(report.final_loss_boundary)}",
        f"final_loss_fd = {_fmt(report.final_loss_fd)}",
        f"final_loss_total = {_fmt(report.final_loss_total)}",
        f"max_phi_err_pct = {_fmt(report.max_phi_err_pct)}",
        f"max_logn_err_pct = {_fmt(report.max_logn_err_pct)}",
        "",
        "# node x_um y_um phi_err_pct logn_err_pct",
    ]
    lines += _rows([*_node_columns(mesh), report.phi_err_pct, report.logn_err_pct], " ")
    lines.append("")
    _atomic_write(path, "\n".join(lines).encode())


def read_report(path):
    """Report file -> (scalar dict, per-node error array of shape (n, 2))."""
    scalars = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != REPORT_HEADER:
            raise SweepFormatError(f"{path}:1: not a wirepinn report file")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, val = line.partition("=")
                scalars[key.strip()] = _field(float, val.strip(), path, lineno)
            else:
                parts = line.split()
                if len(parts) != 5:
                    raise SweepFormatError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
                rows.append((_field(float, parts[3], path, lineno), _field(float, parts[4], path, lineno)))
    return scalars, np.array(rows)


def write_loss_history(history: np.ndarray, path) -> None:
    """Loss history rows: step lr loss_boundary loss_fd total."""
    lines = [LOSS_HISTORY_HEADER]
    lines += _rows([history[:, 0].astype(np.int64), *history[:, 1:5].T], " ")
    lines.append("")
    _atomic_write(path, "\n".join(lines).encode())


def read_loss_history(path) -> np.ndarray:
    """Loss history file -> (steps, 5) array; (0, 5) if it has no rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != LOSS_HISTORY_HEADER:
            raise SweepFormatError(f"{path}:1: not a wirepinn loss history file")
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 5:
                raise SweepFormatError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            rows.append([_field(float, v, path, lineno) for v in fields])
    return np.array(rows).reshape(-1, 5)


def write_csv(path, header, columns) -> None:
    """Columnar CSV with exact float rendering (figure-data emission)."""
    lines = [",".join(header)]
    lines += _rows([np.asarray(c) for c in columns], ",")
    lines.append("")
    _atomic_write(path, "\n".join(lines).encode())
