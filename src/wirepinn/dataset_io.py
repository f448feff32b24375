"""Deterministic persistence for sweeps, models, reports and run tables.

One versioned binary container carries the field arrays: the oracle
sweep, each solve's prediction and fit-lr's predicted-vs-oracle scatter
(kind ``"sweep"``), and the surrogate's factor matrices (kind
``"surrogate"``).  Text formats hold what a person reads or plots:
reports, loss histories and CSV figure data, each value as its ``str``
(one ``%`` per chunk of rows), so floats read back value-exact.  Every
file is written atomically (temp file + rename): readers never observe
partial output, and write/read cycles compare bitwise.  A container
array is written from its own buffer.  A container is read by mapping
its file copy-on-write, each array a view whose pages are read only when
touched; a write to one changes only this process's copy.  A file
replaced by rename, as every write here replaces one, leaves a reader
its old bytes; one truncated in place under a reader is not supported.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct

import numpy as np

from . import fermi
from .mesh import TensorMesh
from .oracle import Snapshot, SweepDataset
from .surrogate import LinearSurrogate, SurrogateMeta

__all__ = [
    "FormatError",
    "read_container",
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

REPORT_HEADER = "# wirepinn report v1"
LOSS_HISTORY_HEADER = "# step lr loss_boundary loss_fd total"
MODEL_MAGIC = b"WPNN"
MODEL_VERSION = 2


class FormatError(ValueError):
    """Malformed, truncated or mismatched file; the message names it."""


def _field(convert, text: str, path, lineno: int):
    """``convert(text)``; a ValueError becomes a FormatError naming the
    file and line the text came from."""
    try:
        return convert(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: malformed field {text!r}") from None


def _fmt(x: float) -> str:
    """Shortest decimal rendering that round-trips the double exactly."""
    return repr(float(x))


# Rows rendered and written at a time: a headline solve's 200,000-row loss
# history then never sits in memory whole, as text or as Python objects.
_CHUNK_ROWS = 8192


def _lines(columns, sep: str) -> str:
    """The rows of ``columns``, values joined by ``sep``, one line each; the
    shortest column sets the row count.  One ``%`` renders them all, so each
    value's text is its ``str`` (a float's is ``_fmt``'s, an int's its digits,
    a string itself); arrays go through ``.tolist()``, so ints stay ints."""
    k = len(columns)
    n = min(map(len, columns), default=0)
    flat = [None] * (n * k)  # the values in row-major order
    for j, c in enumerate(columns):
        flat[j::k] = c[:n].tolist() if isinstance(c, np.ndarray) else c[:n]
    return (sep.replace("%", "%%").join(["%s"] * k) + "\n") * n % tuple(flat)


def _text(head, columns, sep: str):
    """A text file as byte chunks: the ``head`` lines, then the ``_lines`` of
    ``columns``, one ``%`` per _CHUNK_ROWS rows.  Every line ends in a newline."""
    yield "".join(line + "\n" for line in head).encode()
    n = min(map(len, columns), default=0)
    for lo in range(0, n, _CHUNK_ROWS):
        yield _lines([c[lo:lo + _CHUNK_ROWS] for c in columns], sep).encode()


def _node_columns(mesh: TensorMesh) -> list:
    """Per-node index, x [um] and y [um] columns, in node order."""
    return [np.arange(mesh.n_nodes), np.repeat(mesh.x_nodes, mesh.ny), np.tile(mesh.y_nodes, mesh.nx)]


def _atomic_write(path, chunks) -> None:
    """Write the bytes-like objects of ``chunks``, in order, as the file ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.open applies the umask to 0o666, as open(path, "w") does;
    # mkstemp would create the file 0600, a mode os.replace keeps.
    tmp = os.path.join(directory, f".wirepinn-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# binary container: sweeps and models

def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    """Reads a container's fields in order from its bytes; a field that
    runs past the end raises before anything is built from it."""

    def __init__(self, buf, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def left(self) -> int:
        """Bytes after the last field read."""
        return len(self.buf) - self.pos

    def _skip(self, n: int) -> int:
        """Moves past the next ``n`` bytes; returns their offset."""
        if n > self.left():
            raise FormatError(f"{self.path}: truncated container")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        start = self._skip(n)
        return self.buf[start:start + n]

    def array(self, shape) -> np.ndarray:
        """The next little-endian float64 array of ``shape``, a view of
        the buffer: no byte of it is read here."""
        count = math.prod(shape)
        return np.frombuffer(self.buf, "<f8", count, self._skip(8 * count)).reshape(shape)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode()


def _write_container(path, kind: str, arrays, meta: dict) -> None:
    """Write ``arrays``, (name, array) pairs, and ``meta`` as a container.
    A list of equal-shape arrays is written as their stack, each from its
    own buffer, so no stacked copy is made."""
    blob = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION), _pack_str(kind)]
    meta_raw = json.dumps(meta, sort_keys=True).encode()
    blob.append(struct.pack("<I", len(meta_raw)))
    blob.append(meta_raw)
    blob.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        stacked = isinstance(arr, list)
        parts = [np.asarray(a, dtype="<f8", order="C") for a in (arr if stacked else [arr])]
        shape = (len(parts), *parts[0].shape) if stacked else parts[0].shape  # 0-d stays 0-d
        blob.append(_pack_str(name))
        blob.append(struct.pack("<B", len(shape)))
        blob.append(struct.pack(f"<{len(shape)}I", *shape))
        blob.extend(parts)  # written from their own buffers; an empty one writes nothing
    _atomic_write(path, blob)


def _read_container(path):
    """A container file -> (kind, arrays by name, meta), unchecked beyond
    its framing.  The arrays are writable views of the file mapped
    copy-on-write."""
    with open(path, "rb") as fh:
        if not os.fstat(fh.fileno()).st_size:  # mmap refuses an empty file
            raise FormatError(f"{path}: empty file, not a wirepinn container")
        reader = _Reader(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY), path)
        if reader.take(4) != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic, not a wirepinn container")
        (version,) = reader.unpack("<I")
        if version != MODEL_VERSION:
            raise FormatError(
                f"{path}: unsupported container version {version}; this release reads version "
                f"{MODEL_VERSION}, so re-run `wirepinn generate` or `wirepinn fit-lr` to rewrite it"
            )
        kind = reader.string()
        (meta_len,) = reader.unpack("<I")
        raw = reader.take(meta_len)
        try:
            meta = json.loads(raw.decode())
        except ValueError as exc:
            raise FormatError(f"{path}: unreadable metadata ({exc})") from None
        (n_arrays,) = reader.unpack("<I")
        arrays = {}
        for _ in range(n_arrays):
            name = reader.string()
            (ndim,) = reader.unpack("<B")
            arrays[name] = reader.array(reader.unpack(f"<{ndim}I"))
        if reader.left():
            raise FormatError(f"{path}: {reader.left()} trailing bytes")
    return kind, arrays, meta


def read_container(path):
    """A container file -> (its kind, the SweepDataset or LinearSurrogate
    it holds).  Raises FormatError naming the file and every array or
    meta key its kind needs but the file lacks."""
    kind, arrays, meta = _read_container(path)
    if kind not in _KINDS:
        raise FormatError(f"{path}: unknown container kind {kind!r}")
    names, keys, decode = _KINDS[kind]
    missing = [a for a in names if a not in arrays] + [k for k in keys if k not in meta]
    if missing:
        raise FormatError(f"{path}: {kind} container lacks {', '.join(missing)}")
    try:
        return kind, decode(arrays, meta)
    except (TypeError, ValueError) as exc:  # the decoder's checks and the object's own
        raise FormatError(f"{path}: {exc}") from None


def _read_kind(path, kind: str):
    found, obj = read_container(path)
    if found != kind:
        raise FormatError(f"{path}: holds a {found!r} container, not a {kind!r} one")
    return obj


def write_sweep(dataset: SweepDataset, mesh: TensorMesh, path) -> None:
    """Write a sweep (or one solve's prediction) as a ``"sweep"`` container.

    Arrays: ``biases`` (K), ``phi`` and ``n`` (K x n_nodes), and each
    snapshot's Newton record ``converged``, ``residual_norm`` and
    ``iterations`` (K each, as f64 like every container array).  The meta
    holds the mesh fingerprint and the closure constants.
    """
    if dataset.mesh_fingerprint != mesh.fingerprint():
        raise FormatError("dataset fingerprint does not match the supplied mesh")
    if not dataset.snapshots:
        raise ValueError("a sweep needs at least one snapshot")
    snaps, p = dataset.snapshots, dataset.params
    if any(s.phi.shape != (mesh.n_nodes,) or s.n.shape != (mesh.n_nodes,) for s in snaps):
        raise ValueError(f"a snapshot's phi or n does not hold one value per node ({mesh.n_nodes})")
    arrays = [
        ("biases", dataset.biases),
        ("phi", [s.phi for s in snaps]),
        ("n", [s.n for s in snaps]),
        ("converged", np.array([s.converged for s in snaps], float)),
        ("residual_norm", np.array([s.residual_norm for s in snaps])),
        ("iterations", np.array([s.newton_iterations for s in snaps], float)),
    ]
    meta = {"mesh_fingerprint": dataset.mesh_fingerprint, "n_c": p.n_c, "v_t": p.v_t, "phi_ref": p.phi_ref}
    _write_container(path, "sweep", arrays, meta)


def _sweep_from(arrays, meta) -> SweepDataset:
    biases, phi, n, converged, residual_norm, iterations = (arrays[a] for a in _SWEEP_ARRAYS)
    if (biases.ndim != 1 or phi.ndim != 2 or len(phi) != len(biases) or n.shape != phi.shape
            or any(a.shape != biases.shape for a in (converged, residual_norm, iterations))):
        shapes = ", ".join(f"{a} {arrays[a].shape}" for a in _SWEEP_ARRAYS)
        raise ValueError(f"array shapes do not fit one sweep ({shapes})")
    if not len(biases):
        raise ValueError("sweep holds no snapshots")
    for name, values in (("converged", converged), ("iterations", iterations)):
        if not np.all(values % 1 == 0):  # NaN and inf fail too
            raise ValueError(f"{name} holds values that are not whole numbers")
    snapshots = [
        Snapshot(v_gate=v, phi=phi[k], n=n[k], converged=bool(c), residual_norm=r, newton_iterations=int(i))
        for k, (v, c, r, i) in enumerate(zip(biases.tolist(), converged.tolist(),
                                             residual_norm.tolist(), iterations.tolist()))
    ]
    params = fermi.SemiconductorParams(n_c=float(meta["n_c"]), v_t=float(meta["v_t"]),
                                       phi_ref=float(meta["phi_ref"]))
    return SweepDataset(snapshots=snapshots, mesh_fingerprint=meta["mesh_fingerprint"], params=params)


def read_sweep(path, mesh: TensorMesh | None = None) -> SweepDataset:
    """Load a ``"sweep"`` container; raises FormatError naming the file.

    If a mesh is supplied, its fingerprint and node count must match the
    file.
    """
    dataset = _read_kind(path, "sweep")
    if mesh is not None:
        if dataset.mesh_fingerprint != mesh.fingerprint():
            raise FormatError(f"{path}: fingerprint does not match the supplied mesh")
        if len(dataset.snapshots[0].phi) != mesh.n_nodes:
            raise FormatError(f"{path}: {len(dataset.snapshots[0].phi)} nodes per snapshot, "
                              f"mesh has {mesh.n_nodes}")
    return dataset


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


def _surrogate_from(arrays, meta) -> LinearSurrogate:
    # copied out of the mapping into aligned memory: an array may start at
    # any byte offset, and numpy's @ runs BLAS only on aligned operands
    # (the canonical 2193x25 left @ x: 17.7 us, 28.5 us unaligned, 2-core Xeon)
    return LinearSurrogate(
        left=arrays["left"].copy(),
        right=arrays["right"].copy(),
        intercept=arrays["intercept"].copy(),
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


def read_model(path) -> LinearSurrogate:
    """Load a ``"surrogate"`` container back into its object."""
    return _read_kind(path, "surrogate")


_SWEEP_ARRAYS = ("biases", "phi", "n", "converged", "residual_norm", "iterations")
# Each kind's arrays and meta keys, all required, and its decoder.
_KINDS = {
    "sweep": (_SWEEP_ARRAYS, ("mesh_fingerprint", "n_c", "v_t", "phi_ref"), _sweep_from),
    "surrogate": (("left", "right", "intercept"),
                  ("n_snapshots", "bias_min", "bias_max", "mesh_fingerprint", "rcond",
                   "density_offset", "density_scale"), _surrogate_from),
}


# ---------------------------------------------------------------------------
# reports, histories, tables

def write_report(report, mesh: TensorMesh, path) -> None:
    """Error report as key/value lines plus per-node error columns."""
    head = [
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
    _atomic_write(path, _text(head, [*_node_columns(mesh), report.phi_err_pct, report.logn_err_pct], " "))


def read_report(path):
    """Report file -> (scalar dict, per-node error array of shape (n, 2))."""
    scalars = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != REPORT_HEADER:
            raise FormatError(f"{path}:1: not a wirepinn report file")
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
                    raise FormatError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
                rows.append((_field(float, parts[3], path, lineno), _field(float, parts[4], path, lineno)))
    return scalars, np.array(rows)


def write_loss_history(history: np.ndarray, path) -> None:
    """Loss history rows: step lr loss_boundary loss_fd total."""
    _atomic_write(path, _text([LOSS_HISTORY_HEADER], [history[:, 0].astype(np.int64), *history[:, 1:5].T], " "))


def read_loss_history(path) -> np.ndarray:
    """Loss history file -> (steps, 5) array; (0, 5) if it has no rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != LOSS_HISTORY_HEADER:
            raise FormatError(f"{path}:1: not a wirepinn loss history file")
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 5:
                raise FormatError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            rows.append([_field(float, v, path, lineno) for v in fields])
    return np.array(rows).reshape(-1, 5)


def write_csv(path, header, columns) -> None:
    """Columnar CSV with exact float rendering (figure-data emission)."""
    _atomic_write(path, _text([",".join(header)], [np.asarray(c) for c in columns], ","))
