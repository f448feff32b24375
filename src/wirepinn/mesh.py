"""Tensor-product mesh of the gated nanowire half cross-section.

The device is modeled as a planar 2D half-domain: x along the wire axis,
y from the symmetry axis (y = 0, zero flux) outward through the silicon
body into the gate oxide.  The mesh, regions, contacts, doping and the
finite-volume edge/volume coefficients built here are the single
discretization frame shared by the oracle, the regression surrogate and
the neural solver.

Geometry conventions (defaults):
  * x: 129 nodes uniformly over an 81 nm axis, which puts a node exactly
    at the 40.5 nm midpoint, where ``probe_node`` reads the probe traces.
  * y: 13 nodes uniformly over the 4 nm silicon radius (so y = 2 nm, half
    the radius and the probe's height, is on-grid), then 4 oxide nodes at
    radius + k*tox/4, k = 1..4.
  * The gate span is snapped to the nearest x nodes; doping junctions are
    abrupt at the snapped gate edges.

Unit system: node coordinates are stored in micrometers; the assembled
coefficients use cm, V, cm^-3, F/cm (per 1 cm of depth).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONTACT_DRAIN",
    "CONTACT_GATE",
    "CONTACT_NONE",
    "CONTACT_SOURCE",
    "ConfigError",
    "DeviceConfig",
    "EPS0_F_PER_CM",
    "FvCoefficients",
    "OXIDE",
    "Q_COULOMB",
    "SILICON",
    "TensorMesh",
    "assemble_fv_coefficients",
    "build_device_mesh",
    "load_device_config",
    "nearest_node",
    "probe_node",
]

# Region / contact tags (stored as uint8 per node, y-fastest ordering).
SILICON = 0
OXIDE = 1
CONTACT_NONE = 0
CONTACT_GATE = 1
CONTACT_SOURCE = 2
CONTACT_DRAIN = 3

Q_COULOMB = 1.602176634e-19  # elementary charge [C]
EPS0_F_PER_CM = 8.8541878128e-14  # vacuum permittivity [F/cm]

_UM_TO_CM = 1e-4
_N_OXIDE_NODES = 4


class ConfigError(ValueError):
    """Invalid device configuration or degenerate geometry."""


@dataclass(frozen=True)
class DeviceConfig:
    radius_nm: float = 4.0
    tox_nm: float = 1.0
    length_nm: float = 81.0
    gate_span_nm: tuple[float, float] = (31.5, 49.5)
    nd_cm3: float = 1e20
    na_cm3: float = 1e10
    nx: int = 129
    ny: int = 17
    eps_si: float = 11.7
    eps_ox: float = 3.9


_CONFIG_KEYS = (
    "radius_nm", "tox_nm", "length_nm", "gate_span_nm",
    "nd_cm3", "na_cm3", "nx", "ny", "eps_si", "eps_ox",
)


def load_device_config(path) -> DeviceConfig:
    """Read a DeviceConfig from a key/value text file.

    One ``key = value`` pair per line; ``#`` starts a comment; unknown keys
    and malformed values raise ConfigError.  ``gate_span_nm`` takes two
    numbers (``31.5 49.5`` or comma separated).
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                if key in ("nx", "ny"):
                    values[key] = int(raw)
                elif key == "gate_span_nm":
                    lohi = [float(v) for v in raw.replace(",", " ").split()]
                    if len(lohi) != 2:
                        raise ValueError
                    values[key] = (lohi[0], lohi[1])
                else:
                    values[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for key {key!r}") from None
    return DeviceConfig(**values)


@dataclass(frozen=True)
class TensorMesh:
    """Immutable tensor-product mesh with per-node tags.

    Nodes are indexed y-fastest: node(ix, iy) = ix * ny + iy, which gives
    the assembled system a bandwidth of ny.  Coordinates are in um.
    """

    x_nodes: np.ndarray
    y_nodes: np.ndarray
    region: np.ndarray      # uint8, SILICON/OXIDE per node
    contact: np.ndarray     # uint8, CONTACT_* per node
    net_doping: np.ndarray  # N_D - N_A [cm^-3] per node, 0 in oxide
    permittivity: dict      # relative permittivity by region tag

    def __post_init__(self):
        nx, ny = len(self.x_nodes), len(self.y_nodes)
        if np.any(np.diff(self.x_nodes) <= 0) or np.any(np.diff(self.y_nodes) <= 0):
            raise ConfigError("mesh coordinates must be strictly increasing")
        for name in ("region", "contact", "net_doping"):
            arr = getattr(self, name)
            if arr.shape != (nx * ny,):
                raise ConfigError(f"{name} must have shape ({nx * ny},), got {arr.shape}")
        for eps in self.permittivity.values():
            if not eps > 0.0:
                raise ConfigError("permittivity must be positive")
        for name in ("x_nodes", "y_nodes", "region", "contact", "net_doping"):
            getattr(self, name).flags.writeable = False

    @property
    def nx(self) -> int:
        return len(self.x_nodes)

    @property
    def ny(self) -> int:
        return len(self.y_nodes)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def silicon_mask(self) -> np.ndarray:
        return self.region == SILICON

    def eps_node(self) -> np.ndarray:
        """Relative permittivity per node (by region)."""
        eps = np.empty(self.n_nodes)
        for tag, value in self.permittivity.items():
            eps[self.region == tag] = value
        return eps

    def contact_nodes(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.contact == tag)

    def gate_nodes(self) -> np.ndarray:
        return self.contact_nodes(CONTACT_GATE)

    def dirichlet_mask(self) -> np.ndarray:
        return self.contact != CONTACT_NONE

    def fingerprint(self) -> str:
        """SHA-256 over the full mesh definition; identifies datasets/models."""
        h = hashlib.sha256(b"wirepinn-mesh-v1")
        for arr in (self.x_nodes, self.y_nodes, self.region, self.contact, self.net_doping):
            h.update(arr.tobytes())
        for tag in sorted(self.permittivity):
            h.update(np.float64(self.permittivity[tag]).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class FvCoefficients:
    """Two-point flux finite-volume coefficients on the tensor grid.

    gx[i, j]: conductance eps*A/d [F per 1 cm depth] of the edge between
        nodes (i, j) and (i+1, j); gy likewise in y.  Edge permittivity is
        the harmonic mean of the endpoint values, so Si/SiO2 interface
        edges get the series combination.
    volume[n]: control volume [cm^3 per 1 cm depth], clipped to the node's
        own region so charge integrals never extend into the oxide.
    """

    gx: np.ndarray
    gy: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        if np.any(self.gx <= 0) or np.any(self.gy <= 0) or np.any(self.volume <= 0):
            raise ConfigError("finite-volume coefficients must be positive")
        for name in ("gx", "gy", "volume"):
            getattr(self, name).flags.writeable = False


def build_device_mesh(config: DeviceConfig = DeviceConfig()) -> TensorMesh:
    """Build the canonical half-nanowire mesh from a device config.

    The y grid uses ny - 4 uniform silicon nodes on [0, radius] plus 4
    oxide nodes at radius + k*tox/4; the gate span is snapped to the
    nearest x nodes and doping switches abruptly at the snapped edges
    (donors nd in the source/drain extensions, net -na in the channel
    body).  Raises ConfigError for degenerate geometry.
    """
    c = config
    if c.nx < 3:
        raise ConfigError(f"nx must be at least 3, got {c.nx}")
    if c.ny < _N_OXIDE_NODES + 2:
        raise ConfigError(f"ny must be at least {_N_OXIDE_NODES + 2}, got {c.ny}")
    if not (c.radius_nm > 0 and c.tox_nm > 0 and c.length_nm > 0):
        raise ConfigError("radius, oxide thickness and length must be positive")
    lo_nm, hi_nm = c.gate_span_nm
    if not (0.0 <= lo_nm < hi_nm <= c.length_nm):
        raise ConfigError(f"gate span {c.gate_span_nm} must lie inside [0, {c.length_nm}] nm")
    if not (c.nd_cm3 > 0 and c.na_cm3 > 0):
        raise ConfigError("doping levels must be positive")

    nm = 1e-3  # nm -> um
    x = np.linspace(0.0, c.length_nm * nm, c.nx)
    n_si = c.ny - _N_OXIDE_NODES
    y_si = np.linspace(0.0, c.radius_nm * nm, n_si)
    y_ox = c.radius_nm * nm + (c.tox_nm * nm / _N_OXIDE_NODES) * np.arange(1, _N_OXIDE_NODES + 1)
    y = np.concatenate([y_si, y_ox])

    nx, ny = c.nx, c.ny
    iy = np.tile(np.arange(ny), nx)
    ix = np.repeat(np.arange(nx), ny)

    region = np.where(iy >= n_si, OXIDE, SILICON).astype(np.uint8)

    gate_lo = int(np.argmin(np.abs(x - lo_nm * nm)))
    gate_hi = int(np.argmin(np.abs(x - hi_nm * nm)))
    if gate_lo >= gate_hi:
        raise ConfigError("gate span collapses to fewer than two x nodes")

    contact = np.full(nx * ny, CONTACT_NONE, dtype=np.uint8)
    in_span = (ix >= gate_lo) & (ix <= gate_hi)
    contact[(iy == ny - 1) & in_span] = CONTACT_GATE
    silicon = region == SILICON
    contact[(ix == 0) & silicon] = CONTACT_SOURCE
    contact[(ix == nx - 1) & silicon] = CONTACT_DRAIN

    doping = np.where(in_span, -c.na_cm3, c.nd_cm3)
    doping = np.where(silicon, doping, 0.0)

    return TensorMesh(
        x_nodes=x,
        y_nodes=y,
        region=region,
        contact=contact,
        net_doping=doping,
        permittivity={SILICON: c.eps_si, OXIDE: c.eps_ox},
    )


def nearest_node(mesh: TensorMesh, x_um: float, y_um: float) -> int:
    """Index of the node closest to (x_um, y_um); ties go to the lowest index."""
    dx = mesh.x_nodes[:, None] - float(x_um)
    dy = mesh.y_nodes[None, :] - float(y_um)
    return int(np.argmin(dx * dx + dy * dy))


def probe_node(mesh: TensorMesh) -> int:
    """The probe-trace node: nearest mid-axis, halfway out through the silicon."""
    y_silicon = mesh.y_nodes[mesh.region[:mesh.ny] == SILICON]
    return nearest_node(mesh, mesh.x_nodes[-1] / 2, y_silicon[-1] / 2)


def _control_widths(coords_cm: np.ndarray) -> np.ndarray:
    """Per-node control-cell extent along one axis (half cells at ends)."""
    w = np.empty_like(coords_cm)
    w[0] = 0.5 * (coords_cm[1] - coords_cm[0])
    w[-1] = 0.5 * (coords_cm[-1] - coords_cm[-2])
    if len(coords_cm) > 2:
        w[1:-1] = 0.5 * (coords_cm[2:] - coords_cm[:-2])
    return w


def assemble_fv_coefficients(mesh: TensorMesh) -> FvCoefficients:
    """Edge conductances and region-clipped control volumes (cm units)."""
    x = mesh.x_nodes * _UM_TO_CM
    y = mesh.y_nodes * _UM_TO_CM
    nx, ny = mesh.nx, mesh.ny
    wx = _control_widths(x)
    wy = _control_widths(y)
    eps = mesh.eps_node().reshape(nx, ny)

    dx = np.diff(x)  # (nx-1,)
    dy = np.diff(y)  # (ny-1,)
    # Regions vary only with y, so x edges never cross a material interface;
    # the harmonic mean then reduces to the row's permittivity.
    eps_x = 2.0 / (1.0 / eps[:-1, :] + 1.0 / eps[1:, :])
    eps_y = 2.0 / (1.0 / eps[:, :-1] + 1.0 / eps[:, 1:])
    gx = EPS0_F_PER_CM * eps_x * wy[None, :] / dx[:, None]
    gy = EPS0_F_PER_CM * eps_y * wx[:, None] / dy[None, :]

    # Control cells clipped to the node's own region: the silicon/oxide
    # interface sits on a node, and the charge term must only integrate
    # over the silicon part of that node's cell.
    mid = y[:-1] + 0.5 * np.diff(y)
    lo = np.concatenate([[y[0]], mid])
    hi = np.concatenate([mid, [y[-1]]])
    region_row = mesh.region.reshape(nx, ny)[0]
    hi_clip, lo_clip = hi, lo
    if np.any(region_row == OXIDE) and np.any(region_row == SILICON):
        first_ox = int(np.argmax(region_row == OXIDE))
        y_interface = y[first_ox - 1]  # interface lies on the last silicon node
        hi_clip = np.where(region_row == SILICON, np.minimum(hi, y_interface), hi)
        lo_clip = np.where(region_row == OXIDE, np.maximum(lo, y_interface), lo)
    wy_clip = hi_clip - lo_clip

    volume = (wx[:, None] * wy_clip[None, :]).reshape(nx * ny)
    return FvCoefficients(gx=gx, gy=gy, volume=volume)
