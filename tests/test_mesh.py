import numpy as np
import pytest

from wirepinn.mesh import (
    CONTACT_DRAIN,
    CONTACT_GATE,
    CONTACT_NONE,
    CONTACT_SOURCE,
    ConfigError,
    DeviceConfig,
    OXIDE,
    SILICON,
    assemble_fv_coefficients,
    build_device_mesh,
    load_device_config,
    nearest_node,
    probe_node,
)


class TestBuild:
    def test_default_node_count(self, default_mesh):
        assert default_mesh.n_nodes == 2193
        assert default_mesh.nx * default_mesh.ny == 129 * 17

    def test_doping_levels(self, default_mesh):
        m = default_mesh
        assert m.net_doping[0] == pytest.approx(1e20)  # node (ix, iy) = (0, 0)
        center = nearest_node(m, 0.0405, 0.0)
        assert m.net_doping[center] == pytest.approx(-1e10)

    def test_oxide_exactly_above_radius(self, default_mesh):
        m = default_mesh
        region = m.region.reshape(m.nx, m.ny)
        for j, y in enumerate(m.y_nodes):
            expected = OXIDE if y > 0.004 else SILICON
            assert np.all(region[:, j] == expected)

    def test_contacts_on_boundaries(self, default_mesh):
        m = default_mesh
        iy = np.arange(m.n_nodes) % m.ny
        ix = np.arange(m.n_nodes) // m.ny
        gate = m.contact == CONTACT_GATE
        assert gate.any()
        assert np.all(iy[gate] == m.ny - 1)
        for tag, col in ((CONTACT_SOURCE, 0), (CONTACT_DRAIN, m.nx - 1)):
            nodes = m.contact == tag
            assert nodes.any()
            assert np.all(ix[nodes] == col)
            assert np.all(m.region[nodes] == SILICON)

    def test_probe_coordinates_on_grid(self, default_mesh):
        m = default_mesh
        assert m.x_nodes[64] == 0.0405
        assert m.y_nodes[6] == 0.002

    def test_mirror_symmetry(self, default_mesh):
        m = default_mesh
        flip = {CONTACT_SOURCE: CONTACT_DRAIN, CONTACT_DRAIN: CONTACT_SOURCE,
                CONTACT_GATE: CONTACT_GATE, CONTACT_NONE: CONTACT_NONE}
        region = m.region.reshape(m.nx, m.ny)
        contact = m.contact.reshape(m.nx, m.ny)
        doping = m.net_doping.reshape(m.nx, m.ny)
        mirrored_contact = np.vectorize(flip.get)(contact[::-1, :])
        assert np.array_equal(region, region[::-1, :])
        assert np.array_equal(contact, mirrored_contact)
        assert np.array_equal(doping, doping[::-1, :])

    def test_positive_permittivity(self, default_mesh):
        assert all(eps > 0 for eps in default_mesh.permittivity.values())

    def test_fingerprint_sensitive_to_geometry(self, default_mesh):
        other = build_device_mesh(DeviceConfig(length_nm=80.0))
        assert other.fingerprint() != default_mesh.fingerprint()
        again = build_device_mesh()
        assert again.fingerprint() == default_mesh.fingerprint()

    @pytest.mark.parametrize("bad", [
        dict(nx=2),
        dict(ny=5),
        dict(radius_nm=-1.0),
        dict(length_nm=0.0),
        dict(gate_span_nm=(50.0, 40.0)),
        dict(gate_span_nm=(10.0, 200.0)),
        dict(nd_cm3=0.0),
    ])
    def test_degenerate_geometry_rejected(self, bad):
        with pytest.raises(ConfigError):
            build_device_mesh(DeviceConfig(**bad))

    def test_immutable_arrays(self, default_mesh):
        with pytest.raises(ValueError):
            default_mesh.net_doping[0] = 0.0


class TestNearestNode:
    def test_probe_node(self, default_mesh, small_mesh):
        node = nearest_node(default_mesh, 0.0405, 0.002)
        ny = default_mesh.ny
        assert (default_mesh.x_nodes[node // ny], default_mesh.y_nodes[node % ny]) == (0.0405, 0.002)
        # the probe the traces read is that node on both test devices
        assert probe_node(default_mesh) == node == 1094
        assert probe_node(small_mesh) == nearest_node(small_mesh, 0.0405, 0.002) == 66

    def test_probe_node_follows_geometry(self):
        m = build_device_mesh(DeviceConfig(length_nm=60.0, radius_nm=5.0))
        node = probe_node(m)
        assert node == nearest_node(m, 0.030, 0.0025)
        assert (m.x_nodes[node // m.ny], m.y_nodes[node % m.ny]) == pytest.approx((0.030, 0.0025))

    def test_origin(self, default_mesh):
        assert nearest_node(default_mesh, 0.0, 0.0) == 0

    def test_clamps_outside_domain(self, default_mesh):
        assert nearest_node(default_mesh, -1.0, -1.0) == 0

    def test_tie_breaks_to_lowest_index(self, default_mesh):
        m = default_mesh
        x_mid = 0.5 * (m.x_nodes[3] + m.x_nodes[4])
        node = nearest_node(m, x_mid, m.y_nodes[0])
        assert node == 3 * m.ny  # node (3, 0)


class TestFvCoefficients:
    def test_uniform_spacing_conductance(self, default_mesh, default_coeffs):
        # interior silicon x-edge: g = eps0 * eps_si * w_y / dx (cm units)
        m = default_mesh
        dx = (m.x_nodes[1] - m.x_nodes[0]) * 1e-4
        wy = (m.y_nodes[2] - m.y_nodes[0]) / 2 * 1e-4
        expected = 8.8541878128e-14 * 11.7 * wy / dx
        assert default_coeffs.gx[40, 5] == pytest.approx(expected, rel=1e-12)

    def test_interface_edge_harmonic_mean(self, default_mesh, default_coeffs):
        m = default_mesh
        n_si = int(np.sum(m.y_nodes <= 0.004))
        j = n_si - 1  # edge crossing from the last silicon row to the first oxide row
        dy = (m.y_nodes[j + 1] - m.y_nodes[j]) * 1e-4
        wx = (m.x_nodes[2] - m.x_nodes[0]) / 2 * 1e-4
        harmonic = 2.0 / (1.0 / 11.7 + 1.0 / 3.9)
        expected = 8.8541878128e-14 * harmonic * wx / dy
        assert default_coeffs.gy[1, j] == pytest.approx(expected, rel=1e-12)

    def test_constant_field_has_zero_divergence(self, default_mesh, default_coeffs):
        m, co = default_mesh, default_coeffs
        phi = np.full((m.nx, m.ny), 3.7)
        div = np.zeros((m.nx, m.ny))
        fx = co.gx * (phi[1:, :] - phi[:-1, :])
        div[:-1, :] += fx
        div[1:, :] -= fx
        fy = co.gy * (phi[:, 1:] - phi[:, :-1])
        div[:, :-1] += fy
        div[:, 1:] -= fy
        assert np.all(div == 0.0)

    def test_silicon_volume_matches_cross_section(self, default_mesh, default_coeffs):
        m = default_mesh
        total = default_coeffs.volume[m.silicon_mask()].sum()
        analytic = (m.x_nodes[-1] - m.x_nodes[0]) * 1e-4 * 0.004e-4 * 1.0
        assert abs(total - analytic) / analytic <= 1e-12

    def test_all_positive(self, default_coeffs):
        assert np.all(default_coeffs.gx > 0)
        assert np.all(default_coeffs.gy > 0)
        assert np.all(default_coeffs.volume > 0)


class TestConfigFile:
    def test_round_trip_keys(self, tmp_path):
        path = tmp_path / "device.cfg"
        path.write_text(
            "# custom device\n"
            "radius_nm = 4\n"
            "tox_nm = 1\n"
            "length_nm = 81\n"
            "gate_span_nm = 31.5 49.5\n"
            "nd_cm3 = 1e20\n"
            "na_cm3 = 1e10\n"
            "nx = 129\n"
            "ny = 17\n"
            "eps_si = 11.7\n"
            "eps_ox = 3.9\n"
        )
        cfg = load_device_config(path)
        assert cfg == DeviceConfig()

    def test_comma_gate_span(self, tmp_path):
        path = tmp_path / "device.cfg"
        path.write_text("gate_span_nm = 30,50\n")
        assert load_device_config(path).gate_span_nm == (30.0, 50.0)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "device.cfg"
        path.write_text("radius_um = 4\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_device_config(path)

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "device.cfg"
        path.write_text("nx = 17\nradius_nm 4\n")
        with pytest.raises(ConfigError, match=r":2: expected 'key = value', got 'radius_nm 4'"):
            load_device_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "device.cfg"
        path.write_text("radius_nm = 4\nnx = eleven\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_device_config(path)
