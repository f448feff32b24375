import math

import numpy as np
import pytest

from wirepinn import fermi

# Dirichlet eta function at 3/2: (1 - 2**-0.5) * zeta(3/2)
F_HALF_AT_ZERO = 0.7651470246254077


class TestQuadratureOracle:
    def test_boltzmann_limit(self):
        assert fermi.fermi_half_quadrature(-20.0) == pytest.approx(math.exp(-20.0), rel=1e-6)

    def test_eta_zero_series_value(self):
        assert fermi.fermi_half_quadrature(0.0) == pytest.approx(F_HALF_AT_ZERO, abs=1e-5)

    def test_monotone(self):
        assert fermi.fermi_half_quadrature(2.0) > fermi.fermi_half_quadrature(1.0)


class TestApprox:
    def test_deep_boltzmann(self):
        # e^-10 = 4.5399929762484854e-05
        value = fermi.fermi_half(-10.0)[0]
        assert value == pytest.approx(4.5399929762484854e-05, rel=5e-3)
        assert value == pytest.approx(fermi.fermi_half_quadrature(-10.0), rel=5e-3)

    def test_eta_zero(self):
        assert fermi.fermi_half(0.0)[0] == pytest.approx(0.7651, rel=5e-3)

    def test_degenerate_sommerfeld(self):
        # leading Sommerfeld term (4 / (3 sqrt(pi))) * eta^(3/2) ~ 67.3 at eta = 20
        value = fermi.fermi_half(20.0)[0]
        assert value == pytest.approx(67.3, rel=5e-3)
        assert value == pytest.approx(fermi.fermi_half_quadrature(20.0), rel=5e-3)

    def test_accuracy_class_on_grid(self):
        # measured worst 3.79e-3
        grid = np.arange(-30.0, 50.0 + 0.025, 0.05)
        approx = fermi.fermi_half(grid)[0]
        quad = np.array([fermi.fermi_half_quadrature(e) for e in grid])
        assert np.max(np.abs(approx - quad) / quad) <= 5e-3

    def test_strictly_increasing(self):
        grid = np.arange(-30.0, 50.001, 0.01)
        values = fermi.fermi_half(grid)[0]
        assert np.all(np.diff(values) > 0)

    def test_vector_and_scalar_agree(self):
        grid = np.array([-400.0, -3.0, 0.5, 7.0])
        f, df = fermi.fermi_half(grid)
        assert f.shape == df.shape == grid.shape
        for i in range(len(grid)):
            fi, dfi = fermi.fermi_half(grid[i])
            assert type(fi) is type(dfi) is float
            assert (fi, dfi) == (f[i], df[i])


def _derivative_fd_error(etas):
    """Worst relative error of ``fermi_half``'s dF against central
    differences of the closed form with h = 1e-6."""
    h = 1e-6
    fd = (fermi.fermi_half(etas + h)[0] - fermi.fermi_half(etas - h)[0]) / (2 * h)
    return np.max(np.abs(fermi.fermi_half(etas)[1] - fd) / np.abs(fd))


class TestDerivative:
    @pytest.mark.parametrize("eta", [-5.0, 0.0, 5.0])
    def test_matches_central_differences(self, eta):
        h = 1e-6
        fd = (fermi.fermi_half(eta + h)[0] - fermi.fermi_half(eta - h)[0]) / (2 * h)
        assert fermi.fermi_half(eta)[1] == pytest.approx(fd, rel=1e-6)

    def test_random_etas_match_fd(self, rng):
        # measured worst 6.0e-9 on the even grid
        for etas in (rng.uniform(-25.0, 45.0, size=100), np.linspace(-25.0, 45.0, 200)):
            assert _derivative_fd_error(etas) <= 1e-6

    def test_fd_comparison_fails_under_skewed_derivative(self, skewed_derivative, rng):
        assert _derivative_fd_error(rng.uniform(-25.0, 45.0, size=100)) > 1e-6

    def test_boltzmann_ratio_tends_to_one(self):
        eta = -25.0
        f, df = fermi.fermi_half(eta)
        assert df / f == pytest.approx(1.0, rel=1e-9)

    def test_positive_everywhere(self):
        grid = np.arange(-30.0, 50.001, 0.05)
        assert np.all(fermi.fermi_half(grid)[1] > 0)

    def test_pow_free_forms_match_pow_forms(self):
        # the closure with eta**4, eta**3 and nu**-1.375 written out, on
        # test_accuracy_class_on_grid's 0.05 grid; measured worst 2.0 eps (F)
        # and 3.5 eps (dF) here, 2.2 and 4.9 on 400k uniform points, so
        # the bounds leave a 2x and 2.3x margin
        eta = np.arange(-30.0, 50.0 + 0.025, 0.05)
        g = np.exp(-0.17 * (eta + 1.0) ** 2)
        nu = eta**4 + 50.0 + 33.6 * eta * (1.0 - 0.68 * g)
        dnu = 4.0 * eta**3 + 33.6 * (1.0 - 0.68 * g) + 33.6 * 0.2312 * eta * (eta + 1.0) * g
        e = np.exp(-eta)
        c = 0.75 * math.sqrt(math.pi)
        f_pow = 1.0 / (e + c * nu**-0.375)
        df_pow = (e + 0.375 * c * nu**-1.375 * dnu) * f_pow * f_pow
        f, df = fermi.fermi_half(eta)
        eps = np.finfo(float).eps
        assert np.max(np.abs(f - f_pow) / f_pow) <= 4 * eps
        assert np.max(np.abs(df - df_pow) / df_pow) <= 8 * eps

    def test_one_closure_no_derivative_twin(self):
        # the derivative comes with the value; no separate *_deriv function
        assert not [name for name in dir(fermi) if name.endswith("_deriv")]


class TestInverse:
    @pytest.mark.parametrize("eta", [-5.0, 0.0, 5.0])
    def test_round_trip(self, eta):
        u = fermi.fermi_half(eta)[0]
        assert fermi.inverse_fermi_half(u) == pytest.approx(eta, abs=1e-9)

    def test_boltzmann_limit(self):
        u = 1e-12
        assert fermi.inverse_fermi_half(u) == pytest.approx(math.log(u), rel=1e-6)

    def test_residual_tolerance(self):
        # measured worst 6.8e-14; the decades of u run from 1e-300, where
        # F(log u) rounds above u for 128 of the 307, up to 1e6
        on_grid = fermi.fermi_half(np.linspace(-20.0, 20.0, 9))[0]
        for u in (1e-8, 0.5, 3.4965, 40.0, *on_grid, *np.logspace(-300, 6, 307)):
            eta = fermi.inverse_fermi_half(u)
            assert abs(fermi.fermi_half(eta)[0] - u) <= 1e-12 * u

    def test_source_drain_boundary_value(self, params):
        # charge neutrality at the 1e20 contacts, cross-checked via quadrature
        u = 1e20 / params.n_c
        eta = fermi.inverse_fermi_half(u)
        assert fermi.fermi_half_quadrature(eta) == pytest.approx(u, rel=5e-3)
        assert 2.0 < eta < 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fermi.inverse_fermi_half(0.0)
        with pytest.raises(ValueError):
            fermi.inverse_fermi_half(-1.0)


class TestElectronDensity:
    def test_at_reference_potential(self, params):
        n = fermi.electron_density(params.phi_ref, params)[0]
        assert n == pytest.approx(0.7651 * params.n_c, rel=5e-3)

    def test_depletion_limit(self, params):
        assert fermi.electron_density(params.phi_ref - 3.0, params)[0] < 1e-20 * params.n_c

    def test_contact_density_by_construction(self, params):
        phi_bi = params.phi_ref + params.v_t * fermi.inverse_fermi_half(1e20 / params.n_c)
        assert fermi.electron_density(phi_bi, params)[0] == pytest.approx(1e20, rel=1e-9)

    def test_region_mask(self, params):
        phi = np.array([0.1, 0.2, 0.3])
        mask = np.array([True, False, True])
        n, dn = fermi.electron_density(phi, params, mask)
        assert n[1] == 0.0 and n[0] > 0 and n[2] > 0
        assert dn[1] == 0.0 and dn[0] > 0 and dn[2] > 0

    def test_strictly_increasing_in_phi(self, params, rng):
        phi = np.sort(rng.uniform(-0.5, 1.0, size=200))
        n = fermi.electron_density(phi, params)[0]
        assert np.all(np.diff(n) > 0)

    def test_deriv_matches_fd(self, params):
        phi = np.linspace(-0.2, 0.9, 50)
        h = 1e-7
        fd = (fermi.electron_density(phi + h, params)[0] - fermi.electron_density(phi - h, params)[0]) / (2 * h)
        an = fermi.electron_density(phi, params)[1]
        assert np.max(np.abs(an - fd) / np.abs(fd)) <= 1e-5


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            fermi.SemiconductorParams(n_c=-1.0, v_t=0.025, phi_ref=0.0)
        with pytest.raises(ValueError):
            fermi.SemiconductorParams(n_c=1e19, v_t=0.0, phi_ref=0.0)
