import math

import numpy as np
import pytest

from shockld.diagnostics import analytic_center_law
from shockld.grid import SpaceTimeGrid, WaveSpec
from shockld.noise import build_noise_model, unwhiten, whiten

RHO = math.exp(-0.1)
UNIT_JUMP = WaveSpec(2.0, 1.0, 1.0)


def tiny_grid(M, dx=0.5):
    # M cells of width dx; time block is irrelevant for the noise model
    return SpaceTimeGrid.from_spacing(0.0, M * dx, dx, 1.0, 0.5)


@pytest.fixture
def two_cell_model():
    # two interior cells dx = 0.5 apart, l_c = 5 -> correlation exp(-0.1)
    return build_noise_model("exponential", tiny_grid(4), sigma=1.0, l_c=5.0)


class TestBuild:
    def test_identity_is_exact(self):
        m = build_noise_model("identity", tiny_grid(6))
        assert m.size == 4
        assert np.array_equal(m.Phi, np.eye(4))

    def test_two_cell_exponential_by_hand(self, two_cell_model):
        m = two_cell_model
        assert np.allclose(m.Phi @ m.Phi.T, [[1.0, RHO], [RHO, 1.0]],
                           atol=1e-15)
        assert np.allclose(m.Phi, [[1.0, 0.0], [RHO, math.sqrt(1 - RHO ** 2)]],
                           atol=1e-14)

    def test_benchmark_grid_positive_definite(self, exp_model):
        # a triangular factor with a positive diagonal gives Phi Phi^T > 0
        assert np.array_equal(exp_model.Phi, np.tril(exp_model.Phi))
        assert exp_model.Phi.diagonal().min() > 0

    def test_factor_reproduces_covariance(self, exp_model, dense_covariance):
        C = dense_covariance(exp_model)
        err = np.linalg.norm(exp_model.Phi @ exp_model.Phi.T - C)
        assert err <= 1e-10 * np.linalg.norm(C)

    def test_parameter_validation(self):
        g = tiny_grid(6)
        with pytest.raises(ValueError):
            build_noise_model("exponential", g, sigma=0.0, l_c=1.0)
        with pytest.raises(ValueError):
            build_noise_model("exponential", g, sigma=1.0, l_c=-1.0)
        with pytest.raises(ValueError):
            build_noise_model("gaussian", g)

    def test_sigma_doubling_scales_exactly(self):
        g = tiny_grid(8)
        m1 = build_noise_model("exponential", g, sigma=1.0, l_c=2.0)
        m2 = build_noise_model("exponential", g, sigma=2.0, l_c=2.0)
        assert np.array_equal(m2.Phi, 2.0 * m1.Phi)
        assert m2.covariance_sum == 4.0 * m1.covariance_sum

    def test_long_correlation_builds(self, table1_grid, dense_covariance):
        # rho rounds to 1, so C is numerically rank one and a dense Cholesky
        # factorization of it fails without a diagonal jitter; the closed
        # form keeps s = sqrt(1e-17)
        m = build_noise_model("exponential", table1_grid, sigma=1.0, l_c=1e17)
        assert m.rho == 1.0
        C = dense_covariance(m)
        err = np.linalg.norm(m.Phi @ m.Phi.T - C)
        assert err <= 1e-12 * np.linalg.norm(C)
        r = np.random.default_rng(3).standard_normal((3, m.size))
        assert np.allclose(unwhiten(m, whiten(m, r)), r, rtol=0, atol=1e-12)

    def test_underflowing_spacing_is_refused(self):
        # 2 dx / l_c = 2e-324 underflows to 0, so s = 0 and Phi is singular
        g = SpaceTimeGrid.from_spacing(0.0, 4e-16, 1e-16, 1.0, 0.5)
        with pytest.raises(ValueError, match="covariance not positive definite"):
            build_noise_model("exponential", g, sigma=1.0, l_c=1e308)

    @pytest.mark.parametrize("dx", [0.5, 0.25, 0.125])
    def test_closed_form_matches_dense_cholesky(self, dx, dense_covariance):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        m = build_noise_model("exponential", g, sigma=1.3, l_c=5.0)
        ref = np.linalg.cholesky(dense_covariance(m))
        assert np.abs(m.Phi - ref).max() <= 1e-14 * 1.3
        assert np.array_equal(m.Phi, np.tril(m.Phi))


class TestWhiten:
    def test_identity_passthrough(self):
        # identity noise runs the same recurrence with rho = 0
        m = build_noise_model("identity", tiny_grid(6))
        r = np.array([1.0, -2.0, 3.0, 0.5])
        assert m.rho == 0.0
        assert np.array_equal(whiten(m, r), r)
        assert np.array_equal(whiten(m, np.stack([r, -3.0 * r])),
                              np.stack([r, -3.0 * r]))

    def test_two_cell_forward_substitution(self, two_cell_model):
        y = whiten(two_cell_model, np.array([1.0, RHO]))
        assert np.allclose(y, [1.0, 0.0], atol=1e-14)

    def test_round_trip(self, exp_model):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(exp_model.size)
        back = exp_model.Phi @ whiten(exp_model, r)
        assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)

    def test_linearity(self, exp_model):
        rng = np.random.default_rng(8)
        r, s = rng.standard_normal((2, exp_model.size))
        lhs = whiten(exp_model, 2.5 * r - 0.3 * s)
        rhs = 2.5 * whiten(exp_model, r) - 0.3 * whiten(exp_model, s)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("model_name", ["identity_model", "exp_model"])
    def test_wrong_last_axis_refused(self, model_name, request):
        m = request.getfixturevalue(model_name)
        for shape in [(m.size + 1,), (m.size, 3), (2, m.size - 1), ()]:
            with pytest.raises(ValueError, match="interior cells"):
                whiten(m, np.zeros(shape))

    def test_batch_axis(self, exp_model):
        rng = np.random.default_rng(9)
        r = rng.standard_normal((5, exp_model.size))
        batch = whiten(exp_model, r)
        rows = np.stack([whiten(exp_model, row) for row in r])
        assert np.allclose(batch, rows, atol=1e-13)
        assert np.allclose(unwhiten(exp_model, batch), r, atol=1e-10)


def covariance_mass(model):
    """dx^2 sum_ij C_ij, read off the center law's variance eps^2 t dx sum C
    / jump^2 at eps = t = jump = 1."""
    return model.grid.dx * analytic_center_law(1.0, 1.0, model, UNIT_JUMP)[1]


class TestTotalCovarianceMass:
    @pytest.mark.parametrize("dx", [0.5, 0.25, 0.125])
    def test_covariance_sum_matches_dense_kernel(self, dx, dense_covariance):
        # |Phi^T 1|^2 against the sum of the independently built kernel
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        m = build_noise_model("exponential", g, sigma=1.3, l_c=5.0)
        ref = float(dense_covariance(m).sum())
        assert abs(m.covariance_sum - ref) <= 1e-14 * ref

    def test_covariance_sum_exact_for_identity(self, table1_grid):
        m = build_noise_model("identity", table1_grid)
        assert m.covariance_sum == float(table1_grid.M - 2)

    def test_identity_three_interior_cells(self):
        m = build_noise_model("identity", tiny_grid(5))
        assert covariance_mass(m) == pytest.approx(0.75, abs=1e-15)

    def test_sigma_scaling_to_zero(self):
        g = tiny_grid(8)
        small = build_noise_model("exponential", g, sigma=1e-8, l_c=2.0)
        unit = build_noise_model("exponential", g, sigma=1.0, l_c=2.0)
        assert covariance_mass(small) == pytest.approx(
            1e-16 * covariance_mass(unit), rel=1e-12)
        assert covariance_mass(small) < 1e-12

    def test_short_correlation_limit_keeps_diagonal(self):
        g = tiny_grid(8)
        m = build_noise_model("exponential", g, sigma=1.3, l_c=1e-4)
        assert covariance_mass(m) == pytest.approx(
            g.dx ** 2 * 6 * 1.3 ** 2, rel=1e-12)
