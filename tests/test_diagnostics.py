import types

import numpy as np
import pytest

from shockld.diagnostics import (analytic_center_law,
                                 analytic_exit_probability, fit_scaling,
                                 transition_margin_ok, wave_centers)
from shockld.grid import WaveSpec, sample_profile
from shockld.montecarlo import sample_terminal_states
from shockld.noise import build_noise_model
from shockld.optimize import RareEventSpec, linear_shift_path


class TestWaveCenter:
    def test_zero_at_reference(self, wave, table1_grid):
        ref = sample_profile(wave, table1_grid)
        assert wave_centers(ref, ref, wave, table1_grid.dx) == 0.0

    def test_recovers_shift(self, wave, table1_grid):
        ref = sample_profile(wave, table1_grid)
        shifted = sample_profile(wave, table1_grid, shift=5.0)
        c = wave_centers(shifted, ref, wave, table1_grid.dx)
        assert abs(c - 5.0) <= 2 * table1_grid.dx

    def test_additivity_per_cell(self, wave, table1_grid):
        ref = sample_profile(wave, table1_grid)
        bumped = ref.copy()
        bumped[17] += 0.3
        c = wave_centers(bumped, ref, wave, table1_grid.dx)
        assert c == pytest.approx(0.3 * table1_grid.dx / wave.jump, abs=1e-15)

    def test_equal_states_error(self, table1_grid):
        flat = types.SimpleNamespace(u_minus=1.0, u_plus=1.0)
        with pytest.raises(ValueError):
            wave_centers(np.ones(table1_grid.M), np.ones(table1_grid.M),
                         flat, table1_grid.dx)

    def test_series_starts_at_zero(self, wave, table1_grid):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = linear_shift_path(scen, table1_grid)
        ref = sample_profile(wave, table1_grid)
        centers = wave_centers(path.q, ref, wave, table1_grid.dx)
        assert centers.shape == (table1_grid.N + 1,)
        assert centers[0] == 0.0
        # shifted-profile slices track the imposed shift
        assert abs(centers[-1] - 5.0) <= 2 * table1_grid.dx


class TestCenterLaw:
    def test_zero_time(self, exp_model, wave):
        mean, var = analytic_center_law(0.1, 0.0, exp_model, wave)
        assert mean == 0.0 and var == 0.0

    def test_moving_frame_mean_is_zero(self, exp_model, wave):
        mean, _ = analytic_center_law(0.1, 1.0, exp_model, wave)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_lab_frame_mean_advances(self, table1_grid):
        lab = WaveSpec(2.0, 1.0, 1.0, gamma=0.0)
        model = build_noise_model("identity", table1_grid)
        mean, _ = analytic_center_law(0.1, 2.0, model, lab)
        assert mean == pytest.approx(3.0)

    def test_eps_scaling(self, exp_model, wave):
        _, v1 = analytic_center_law(0.1, 1.0, exp_model, wave)
        _, v2 = analytic_center_law(0.2, 1.0, exp_model, wave)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-14)

    def test_variance_matches_simulation(self, wave, table1_grid, exp_model):
        # moderate-size empirical check; the full 1e5-sample version runs in
        # the acceptance suite
        scen = RareEventSpec("displacement", wave, x0=5.0)
        term = sample_terminal_states(scen, exp_model, 0.1, 20_000, seed=2718)
        ref = sample_profile(wave, table1_grid)
        centers = wave_centers(term, ref, wave, table1_grid.dx)
        _, var = analytic_center_law(0.1, table1_grid.T, exp_model, wave)
        assert abs(centers.var() - var) / var < 0.07


class TestExitProbability:
    def test_half_at_zero_threshold(self, exp_model, wave):
        p = analytic_exit_probability(0.0, 1.0, 0.1, exp_model, wave)
        assert p == 0.5

    def test_vanishes_at_infinity(self, exp_model, wave):
        assert analytic_exit_probability(1e6, 1.0, 0.1, exp_model, wave) == 0.0

    def test_monotone_in_threshold_and_noise(self, exp_model, wave):
        args = (1.0, 0.1, exp_model, wave)
        ps = [analytic_exit_probability(x0, *args) for x0 in (1.0, 2.0, 4.0)]
        assert ps[0] > ps[1] > ps[2] > 0
        p_small = analytic_exit_probability(2.0, 1.0, 0.05, exp_model, wave)
        p_large = analytic_exit_probability(2.0, 1.0, 0.2, exp_model, wave)
        assert p_small < ps[1] < p_large

    def test_small_noise_log_asymptotics(self, exp_model, table1_grid, wave,
                                         dense_covariance):
        # eps^2 log P -> -x0^2 jump^2 / (2 T dx sum C) as eps -> 0; the
        # Gaussian exponent -x0^2 / (2 var) carries all of it at every eps
        x0, T = 1.0, 1.0
        mass = table1_grid.dx * float(dense_covariance(exp_model).sum())
        limit = -x0 ** 2 * wave.jump ** 2 / (2 * T * mass)
        for eps in (1e-3, 0.1, 0.15):
            _, var = analytic_center_law(eps, T, exp_model, wave)
            assert eps ** 2 * (-x0 ** 2 / (2 * var)) == pytest.approx(
                limit, rel=1e-14)

    def test_mass_relation_to_quadrature(self, exp_model, table1_grid, wave,
                                         dense_covariance):
        # the center law uses dx * sum C = quadrature mass dx^2 sum C / dx
        _, var = analytic_center_law(1.0, 1.0, exp_model, wave)
        mass = table1_grid.dx ** 2 * float(dense_covariance(exp_model).sum())
        assert var * wave.jump ** 2 == pytest.approx(mass / table1_grid.dx,
                                                     rel=1e-14)


class TestFitScaling:
    def test_exact_quadratic(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        coeffs, r2 = fit_scaling(xs, 2.0 * xs ** 2, "quadratic")
        assert coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_with_offset(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        coeffs, r2 = fit_scaling(xs, 0.5 * xs + 2.0, "linear")
        assert coeffs[0] == pytest.approx(0.5, abs=1e-12)
        assert coeffs[1] == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_scaling([1.0, 2.0], [1.0, 2.0], "linear")

    def test_degenerate_design(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_scaling([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "quadratic")

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            fit_scaling([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "cubic")


class TestMarginCheck:
    def test_center_of_domain_ok(self, table1_grid, wave):
        assert transition_margin_ok(0.0, table1_grid, wave)
        assert transition_margin_ok(5.0, table1_grid, wave)

    def test_near_boundary_flagged(self, table1_grid, wave):
        assert not transition_margin_ok(19.0, table1_grid, wave)
        assert not transition_margin_ok(-14.0, table1_grid, wave)


class TestNoiselessCenterDrift:
    def test_stays_within_two_cells(self, wave, table1_grid, identity_model):
        from shockld.fluxes import euler_step
        from shockld.optimize import RareEventSpec, boundary_edges
        ref = sample_profile(wave, table1_grid)
        edges = boundary_edges(RareEventSpec("displacement", wave),
                               table1_grid)
        q = ref.copy()
        worst = 0.0
        for n in range(table1_grid.N):
            euler_step(q, table1_grid, wave, edges[n + 1])
            worst = max(worst, abs(wave_centers(q, ref, wave, table1_grid.dx)))
        assert worst <= 2 * table1_grid.dx
