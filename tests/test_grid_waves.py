import math

import numpy as np
import pytest

from shockld.grid import SpaceTimeGrid, WaveSpec, profile, sample_profile


def lab_flux(u):
    return 0.5 * u * u


class TestSpaceTimeGrid:
    def test_centers_hit_the_half_cells(self):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        assert g.M == 70 and g.N == 20
        c = g.centers()
        assert c[0] == pytest.approx(g.L + g.dx / 2, abs=1e-14)
        assert c[-1] == pytest.approx(g.R - g.dx / 2, abs=1e-14)
        assert np.allclose(np.diff(c), g.dx)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(L=0, R=1, M=3, T=1, N=1)
        with pytest.raises(ValueError):
            SpaceTimeGrid(L=0, R=1, M=8, T=1, N=0)

    def test_spacing_must_divide(self):
        with pytest.raises(ValueError, match="dx"):
            SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.3, 1.0, 0.05)
        with pytest.raises(ValueError, match="dt"):
            SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.03)


class TestWaveSpec:
    def test_rejects_increasing_profile(self):
        with pytest.raises(ValueError):
            WaveSpec(u_minus=1.0, u_plus=2.0, D=1.0)

    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValueError):
            WaveSpec(u_minus=2.0, u_plus=1.0, D=0.0)

    def test_moving_frame_speed_is_zero_at_rh_gamma(self):
        w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        assert w.wave_speed() == pytest.approx(0.0, abs=1e-15)


class TestRankineHugoniot:
    # WaveSpec.wave_speed is (F(u_plus) - F(u_minus)) / (u_plus - u_minus);
    # gamma = 0 is the lab-frame Burgers flux u^2/2
    def test_burgers_2_1(self):
        assert WaveSpec(2.0, 1.0, 1.0, gamma=0).wave_speed() == \
            pytest.approx(1.5)

    def test_odd_symmetry(self):
        assert WaveSpec(1.0, -1.0, 1.0, gamma=0).wave_speed() == \
            pytest.approx(0.0)

    def test_moving_frame_stationary(self):
        # (0.125 - 0.125) / (1 - 2) is -0.0: the benchmark config's analytic
        # center mean, whose sign bit center_diagnostics.csv writes
        s = WaveSpec(2.0, 1.0, 1.0, gamma=1.5).wave_speed()
        assert s == 0.0 and math.copysign(1.0, s) == -1.0

    def test_degenerate_jump(self):
        # no speed is formed from equal end states: the wave is refused
        with pytest.raises(ValueError, match="entropy-admissible"):
            WaveSpec(1.0, 1.0, 1.0, gamma=0)


class TestProfile:
    def setup_method(self):
        self.w = WaveSpec(2.0, 1.0, 1.0)

    def test_midpoint(self):
        assert profile(self.w, 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_asymptotes(self):
        assert profile(self.w, -1e3) == pytest.approx(2.0, abs=1e-14)
        assert profile(self.w, 1e3) == pytest.approx(1.0, abs=1e-14)

    def test_solves_profile_ode_in_lab_frame(self):
        # independent check: differentiate the sampled profile numerically
        # and plug into D U' = F(U) - F(u-) - s (U - u-)
        s = self.w.wave_speed()
        h = 1e-3
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            du = (-profile(self.w, x + 2 * h) + 8 * profile(self.w, x + h)
                  - 8 * profile(self.w, x - h) + profile(self.w, x - 2 * h)) / (12 * h)
            u = profile(self.w, x)
            rhs = lab_flux(u) - lab_flux(2.0) - s * (u - 2.0)
            assert abs(self.w.D * du - rhs) < 1e-10

    def test_same_curve_for_any_frame_speed(self):
        moving = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        x = np.linspace(-4, 4, 17)
        assert np.array_equal(profile(self.w, x), profile(moving, x))

    def test_oleinik_condition_numerically(self):
        s = self.w.wave_speed()
        x = np.linspace(-8, 8, 401)
        u = profile(self.w, x)
        inside = (u > 1.0 + 1e-9) & (u < 2.0 - 1e-9)
        assert np.all(lab_flux(u[inside]) - lab_flux(2.0) - s * (u[inside] - 2.0) < 0)


class TestSampleProfile:
    def setup_method(self):
        self.w = WaveSpec(2.0, 1.0, 1.0)
        self.g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)

    def test_values_are_center_samples(self):
        q = sample_profile(self.w, self.g, shift=0.7)
        assert np.array_equal(q, profile(self.w, self.g.centers() - 0.7))

    def test_center_cell_near_transition_midpoint(self):
        q = sample_profile(self.w, self.g)
        c = self.g.centers()
        m = int(np.argmin(np.abs(c)))
        variation = abs(profile(self.w, c[m] - self.g.dx / 2)
                        - profile(self.w, c[m] + self.g.dx / 2))
        assert abs(q[m] - 1.5) <= variation

    def test_one_cell_shift_moves_indices(self):
        q0 = sample_profile(self.w, self.g, shift=0.0)
        q1 = sample_profile(self.w, self.g, shift=self.g.dx)
        assert np.allclose(q1[1:], q0[:-1], atol=1e-15)

    def test_tail_values(self):
        # tanh tails at the domain edges: 0.5 (1 - tanh(14.75/4)) and
        # 0.5 (1 - tanh(19.75/4)), frozen from the closed form
        q = sample_profile(self.w, self.g)
        assert q[0] == pytest.approx(2.0 - 6.263341581094206e-4, abs=1e-12)
        assert q[-1] == pytest.approx(1.0 + 5.144221374209224e-5, abs=1e-12)
        assert abs(q[0] - 2.0) < 1e-3 and abs(q[-1] - 1.0) < 1e-4

    def test_strictly_decreasing(self):
        q = sample_profile(self.w, self.g)
        assert np.all(np.diff(q) < 0)
