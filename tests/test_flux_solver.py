import numpy as np
import pytest

from shockld.fluxes import (cfl_number, check_cfl, drift, euler_step,
                            godunov_flux, godunov_flux_derivs, pin_edges)
from shockld.grid import SpaceTimeGrid, WaveSpec, sample_profile


def branch_form_flux(ql, qr, gamma):
    """The Godunov flux as an explicit case split of its definition."""
    fl = 0.5 * (ql - gamma) ** 2
    fr = 0.5 * (qr - gamma) ** 2
    increasing = ql <= qr
    sonic_inside = increasing & (ql <= gamma) & (gamma <= qr)
    F = np.where(increasing, np.minimum(fl, fr), np.maximum(fl, fr))
    return np.where(sonic_inside, 0.0, F)


def branch_form_drift(values, grid, wave):
    """The drift from case-split fluxes, as a difference of total fluxes."""
    ql, qr = values[..., :-1], values[..., 1:]
    G = branch_form_flux(ql, qr, wave.gamma) * (1.0 / grid.dx) \
        - (qr - ql) * (wave.D / (grid.dx * grid.dx))
    return G[..., :-1] - G[..., 1:]


def divide_form_drift(values, grid, wave):
    """The drift as flux and stencil differences divided by dx and dx^2."""
    F = godunov_flux(values[..., :-1], values[..., 1:], wave.gamma)
    conv = (F[..., :-1] - F[..., 1:]) / grid.dx
    lap = values[..., 1:-1] * -2.0 + values[..., 2:] + values[..., :-2]
    return conv + wave.D * (lap / (grid.dx * grid.dx))


def branch_form_partials(ql, qr, gamma):
    """One-sided flux partials from the case split of the flux definition.

    Increasing data take the min of F over [q_l, q_r] (zero with the sonic
    point inside), decreasing data the max over the endpoints; ties and
    equal distances from gamma take the left state.
    """
    dl = ql - gamma
    dr = qr - gamma
    increasing = ql <= qr
    sonic_inside = increasing & (ql <= gamma) & (gamma <= qr)
    take_left = np.where(increasing, gamma <= ql, np.abs(dl) >= np.abs(dr))
    take_left = take_left | (ql == qr)
    dleft = np.where(take_left, dl, 0.0)
    dright = np.where(take_left, 0.0, dr)
    dleft = np.where(sonic_inside, 0.0, dleft)
    dright = np.where(sonic_inside, 0.0, dright)
    return dleft, dright


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def brute_force_flux(ql, qr, gamma, n=10_001):
    f = lambda q: 0.5 * (q - gamma) ** 2
    grid = np.linspace(min(ql, qr), max(ql, qr), n)
    return f(grid).min() if ql <= qr else f(grid).max()


class TestGodunovFlux:
    def test_shock_pair(self):
        assert godunov_flux(2.0, 1.0, 1.5) == pytest.approx(0.125, abs=1e-15)

    def test_sonic_interval(self):
        assert godunov_flux(1.0, 2.0, 1.5) == 0.0

    def test_sonic_state(self):
        assert godunov_flux(1.5, 1.5, 1.5) == 0.0

    def test_consistency(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-3, 3, 200)
        assert np.allclose(godunov_flux(q, q, 0.7), 0.5 * (q - 0.7) ** 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            ql, qr = rng.uniform(-3, 3, 2)
            gamma = rng.uniform(-2, 2)
            assert godunov_flux(ql, qr, gamma) == pytest.approx(
                brute_force_flux(ql, qr, gamma), abs=1e-6)

    def test_monotone_in_both_arguments(self):
        # nondecreasing in q_left, nonincreasing in q_right (finite differences)
        qs = np.linspace(-2.0, 2.0, 41)
        gamma = 0.3
        ql, qr = np.meshgrid(qs, qs, indexing="ij")
        h = 1e-6
        dql = (godunov_flux(ql + h, qr, gamma) - godunov_flux(ql - h, qr, gamma)) / (2 * h)
        dqr = (godunov_flux(ql, qr + h, gamma) - godunov_flux(ql, qr - h, gamma)) / (2 * h)
        assert np.all(dql >= -1e-9)
        assert np.all(dqr <= 1e-9)

    def test_derivs_match_finite_differences_off_kinks(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            ql, qr = rng.uniform(-3, 3, 2)
            gamma = rng.uniform(-2, 2)
            # skip the tie and sonic-entry neighborhoods
            if abs(ql - qr) < 1e-3 or abs(ql + qr - 2 * gamma) < 1e-3 or \
                    abs(ql - gamma) < 1e-3 or abs(qr - gamma) < 1e-3:
                continue
            da, db = godunov_flux_derivs(ql, qr, gamma)
            h = 1e-7
            fa = (godunov_flux(ql + h, qr, gamma) - godunov_flux(ql - h, qr, gamma)) / (2 * h)
            fb = (godunov_flux(ql, qr + h, gamma) - godunov_flux(ql, qr - h, gamma)) / (2 * h)
            assert da == pytest.approx(fa, abs=1e-6)
            assert db == pytest.approx(fb, abs=1e-6)
            checked += 1

    def test_derivs_left_state_at_tie(self):
        da, db = godunov_flux_derivs(2.0, 2.0, 0.5)
        assert da == 1.5 and db == 0.0
        # a tie below gamma: the closed form alone would take the right state
        da, db = godunov_flux_derivs(0.25, 0.25, 0.5)
        assert da == -0.25 and db == 0.0

    @pytest.mark.parametrize("gamma", [1.5, 0.4, 0.0, -0.3])
    def test_partials_match_branch_form_bit_for_bit(self, gamma):
        rng = np.random.default_rng(6)
        up, down = np.nextafter(gamma, np.inf), np.nextafter(gamma, -np.inf)
        # ties above, at and below gamma, the sonic point and its neighbours
        levels = np.array([gamma - 0.5, down, gamma, up, gamma + 0.5,
                           gamma - 1e-300, gamma + 1e-9, -3.0, 3.0])
        grid = np.meshgrid(levels, levels, indexing="ij")
        a = rng.uniform(-3, 3, 20_000)
        b = rng.uniform(-3, 3, 20_000)
        tie = rng.random(a.size) < 0.1
        b[tie] = a[tie]
        for ql, qr in (grid, (a, b), (rng.choice(levels, 5000),
                                      rng.choice(levels, 5000))):
            new = godunov_flux_derivs(ql, qr, gamma)
            ref = branch_form_partials(ql, qr, gamma)
            assert all(same_bits(x, y) for x, y in zip(new, ref))
        for pair in ((gamma, gamma), (1.0, 1.0), (-1.0, -1.0), (1.0, -0.2)):
            assert all(same_bits(x, y) for x, y in zip(
                godunov_flux_derivs(*pair, gamma),
                branch_form_partials(*map(np.float64, pair), gamma)))


class TestDrift:
    @pytest.mark.parametrize("gamma", [1.5, 0.0, -0.3])
    def test_matches_branch_form_bit_for_bit(self, gamma):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        w = WaveSpec(2.0, 1.0, 1.0, gamma=gamma)
        rng = np.random.default_rng(7)
        levels = np.array([gamma - 0.5, gamma, gamma + 0.5])
        cases = {
            "random": rng.normal(gamma, 1.0, (256, g.M)),
            # ties q_l = q_r below, at and above gamma, mixed with jumps
            "ties": rng.choice(levels, (256, g.M)),
            "all at gamma": np.full((2, g.M), gamma),
            "near sonic": rng.normal(gamma, 1e-9, (64, g.M)),
            "one slice": rng.normal(gamma, 1.0, g.M),
        }
        for name, q in cases.items():
            assert same_bits(drift(q, g, w), branch_form_drift(q, g, w)), name

    @pytest.mark.parametrize("dx", [0.5, 0.35, 0.1, 0.7, 0.25])
    @pytest.mark.parametrize("D", [1.0, 0.37, 1e-300])
    def test_matches_branch_form_across_spacings(self, dx, D):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        rng = np.random.default_rng(9)
        for gamma in (1.5, 0.0, -0.3, 0.4):
            w = WaveSpec(2.0, 1.0, D, gamma=gamma)
            levels = np.array([gamma - 0.5, gamma, gamma + 0.5])
            for q in (rng.normal(gamma, 1.0, (64, g.M)),
                      rng.choice(levels, (64, g.M)),
                      rng.normal(gamma, 1e-9, (16, g.M))):
                assert same_bits(drift(q, g, w), branch_form_drift(q, g, w))

    @pytest.mark.parametrize("dx", [0.5, 0.35, 0.1])
    @pytest.mark.parametrize("D", [1.0, 0.37])
    def test_within_ulps_of_divide_form(self, dx, D):
        # the rounding differs from dividing the flux and stencil
        # differences; bound it in ulps of the summed term magnitudes
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        w = WaveSpec(2.0, 1.0, D, gamma=1.5)
        q = np.random.default_rng(10).normal(1.5, 1.0, (256, g.M))
        F = godunov_flux(q[:, :-1], q[:, 1:], w.gamma)
        scale = (F[:, :-1] + F[:, 1:]) / dx + D * (
            np.abs(q[:, :-2]) + 2.0 * np.abs(q[:, 1:-1]) + np.abs(q[:, 2:])) \
            / (dx * dx)
        err = np.abs(drift(q, g, w) - divide_form_drift(q, g, w))
        assert np.all(err <= 8 * np.spacing(scale))
        assert np.any(err > 0)

    def test_out_matches_allocating_call(self):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        qT = np.random.default_rng(11).normal(1.5, 1.0, (g.M, 40))
        for q in (np.ascontiguousarray(qT.T), qT.T):   # C and Fortran order
            ref = drift(q, g, w)
            out = np.empty_like(ref)
            assert drift(q, g, w, out=out) is out
            assert same_bits(out, ref)
        incT = np.empty((g.M - 2, 40))
        drift(qT.T, g, w, out=incT.T)
        assert same_bits(incT.T, drift(qT.T, g, w))

    def test_constant_state(self):
        g = SpaceTimeGrid.from_spacing(0.0, 5.0, 0.5, 1.0, 0.1)
        w = WaveSpec(2.0, 1.0, 0.7, gamma=1.5)
        assert np.allclose(drift(np.full(g.M, 1.3), g, w), 0.0, atol=1e-15)

    def test_linear_ramp_five_cells(self):
        # hand-computed Godunov values on q_m = x_{m-1/2} with gamma=0:
        # interface fluxes f(0.5), f(1.5), f(2.5), f(3.5) and zero diffusion
        g = SpaceTimeGrid(L=0.0, R=5.0, M=5, T=1.0, N=10)
        w = WaveSpec(2.0, 1.0, 0.7, gamma=0.0)
        b = drift(g.centers(), g, w)
        assert np.allclose(b, [-1.0, -2.0, -3.0], atol=1e-14)

    def test_profile_truncation_error_decays(self):
        w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        norms = []
        for dx in (0.5, 0.25, 0.125):
            g = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
            b = drift(sample_profile(w, g), g, w)
            norms.append(np.max(np.abs(b)))
        assert norms[1] < 0.7 * norms[0]
        assert norms[2] < 0.7 * norms[1]


class TestMemoryOrder:
    """A batch stored cells-major reaches drift as a Fortran-ordered view."""

    def setup_method(self):
        self.grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        self.wave = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        rng = np.random.default_rng(8)
        self.qT = rng.normal(1.5, 1.0, (self.grid.M, 96))

    def test_fortran_view_matches_c_order(self):
        q = self.qT.T
        qc = np.ascontiguousarray(q)
        assert q.flags.f_contiguous and not q.flags.c_contiguous
        gamma = self.wave.gamma
        F = godunov_flux(q[:, :-1], q[:, 1:], gamma)
        Fc = godunov_flux(qc[:, :-1], qc[:, 1:], gamma)
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        assert Fc.flags.c_contiguous
        assert same_bits(F, Fc)
        b = drift(q, self.grid, self.wave)
        bc = drift(qc, self.grid, self.wave)
        assert b.flags.f_contiguous and not b.flags.c_contiguous
        assert bc.flags.c_contiguous
        assert same_bits(b, bc)

    def test_scalars_return_0d_array(self):
        for pair in ((2.0, 1.0), (np.float64(2.0), np.array(1.0))):
            value = godunov_flux(*pair, 1.5)
            assert value.shape == () and value == 0.125

    def test_row_broadcasts_against_batch(self):
        batch = self.qT.T[:, 1:]
        row = np.ascontiguousarray(batch[0])
        gamma = self.wave.gamma
        for ql, qr in ((row, batch), (batch, row)):
            F = godunov_flux(ql, qr, gamma)
            full = [np.array(np.broadcast_to(a, batch.shape)) for a in (ql, qr)]
            assert F.shape == batch.shape
            assert same_bits(F, godunov_flux(*full, gamma))


def far_field_edges(grid, left, right):
    """Pinned-value table with cells 1 and M held at left and right."""
    return np.tile([left, right], (grid.N + 1, 1))


class TestEulerStep:
    def setup_method(self):
        self.g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        self.w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        self.edges = far_field_edges(self.g, 2.0, 1.0)

    def test_constant_state_unchanged(self):
        q = np.full(self.g.M, 1.5)
        out = euler_step(q, self.g, self.w, far_field_edges(self.g, 1.5, 1.5))
        assert np.allclose(out, q, atol=1e-15)

    def test_returns_fresh_array(self):
        q = sample_profile(self.w, self.g)
        out = euler_step(q, self.g, self.w, self.edges)
        assert out is not q

    def test_noiseless_run_stays_bounded(self):
        q = sample_profile(self.w, self.g)
        for n in range(self.g.N):
            q = euler_step(q, self.g, self.w, self.edges, n=n)
        assert q.min() >= 1.0 - 0.1 and q.max() <= 2.0 + 0.1

    def test_conservation_identity(self):
        rng = np.random.default_rng(6)
        q = sample_profile(self.w, self.g) + 0.05 * rng.standard_normal(self.g.M)
        pin_edges(q, self.edges[0])
        out = euler_step(q, self.g, self.w, self.edges, n=0)
        dx, dt, D = self.g.dx, self.g.dt, self.w.D
        interior_change = dx * np.sum(out[1:-1] - q[1:-1])
        F = godunov_flux(q[:-1], q[1:], self.w.gamma)
        expected = -dt * (F[-1] - F[0]) + dt * D / dx * (
            (q[-1] - q[-2]) - (q[1] - q[0]))
        assert interior_change == pytest.approx(expected, abs=1e-12)

    def test_forcing_enters_additively(self):
        q = sample_profile(self.w, self.g)
        forcing = np.linspace(-0.01, 0.02, self.g.M - 2)
        base = euler_step(q, self.g, self.w, self.edges)
        forced = euler_step(q, self.g, self.w, self.edges, forcing=forcing)
        assert np.allclose(forced[1:-1] - base[1:-1], forcing, atol=1e-15)
        assert np.array_equal(forced[[0, -1]], base[[0, -1]])

    def test_time_interpolated_pins_outer_cells(self):
        w = 2
        q0 = sample_profile(self.w, self.g)
        qN = sample_profile(self.w, self.g, shift=5.0)
        ends = np.r_[:w, self.g.M - w:self.g.M]
        t = (np.arange(self.g.N + 1) / self.g.N)[:, None]
        edges = (1 - t) * q0[ends] + t * qN[ends]
        q = q0.copy()
        n_half = self.g.N // 2
        for n in range(n_half):
            q = euler_step(q, self.g, self.w, edges, n=n)
        s = n_half / self.g.N
        assert np.allclose(q[:w], (1 - s) * q0[:w] + s * qN[:w], atol=1e-15)
        assert np.allclose(q[-w:], (1 - s) * q0[-w:] + s * qN[-w:], atol=1e-15)


class TestCfl:
    def test_number_at_benchmark_parameters(self):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)
        w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        assert cfl_number(g, w) == pytest.approx(0.05 * (0.5 / 0.5 + 2.0 / 0.25))

    def test_warns_when_exceeded(self):
        g = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.2, 1.0, 0.02)
        w = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        with pytest.warns(RuntimeWarning):
            check_cfl(g, w)
