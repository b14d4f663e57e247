import numpy as np
import pytest

from shockld.fluxes import euler_step
from shockld.grid import SpaceTimeGrid, WaveSpec, sample_profile
from shockld.noise import build_noise_model, unwhiten, whiten
from shockld.optimize import (RareEventSpec, _free_block, _scaffold,
                              boundary_edges, linear_interpolation_path)
from shockld.rate import (PathMatrix, _whitened_pair, discrete_lower_bound,
                          forcing_from_path, rate, rate_and_gradient,
                          residuals)


def noiseless_path(grid, wave, q0):
    edges = boundary_edges(RareEventSpec("displacement", wave), grid)
    rows = [q0]
    for n in range(grid.N):
        rows.append(euler_step(rows[-1], grid, wave, edges, n=n))
    return PathMatrix(np.stack(rows), grid, wave)


def perturbed_path(scen, grid, rng, amp=0.03):
    q = _scaffold(scen, grid, free_terminal=False)
    free = _free_block(scen, grid, free_terminal=False)
    base = linear_interpolation_path(scen, grid).q
    q[free] = base[free] + amp * rng.standard_normal(q[free].shape)
    return PathMatrix(q, grid, scen.wave)


@pytest.fixture
def single_step_setup():
    # one step, two interior cells, dx = 0.5, dt = 0.05
    grid = SpaceTimeGrid.from_spacing(0.0, 2.0, 0.5, 0.05, 0.05)
    wave = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
    model = build_noise_model("identity", grid)
    q = np.full((2, 4), 1.5)
    q[1, 1] += 0.1  # residual (0.1/dt, 0) = (2, 0)
    return PathMatrix(q, grid, wave), model


class TestResidual:
    def test_zero_on_noiseless_trajectory(self, table1_grid, wave):
        q0 = sample_profile(wave, table1_grid)
        path = noiseless_path(table1_grid, wave, q0)
        assert np.max(np.abs(residuals(path))) < 1e-12

    def test_single_perturbation_arithmetic(self, single_step_setup):
        path, _ = single_step_setup
        assert np.allclose(residuals(path)[0], [2.0, 0.0], atol=1e-12)

    def test_affine_in_next_slice(self, table1_grid, wave):
        rng = np.random.default_rng(10)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        a = perturbed_path(scen, table1_grid, rng)
        b = PathMatrix(a.q.copy(), a.grid, a.wave)
        b.q[3] = a.q[3] + 0.1 * rng.standard_normal(table1_grid.M)
        mid = PathMatrix(a.q.copy(), a.grid, a.wave)
        mid.q[3] = 0.5 * (a.q[3] + b.q[3])
        # paths share slice 2; residual at n=2 is affine in slice 3
        assert np.allclose(residuals(mid)[2],
                           0.5 * (residuals(a)[2] + residuals(b)[2]),
                           atol=1e-12)


class TestRate:
    def test_zero_iff_deterministic(self, table1_grid, wave, identity_model):
        q0 = sample_profile(wave, table1_grid)
        path = noiseless_path(table1_grid, wave, q0)
        assert rate(path, identity_model) < 1e-24
        bumped = PathMatrix(path.q.copy(), path.grid, path.wave)
        bumped.q[2, 10] += 1e-3
        assert rate(bumped, identity_model) > 0

    def test_single_step_value(self, single_step_setup):
        path, model = single_step_setup
        assert rate(path, model) == pytest.approx(0.05, abs=1e-15)

    def test_sigma_doubling_quarters_the_rate(self, table1_grid, wave):
        rng = np.random.default_rng(11)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = perturbed_path(scen, table1_grid, rng)
        m1 = build_noise_model("exponential", table1_grid, sigma=1.0, l_c=5.0)
        m2 = build_noise_model("exponential", table1_grid, sigma=2.0, l_c=5.0)
        assert rate(path, m2) == pytest.approx(rate(path, m1) / 4.0, rel=1e-14)


class TestRateGradient:
    @pytest.mark.parametrize("noise_kind", ["identity", "exponential"])
    @pytest.mark.parametrize("kind", ["displacement", "weak_to_strong"])
    def test_value_is_rate_bit_for_bit(self, table1_grid, wave, exp_model,
                                       identity_model, kind, noise_kind):
        model = exp_model if noise_kind == "exponential" else identity_model
        if kind == "displacement":   # width-1 fixed states
            scen = RareEventSpec(kind, wave, x0=5.0)
        else:                        # width-2 time-interpolated boundaries
            scen = RareEventSpec(kind, WaveSpec(1.75, 1.25, 1.0, gamma=1.5),
                                 target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        rng = np.random.default_rng(14)
        for amp in (0.0, 0.03, 0.3):
            path = perturbed_path(scen, table1_grid, rng, amp=amp)
            assert rate_and_gradient(path, model)[0] == rate(path, model)

    @pytest.mark.parametrize("dx", [0.5, 0.25, 0.125])
    def test_whitened_pair_against_dense_solve(self, dx, dense_covariance):
        grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        model = build_noise_model("exponential", grid, sigma=1.3, l_c=5.0)
        r = np.random.default_rng(15).standard_normal((4, model.size))
        y, g = _whitened_pair(model, r)
        ref = np.linalg.solve(dense_covariance(model), r.T).T
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(y, whiten(model, r))

    def test_zero_at_deterministic_path(self, table1_grid, wave, exp_model):
        q0 = sample_profile(wave, table1_grid)
        path = noiseless_path(table1_grid, wave, q0)
        _, grad = rate_and_gradient(path, exp_model)
        assert np.max(np.abs(grad)) < 1e-10

    @pytest.mark.parametrize("noise_kind", ["identity", "exponential"])
    def test_matches_central_differences(self, table1_grid, wave, noise_kind):
        model = build_noise_model(noise_kind, table1_grid, sigma=1.0, l_c=5.0) \
            if noise_kind == "exponential" else build_noise_model("identity", table1_grid)
        rng = np.random.default_rng(12)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = perturbed_path(scen, table1_grid, rng)
        _, grad = rate_and_gradient(path, model)
        scale = np.max(np.abs(grad))
        for _ in range(30):
            n = int(rng.integers(1, table1_grid.N))
            m = int(rng.integers(1, table1_grid.M - 1))
            h = 1e-6
            qp, qm = path.q.copy(), path.q.copy()
            qp[n, m] += h
            qm[n, m] -= h
            fd = (rate(PathMatrix(qp, table1_grid, wave), model)
                  - rate(PathMatrix(qm, table1_grid, wave), model)) / (2 * h)
            assert abs(fd - grad[n, m]) <= 1e-5 * max(abs(fd), 1e-3 * scale)

    def test_locality_of_terminal_perturbation(self, table1_grid, wave,
                                               identity_model):
        rng = np.random.default_rng(13)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = perturbed_path(scen, table1_grid, rng)
        _, g0 = rate_and_gradient(path, identity_model)
        m = 30
        N = table1_grid.N
        path.q[N, m] += 0.01
        _, g1 = rate_and_gradient(path, identity_model)
        changed = np.argwhere(np.abs(g1 - g0) > 1e-14)
        for n, j in changed:
            assert n in (N - 1, N)
            assert abs(j - m) <= 1


class TestForcingFromPath:
    def test_zero_for_deterministic(self, table1_grid, wave, exp_model):
        q0 = sample_profile(wave, table1_grid)
        path = noiseless_path(table1_grid, wave, q0)
        assert np.max(np.abs(forcing_from_path(path, exp_model))) < 1e-13

    def test_replay_reproduces_interior(self, table1_grid, wave, exp_model):
        rng = np.random.default_rng(15)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = perturbed_path(scen, table1_grid, rng)
        h = forcing_from_path(path, exp_model)
        tilt = unwhiten(exp_model, h)
        edges = boundary_edges(scen, table1_grid)
        q = path.q[0].copy()
        for n in range(table1_grid.N):
            q = euler_step(q, table1_grid, wave, edges, forcing=tilt[n], n=n)
            assert np.max(np.abs(q[1:-1] - path.q[n + 1, 1:-1])) < 1e-12

    def test_rate_identity(self, table1_grid, wave, exp_model):
        rng = np.random.default_rng(16)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        path = perturbed_path(scen, table1_grid, rng)
        h = forcing_from_path(path, exp_model)
        lhs = table1_grid.dx / (2 * table1_grid.dt) * float(np.sum(h * h))
        assert lhs == pytest.approx(rate(path, exp_model), rel=1e-12)


class TestDiscreteLowerBound:
    def test_zero_for_deterministic(self, table1_grid, wave, exp_model):
        q0 = sample_profile(wave, table1_grid)
        path = noiseless_path(table1_grid, wave, q0)
        assert discrete_lower_bound(path, exp_model) < 1e-24

    def test_single_step_value(self, single_step_setup):
        path, model = single_step_setup
        assert discrete_lower_bound(path, model) == pytest.approx(0.025, abs=1e-15)
        assert discrete_lower_bound(path, model) <= rate(path, model)

    @pytest.mark.parametrize("noise_kind", ["identity", "exponential"])
    def test_never_exceeds_rate(self, table1_grid, wave, noise_kind):
        model = build_noise_model(noise_kind, table1_grid, sigma=1.0, l_c=5.0) \
            if noise_kind == "exponential" else build_noise_model("identity", table1_grid)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            path = perturbed_path(scen, table1_grid, rng,
                                  amp=float(rng.uniform(0.005, 0.1)))
            assert discrete_lower_bound(path, model) <= rate(path, model) + 1e-12

