import numpy as np
import pytest

from shockld import optimize
from shockld.fluxes import drift, euler_step
from shockld.grid import SpaceTimeGrid, WaveSpec, sample_profile
from shockld.noise import build_noise_model, whiten
from shockld.optimize import (RareEventSpec, _diffusion_preconditioner,
                              _free_block, _scaffold, boundary_edges,
                              linear_interpolation_path, linear_shift_path,
                              midpoint_convexity_test, minimize_ball,
                              minimize_pinned, minimize_smooth, target_values)
from shockld.rate import PathMatrix, discrete_lower_bound, rate


def random_path(scen, grid, rng):
    """Random initial guess: free entries uniform over the state range."""
    lo = min(scen.wave.u_plus, target_values(scen, grid).min())
    hi = max(scen.wave.u_minus, target_values(scen, grid).max())
    pad = 0.5 * (hi - lo)
    q = _scaffold(scen, grid, free_terminal=scen.delta > 0)
    free = _free_block(scen, grid, free_terminal=scen.delta > 0)
    q[free] = rng.uniform(lo - pad, hi + pad, size=q[free].shape)
    return PathMatrix(q, grid, scen.wave)


def free_count(scen, grid, free_terminal):
    """Number of entries in the free block."""
    return np.empty((grid.N + 1, grid.M))[
        _free_block(scen, grid, free_terminal)].size


@pytest.fixture(scope="module")
def fine_grid():
    # the displacement-scaling mesh: dx = 0.2, dt = 0.02
    return SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.2, 1.0, 0.02)


@pytest.fixture(scope="module")
def fine_identity(fine_grid):
    return build_noise_model("identity", fine_grid)


class TestScenario:
    def test_kind_validation(self, wave):
        with pytest.raises(ValueError):
            RareEventSpec("teleport", wave)
        with pytest.raises(ValueError):
            RareEventSpec("displacement", wave, delta=-0.5)
        with pytest.raises(ValueError):
            RareEventSpec("speed_change", wave)  # needs target_wave

    @pytest.mark.parametrize("field, value", [("x0", np.nan), ("x0", np.inf),
                                              ("delta", np.nan),
                                              ("delta", np.inf)])
    def test_non_finite_refused(self, wave, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            RareEventSpec("displacement", wave, **{field: value})

    def test_boundary_defaults(self, wave):
        disp = RareEventSpec("displacement", wave, x0=2.0)
        assert disp.boundary_width == 1
        other = RareEventSpec("weak_to_strong", wave,
                              target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        assert other.boundary_width == 2

    def test_free_mask_counts(self, wave, table1_grid):
        # entries of the free block: pinned, ball, and width-2 boundaries
        N, M = table1_grid.N, table1_grid.M
        scen = RareEventSpec("displacement", wave, x0=5.0)
        assert free_count(scen, table1_grid, False) == (N - 1) * (M - 2)
        assert free_count(scen, table1_grid, True) == N * (M - 2)
        wide = RareEventSpec("weak_to_strong", wave,
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        assert free_count(wide, table1_grid, False) == (N - 1) * (M - 4)

    @pytest.mark.parametrize("kind", ["displacement", "weak_to_strong"])
    def test_boundary_edges_rows(self, wave, table1_grid, kind):
        # width 1: the far-field states; width 2: (1 - n/N) q0 + (n/N) qN on
        # the two outer cells per side, bit for bit, one level at a time
        N, M = table1_grid.N, table1_grid.M
        target = WaveSpec(2.5, 0.5, 1.0, gamma=1.5)
        scen = RareEventSpec(kind, wave, x0=5.0, target_wave=target)
        edges = boundary_edges(scen, table1_grid)
        w = scen.boundary_width
        assert edges.shape == (N + 1, 2 * w)
        if kind == "displacement":
            assert w == 1
            assert np.all(edges[:, 0] == wave.u_minus)
            assert np.all(edges[:, 1] == wave.u_plus)
            return
        assert w == 2
        q0 = sample_profile(wave, table1_grid)
        qN = sample_profile(target, table1_grid)
        for n in range(N + 1):
            s = n / N
            assert np.array_equal(edges[n, :w], (1.0 - s) * q0[:w] + s * qN[:w])
            assert np.array_equal(edges[n, w:],
                                  (1.0 - s) * q0[M - w:] + s * qN[M - w:])

    @pytest.mark.parametrize("kind", ["displacement", "weak_to_strong"])
    def test_scaffold_obeys_boundary_edges(self, wave, table1_grid, kind):
        # levels 1..N (free terminal) or 1..N-1 (pinned) carry the table's
        # values; level 0 is the initial profile, a pinned level N the target
        N = table1_grid.N
        scen = RareEventSpec(kind, wave, x0=5.0,
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        w = scen.boundary_width
        edges = boundary_edges(scen, table1_grid)
        for free_terminal, last in ((True, N), (False, N - 1)):
            q = _scaffold(scen, table1_grid, free_terminal)
            rows = slice(1, last + 1)
            assert np.array_equal(q[rows, :w], edges[rows, :w])
            assert np.array_equal(q[rows, -w:], edges[rows, w:])
            assert np.array_equal(q[0], sample_profile(wave, table1_grid))
        assert np.array_equal(q[-1], target_values(scen, table1_grid))


class TestEngine:
    def test_quadratic_limited_memory(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((12, 12))
        A = A @ A.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        fun = lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)
        x_star = np.linalg.solve(A, b)
        res = minimize_smooth(fun, np.zeros(12), gtol=1e-10)
        assert res.converged
        assert np.allclose(res.x, x_star, atol=1e-7)

    def test_ill_conditioned_quadratic_past_memory(self):
        # condition number 1e4 in 60 variables needs far more iterations
        # than the 20 stored curvature pairs, so the oldest are dropped.
        # f is written in the error e = x - x* so that its rounding shrinks
        # with f and a 1e-10 gradient stays resolvable by the line search.
        rng = np.random.default_rng(60)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        A = (Q * np.logspace(0, 4, 60)) @ Q.T
        x_star = rng.standard_normal(60)

        def fun(x):
            Ae = A @ (x - x_star)
            return 0.5 * float((x - x_star) @ Ae), Ae

        res = minimize_smooth(fun, np.zeros(60), gtol=1e-10)
        assert res.converged
        assert res.iterations > 20
        assert np.max(np.abs(res.grad)) <= 1e-10
        assert np.allclose(res.x, x_star, rtol=0, atol=1e-9)

    def test_exact_inverse_hessian_takes_one_unit_step(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((12, 12))
        A = A @ A.T + 12 * np.eye(12)
        x_star = rng.standard_normal(12)

        def fun(x):
            Ae = A @ (x - x_star)
            return 0.5 * float((x - x_star) @ Ae), Ae

        res = minimize_smooth(fun, np.zeros(12), gtol=1e-10,
                              h0=lambda v: np.linalg.solve(A, v))
        assert res.converged
        assert res.iterations == 1
        assert res.evaluations == 2  # x0 and the accepted unit step
        assert np.allclose(res.x, x_star, rtol=0, atol=1e-12)

    def test_stops_on_gradient_relative_to_objective(self):
        # f* = 5: the rule ||g||_inf <= gtol max(1, f) stops a start whose
        # gradient 3e-6 is within 5e-6 at once, the offset-free objective
        # takes a step, and so does a start at gradient 6e-6
        x0 = np.array([3e-6, -1e-6, 0.0])

        def shifted(offset):
            return lambda x: (offset + 0.5 * float(x @ x), x.copy())

        res = minimize_smooth(shifted(5.0), x0, gtol=1e-6)
        assert res.converged and res.iterations == 0 and res.evaluations == 1
        res = minimize_smooth(shifted(0.0), x0, gtol=1e-6)
        assert res.converged and res.iterations == 1
        res = minimize_smooth(shifted(5.0), 2.0 * x0, gtol=1e-6)
        assert res.converged and res.iterations == 1
        assert np.max(np.abs(res.grad)) <= 1e-6 * max(1.0, res.f)

    def test_restart_steps_along_h0(self, monkeypatch):
        # fail the second line search on purpose: the engine must drop its
        # curvature pairs and retry along -h0(g), whose unit step it tries
        # first
        A = np.diag([1.0, 3.0, 10.0, 30.0]) + 0.5
        h0 = lambda v: v / np.diag(A)
        points = []

        def fun(x):
            points.append(x.copy())
            return 0.5 * float(x @ A @ x), A @ x

        real = optimize._strong_wolfe
        calls, starts, first_trials = [], [], []

        def flaky(evaluate, f0, d0, **kw):
            calls.append(d0)
            if len(calls) == 2:
                evaluate(0.0)
                starts.append(points[-1])
                return None
            n = len(points)
            out = real(evaluate, f0, d0, **kw)
            first_trials.append(points[n])
            return out

        monkeypatch.setattr(optimize, "_strong_wolfe", flaky)
        res = minimize_smooth(fun, np.array([1.0, -2.0, 0.5, 1.5]),
                              gtol=1e-10, h0=h0)
        assert res.converged
        x1 = starts[0]
        assert np.array_equal(first_trials[1], x1 - h0(A @ x1))

    def test_rosenbrock(self):
        def fun(x):
            f = 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                          200 * (x[1] - x[0] ** 2)])
            return f, g

        res = minimize_smooth(fun, np.array([-1.2, 1.0]), gtol=1e-9)
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_nonfinite_start_raises(self):
        fun = lambda x: (float("nan"), x)
        with pytest.raises(ValueError):
            minimize_smooth(fun, np.ones(3), gtol=1e-8)

    def test_nonfinite_during_line_search_raises(self):
        # finite at x0 = 1, NaN once any coordinate drops below 0.5: the
        # unit steepest-descent step lands at 0
        def fun(x):
            f = 0.5 * float(x @ x) if np.all(x >= 0.5) else float("nan")
            return f, x.copy()

        assert np.isfinite(fun(np.ones(3))[0])
        with pytest.raises(ValueError, match="line search"):
            minimize_smooth(fun, np.ones(3), gtol=1e-8)


class TestMinimizePinned:
    def test_zero_shift_costs_only_truncation(self, wave, table1_grid,
                                              identity_model):
        # the sampled profile is not an exact discrete steady state, so the
        # pinned x0=0 optimum carries the O(dx) truncation residue of holding
        # it fixed; it must not exceed the constant path's cost
        scen = RareEventSpec("displacement", wave, x0=0.0)
        opt = minimize_pinned(scen, identity_model)
        const_rate = rate(linear_shift_path(scen, table1_grid), identity_model)
        assert opt.rate_value <= const_rate
        assert opt.rate_value < 1e-4

    def test_upper_bound_sandwich_x0_5(self, wave, fine_grid, fine_identity):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        opt = minimize_pinned(scen, fine_identity)
        assert opt.converged
        iv = rate(linear_shift_path(scen, fine_grid), fine_identity)
        iw = rate(linear_interpolation_path(scen, fine_grid), fine_identity)
        assert opt.rate_value <= min(iv, iw) + 1e-10
        assert discrete_lower_bound(opt.path, fine_identity) <= opt.rate_value + 1e-10

    def test_random_init_reaches_same_optimum(self, wave, fine_grid, fine_identity):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        a = minimize_pinned(scen, fine_identity)
        rng = np.random.default_rng(21)
        b = minimize_pinned(scen, fine_identity,
                            init=random_path(scen, fine_grid, rng))
        assert abs(a.rate_value - b.rate_value) <= 1e-4 * a.rate_value

    def test_descent_from_initial_guess(self, wave, table1_grid, exp_model):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        init_q = _scaffold(scen, table1_grid, free_terminal=False)
        free = _free_block(scen, table1_grid, free_terminal=False)
        init_q[free] = linear_interpolation_path(scen, table1_grid).q[free]
        init_rate = rate(PathMatrix(init_q, table1_grid, wave), exp_model)
        opt = minimize_pinned(scen, exp_model)
        assert opt.rate_value <= init_rate

    def test_rejects_ball_scenarios(self, wave, identity_model):
        with pytest.raises(ValueError):
            minimize_pinned(RareEventSpec("displacement", wave, x0=1.0,
                                          delta=0.5), identity_model)

    def test_gradient_norm_within_tolerance(self, pinned_identity_opt):
        opt = pinned_identity_opt
        assert opt.converged
        assert opt.gradient_norm <= 1e-6 * max(1.0, opt.rate_value)

    def test_preconditioned_iteration_counts(self, pinned_exp_opt,
                                             ball_exp_opt):
        # 462 pinned and 1443 ball iterations with the scalar initial matrix
        assert pinned_exp_opt.iterations <= 25
        assert ball_exp_opt.iterations <= 60
        assert pinned_exp_opt.evaluations > pinned_exp_opt.iterations
        # a multiplier loop around the same engine spent 106 evaluations
        assert ball_exp_opt.evaluations <= 106
        assert pinned_exp_opt.multiplier is None

    def test_forcing_matches_rate(self, pinned_exp_opt, table1_grid, exp_model):
        h = pinned_exp_opt.forcing
        lhs = table1_grid.dx / (2 * table1_grid.dt) * float(np.sum(h * h))
        assert lhs == pytest.approx(pinned_exp_opt.rate_value, rel=1e-10)


def linear_action_hessian(scen, model, free_terminal):
    """Hessian of the action with the drift cut to D * Laplacian, assembled
    column by column from the linear residual map over the free entries."""
    grid = model.grid
    dt, dx, D = grid.dt, grid.dx, scen.wave.D
    mask = np.zeros((grid.N + 1, grid.M), dtype=bool)
    mask[_free_block(scen, grid, free_terminal)] = True
    n_free = int(mask.sum())
    Q = np.zeros((n_free, grid.N + 1, grid.M))
    Q[:, mask] = np.eye(n_free)
    lap = (Q[:, :-1, 2:] - 2.0 * Q[:, :-1, 1:-1] + Q[:, :-1, :-2]) / (dx * dx)
    R = (Q[:, 1:, 1:-1] - Q[:, :-1, 1:-1]) / dt - D * lap
    Y = whiten(model, R).reshape(n_free, -1)
    return dt * dx * (Y @ Y.T)


class TestPreconditioner:
    @pytest.mark.parametrize("free_terminal", [False, True])
    def test_exact_inverse_for_identity_noise(self, displacement_scen,
                                              identity_model, free_terminal):
        H = linear_action_hessian(displacement_scen, identity_model,
                                  free_terminal)
        h0 = _diffusion_preconditioner(displacement_scen, identity_model,
                                       free_terminal)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = rng.standard_normal(H.shape[0])
            assert np.max(np.abs(h0(H @ v) - v)) <= 1e-10

    @pytest.mark.parametrize("free_terminal", [False, True])
    def test_symmetric_positive_definite(self, exp_model, free_terminal):
        scen = RareEventSpec("weak_to_strong", WaveSpec(1.75, 1.25, 1.0, gamma=1.5),
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        assert scen.boundary_width == 2
        n = free_count(scen, exp_model.grid, free_terminal)
        h0 = _diffusion_preconditioner(scen, exp_model, free_terminal)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            hu, hv = h0(u), h0(v)
            assert v @ hu == pytest.approx(u @ hv, rel=1e-12, abs=1e-14)
            assert v @ hv > 0


def indexed_sweep_preconditioner(scen, model, free_terminal):
    """The diffusion preconditioner with its Thomas sweeps indexing the 2-D
    array row by row: the reference the row-view sweeps must match bit for
    bit."""
    grid = model.grid
    dt, dx = grid.dt, grid.dx
    w = scen.boundary_width
    nf = grid.M - 2 * w
    rows = grid.N if free_terminal else grid.N - 1
    k = np.arange(1, nf + 1)
    S = np.sqrt(2.0 / (nf + 1)) * np.sin(np.pi * np.outer(k, k) / (nf + 1))
    a = 1.0 - 4.0 * dt * scen.wave.D / (dx * dx) \
        * np.sin(0.5 * np.pi * k / (nf + 1)) ** 2
    modes = np.zeros((nf, model.size))
    modes[:, w - 1:w - 1 + nf] = S
    c = np.sum(whiten(model, modes) ** 2, axis=1)
    scale = dt / (dx * c)
    piv = np.empty((rows, nf))
    piv[:] = 1.0 + a * a
    if free_terminal:
        piv[-1] = 1.0
    for n in range(1, rows):
        piv[n] -= a * a / piv[n - 1]
    inv_piv = 1.0 / piv
    lower = a * inv_piv

    def h0(v):
        y = v.reshape(rows, nf) @ S
        y *= scale
        for n in range(1, rows):
            y[n] += lower[n - 1] * y[n - 1]
        y[-1] *= inv_piv[-1]
        for n in range(rows - 2, -1, -1):
            y[n] *= inv_piv[n]
            y[n] += lower[n] * y[n + 1]
        return (y @ S).ravel()

    return h0


class TestPreconditionerBits:
    @pytest.mark.parametrize("free_terminal", [False, True])
    @pytest.mark.parametrize("noise_kind", ["identity", "exponential"])
    @pytest.mark.parametrize("kind", ["displacement", "weak_to_strong"])
    def test_row_view_sweeps_match_indexed_sweeps(self, table1_grid, kind,
                                                  noise_kind, free_terminal):
        model = build_noise_model(noise_kind, table1_grid, sigma=1.0, l_c=5.0)
        target = None if kind == "displacement" else WaveSpec(2.5, 0.5, 1.0,
                                                              gamma=1.5)
        scen = RareEventSpec(kind, WaveSpec(1.75, 1.25, 1.0, gamma=1.5),
                             x0=3.0, target_wave=target)
        assert scen.boundary_width == (1 if kind == "displacement" else 2)
        n = free_count(scen, table1_grid, free_terminal)
        h0 = _diffusion_preconditioner(scen, model, free_terminal)
        ref = indexed_sweep_preconditioner(scen, model, free_terminal)
        rng = np.random.default_rng(16)
        for _ in range(3):
            v = rng.standard_normal(n)
            assert np.array_equal(h0(v), ref(v))

    def test_ball_builds_one_preconditioner(self, ball_scen, exp_model,
                                            monkeypatch):
        built = []
        real = optimize._diffusion_preconditioner

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(optimize, "_diffusion_preconditioner", counting)
        opt = minimize_ball(ball_scen, exp_model)
        assert opt.multiplier > 0  # active: two solves share the one h0
        assert len(built) == 1


class TestMinimizeBall:
    @pytest.mark.parametrize("noise_kind", ["identity", "exponential"])
    def test_slack_ball_reaches_deterministic_path(self, wave, table1_grid,
                                                   noise_kind):
        # delta far beyond the noiseless terminal distance: constraint
        # inactive, and the eps = 0 trajectory costs nothing
        model = build_noise_model(noise_kind, table1_grid, sigma=1.0, l_c=5.0)
        scen = RareEventSpec("displacement", wave, x0=1.0, delta=5.0)
        opt = minimize_ball(scen, model)
        edges = boundary_edges(scen, table1_grid)
        rows = [sample_profile(wave, table1_grid)]
        for n in range(table1_grid.N):
            rows.append(euler_step(rows[-1], table1_grid, wave, edges, n=n))
        assert opt.iterations == 0
        assert np.array_equal(opt.path.q, np.stack(rows))
        assert opt.rate_value <= 1e-20
        assert opt.converged and opt.multiplier == 0.0

    @pytest.mark.parametrize("delta", [5.0, 4.2])
    def test_slack_ball_with_pinned_interior_cells(self, table1_grid,
                                                   identity_model, delta):
        # width-2 boundaries pin interior cells whose residuals count, so the
        # eps = 0 trajectory (rate 1.097, terminal distance^2 17.96) is not
        # the free minimizer (rate 0.7785, distance^2 17.30); at delta = 4.2
        # the trajectory ends outside the ball but the minimizer inside
        scen = RareEventSpec("weak_to_strong", WaveSpec(1.75, 1.25, 1.0, gamma=1.5),
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5),
                             delta=delta)
        opt = minimize_ball(scen, identity_model)
        assert opt.converged and opt.multiplier == 0.0
        assert opt.terminal_distance_sq < delta ** 2
        assert opt.rate_value == pytest.approx(0.778535334623, rel=1e-9)
        assert opt.gradient_norm <= 1e-6 * max(1.0, opt.rate_value)

    def test_benchmark_ball_constraint_active(self, ball_exp_opt):
        opt = ball_exp_opt
        assert opt.converged
        assert abs(opt.terminal_distance_sq - 0.5) <= 1e-6 * 0.5
        assert opt.multiplier > 0
        # reported KKT stationarity meets the solver target
        assert opt.gradient_norm <= 1e-5 * max(1.0, opt.rate_value)

    def test_ball_ladder_meets_activity_default(self, ball_ladder):
        # criterion 05 asks only 1e-6
        for delta, opt in ball_ladder.items():
            assert opt.converged
            act = abs(opt.terminal_distance_sq - delta ** 2) / delta ** 2
            assert act <= 1e-8, (delta, act)

    def test_ball_optimum_below_pinned(self, ball_exp_opt, pinned_exp_opt):
        assert ball_exp_opt.rate_value < pinned_exp_opt.rate_value

    def test_rejects_pinned_scenarios(self, wave, identity_model):
        with pytest.raises(ValueError):
            minimize_ball(RareEventSpec("displacement", wave, x0=1.0),
                          identity_model)

    def test_rejects_infeasible_ball(self, wave, exp_model):
        # the pinned boundary cells alone sit at squared distance 0.00362
        # from the x0 = 15 target, beyond delta^2 = 0.0025
        scen = RareEventSpec("displacement", wave, x0=15.0, delta=0.05)
        with pytest.raises(ValueError, match="infeasible"):
            minimize_ball(scen, exp_model)

    def test_weak_to_strong_ball_is_active(self, exp_model):
        # the L-BFGS run stalls on a Godunov kink, so convergence is not
        # asserted; the terminal slice still sits on the sphere with a
        # positive multiplier
        scen = RareEventSpec("weak_to_strong", WaveSpec(1.75, 1.25, 1.0, gamma=1.5),
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5),
                             delta=0.5)
        opt = minimize_ball(scen, exp_model)
        assert opt.multiplier > 0
        assert abs(opt.terminal_distance_sq - 0.25) <= 1e-8 * 0.25
        assert opt.evaluations <= 500


class TestPathBuilders:
    def test_linear_shift_endpoints(self, wave, table1_grid):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        v = linear_shift_path(scen, table1_grid)
        assert np.array_equal(v.q[0], sample_profile(wave, table1_grid, 0.0))
        assert np.array_equal(v.q[-1], sample_profile(wave, table1_grid, 5.0))

    @pytest.mark.parametrize("x0", [5.0, -3.7, 0.3])
    def test_linear_shift_matches_sampled_slices(self, wave, table1_grid,
                                                 fine_grid, x0):
        scen = RareEventSpec("displacement", wave, x0=x0)
        for grid in (table1_grid, fine_grid):
            shifts = np.arange(grid.N + 1) / grid.N * x0
            stacked = np.stack([sample_profile(wave, grid, s) for s in shifts])
            assert np.array_equal(linear_shift_path(scen, grid).q, stacked)

    def test_zero_shift_constant_path(self, wave, table1_grid, identity_model):
        scen = RareEventSpec("displacement", wave, x0=0.0)
        v = linear_shift_path(scen, table1_grid)
        assert np.all(v.q == v.q[0])
        # cost of holding the sampled profile still = N identical truncation
        # residuals, computed here from the drift directly
        b = drift(v.q[0], table1_grid, wave)
        expected = 0.5 * table1_grid.dt * table1_grid.dx * table1_grid.N \
            * float(b @ b)
        assert rate(v, identity_model) == pytest.approx(expected, rel=1e-12)
        assert rate(v, identity_model) < 1e-4

    def test_shift_path_cost_is_quadratic_in_x0(self, wave, fine_grid,
                                                fine_identity):
        i1 = rate(linear_shift_path(
            RareEventSpec("displacement", wave, x0=2.5), fine_grid), fine_identity)
        i2 = rate(linear_shift_path(
            RareEventSpec("displacement", wave, x0=5.0), fine_grid), fine_identity)
        assert 3.5 <= i2 / i1 <= 4.5

    def test_interpolation_endpoints_and_midpoint(self, wave, table1_grid):
        scen = RareEventSpec("displacement", wave, x0=5.0)
        w = linear_interpolation_path(scen, table1_grid)
        assert np.array_equal(w.q[0], sample_profile(wave, table1_grid, 0.0))
        assert np.array_equal(w.q[-1], sample_profile(wave, table1_grid, 5.0))
        mid = table1_grid.N // 2
        assert np.allclose(w.q[mid], 0.5 * (w.q[0] + w.q[-1]), atol=1e-15)

    def test_interpolation_beats_shift_for_large_x0(self, wave):
        grid = SpaceTimeGrid.from_spacing(-15.0, 35.0, 0.2, 1.0, 0.02)
        model = build_noise_model("identity", grid)
        scen = RareEventSpec("displacement", wave, x0=20.0)
        iv = rate(linear_shift_path(scen, grid), model)
        iw = rate(linear_interpolation_path(scen, grid), model)
        assert iw < iv

    def test_shift_path_requires_displacement(self, wave, table1_grid):
        scen = RareEventSpec("weak_to_strong", wave,
                             target_wave=WaveSpec(2.5, 0.5, 1.0, gamma=1.5))
        with pytest.raises(ValueError):
            linear_shift_path(scen, table1_grid)


class TestMidpointConvexity:
    def test_frozen_drift_is_exactly_convex(self, pinned_identity_opt,
                                            identity_model, table1_grid, wave,
                                            monkeypatch):
        # with the drift frozen to a constant b0 the rate is quadratic in the
        # path, so every midpoint passes
        b0 = drift(pinned_identity_opt.path.q[0], table1_grid, wave)

        def frozen_drift_rate(path, model):
            q = path.q
            r = (q[1:, 1:-1] - q[:-1, 1:-1]) / table1_grid.dt - b0
            y = whiten(model, r)
            return 0.5 * table1_grid.dt * table1_grid.dx * float(np.sum(y * y))

        monkeypatch.setattr(optimize, "rate", frozen_drift_rate)
        rng = np.random.default_rng(2)
        frac = midpoint_convexity_test(pinned_identity_opt.path,
                                       identity_model, 500, rng)
        assert frac == 1.0

    def test_high_pass_fraction_near_optimum(self, pinned_identity_opt,
                                             identity_model):
        rng = np.random.default_rng(3)
        frac = midpoint_convexity_test(pinned_identity_opt.path, identity_model,
                                       1500, rng)
        assert frac >= 0.99

    def test_zero_trials_rejected(self, pinned_identity_opt, identity_model):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            midpoint_convexity_test(pinned_identity_opt.path, identity_model,
                                    0, np.random.default_rng(1))

    def test_negative_trials_rejected(self, pinned_identity_opt, identity_model):
        with pytest.raises(ValueError):
            midpoint_convexity_test(pinned_identity_opt.path, identity_model,
                                    -1, np.random.default_rng(0))


class TestOtherScenarios:
    def test_speed_change_costs_far_more_than_displacement(self, wave,
                                                           table1_grid,
                                                           identity_model,
                                                           pinned_identity_opt):
        target = WaveSpec(5.5, 4.5, 1.0, gamma=1.5)  # frame speed 3.5
        scen = RareEventSpec("speed_change", wave, target_wave=target)
        opt = minimize_pinned(scen, identity_model)
        assert opt.rate_value > 10 * pinned_identity_opt.rate_value

    def test_strong_weak_transitions_run(self, table1_grid, identity_model):
        weak = WaveSpec(1.75, 1.25, 1.0, gamma=1.5)
        strong = WaveSpec(2.5, 0.5, 1.0, gamma=1.5)
        up = minimize_pinned(RareEventSpec("weak_to_strong", weak,
                                           target_wave=strong), identity_model)
        down = minimize_pinned(RareEventSpec("strong_to_weak", strong,
                                             target_wave=weak), identity_model)
        assert up.rate_value > 0 and down.rate_value > 0
        # both transitions are far less likely than a x0=5 displacement
        assert min(up.rate_value, down.rate_value) > 1.0


class TestGridDependence:
    """Pinned I* of the x0 = 5 displacement as dx (and dt) are refined.

    Exponential noise has covariance (dt/dx) C with C fixed in physical
    units, so its power per unit length grows as 1/dx and I* is
    proportional to dx; identity noise has a grid limit.
    """

    GRIDS = [(0.25, 0.025), (0.125, 0.00625)]

    @pytest.fixture(scope="class")
    def ladder(self, displacement_scen, pinned_exp_opt, pinned_identity_opt):
        out = {"exponential": [pinned_exp_opt],
               "identity": [pinned_identity_opt]}
        for dx, dt in self.GRIDS:
            grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, dt)
            for kind, opts in out.items():
                model = build_noise_model(kind, grid, sigma=1.0, l_c=5.0)
                opts.append(minimize_pinned(displacement_scen, model))
        return out

    def test_every_solve_converges(self, ladder):
        for kind, opts in ladder.items():
            assert all(o.converged for o in opts), kind

    def test_exponential_rate_halves_with_dx(self, ladder):
        values = [o.rate_value for o in ladder["exponential"]]
        for coarse, fine in zip(values, values[1:]):
            assert 0.49 <= fine / coarse <= 0.51

    def test_identity_rate_has_grid_limit(self, ladder):
        values = [o.rate_value for o in ladder["identity"]]
        assert (max(values) - min(values)) / min(values) < 1e-3
