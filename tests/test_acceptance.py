"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
The expensive shared computations (displacement sweeps, the estimator sweep)
are module-scoped fixtures so each runs once; the ball optima are the
session-scoped `ball_ladder` of conftest.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

from shockld.diagnostics import (analytic_center_law,
                                 analytic_exit_probability, fit_scaling,
                                 wave_centers)
from shockld.fluxes import godunov_flux
from shockld.grid import SpaceTimeGrid, WaveSpec, sample_profile
from shockld.montecarlo import (epsilon_sweep, run_importance_sampling,
                                sample_terminal_states)
from shockld.noise import build_noise_model
from shockld.optimize import (RareEventSpec, _free_block, _scaffold,
                              linear_interpolation_path, linear_shift_path,
                              midpoint_convexity_test, minimize_pinned,
                              project_onto_pinning)
from shockld.rate import (PathMatrix, discrete_lower_bound, rate,
                          rate_and_gradient)

DELTA = math.sqrt(0.5)
K_FULL = 10_000
SWEEP_SEED = 20260808

# the displacement-scaling study domain holds the x0 = 20 target 15 units
# clear of the right boundary (the same margin the x0 = 5 benchmark has)
SCALING_L, SCALING_R = -15.0, 35.0


def emit(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def optimize_displacement(x0, grid, model, D):
    wave = WaveSpec(2.0, 1.0, D, gamma=1.5)
    scen = RareEventSpec("displacement", wave, x0=x0)
    opt = minimize_pinned(scen, model)
    # upper bounds from the test paths projected onto the pinned feasible set
    iv = rate(project_onto_pinning(scen, grid, linear_shift_path(scen, grid)),
              model)
    iw = rate(project_onto_pinning(scen, grid,
                                   linear_interpolation_path(scen, grid)),
              model)
    lb = discrete_lower_bound(opt.path, model)
    return opt.rate_value, iv, iw, lb


@pytest.fixture(scope="module")
def x0_sweep():
    grid = SpaceTimeGrid.from_spacing(SCALING_L, SCALING_R, 0.2, 1.0, 0.02)
    model = build_noise_model("identity", grid)
    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    return {x0: optimize_displacement(x0, grid, model, D=1.0) for x0 in xs}


@pytest.fixture(scope="module")
def T_sweeps():
    out = {}
    for D in (1.0, 0.01):
        rows = []
        for k in range(1, 11):
            T = round(0.1 * k, 1)
            grid = SpaceTimeGrid.from_spacing(SCALING_L, SCALING_R, 0.2, T, 0.02)
            model = build_noise_model("identity", grid)
            rows.append((T,) + optimize_displacement(20.0, grid, model, D=D))
        out[D] = rows
    return out


@pytest.fixture(scope="module")
def estimator_sweep(ball_scen, exp_model, ball_exp_opt, pinned_exp_opt):
    eps_grid = [0.05, 0.08, 0.1, 0.12, 0.15, 0.2]
    res = epsilon_sweep(ball_scen, exp_model, eps_grid, K_FULL,
                        ["mc", "is0", "is-delta"], SWEEP_SEED,
                        forcing_pinned=pinned_exp_opt.forcing,
                        forcing_ball=ball_exp_opt.forcing)
    table = {}
    for eps, name, rep in res:
        table[(round(eps, 4), name)] = rep
    return table


class TestCriterion01:
    def test_rate_scaling_in_displacement(self, x0_sweep):
        small = [0.0, 1.0, 2.0, 3.0, 4.0]
        large = [12.0, 14.0, 16.0, 18.0, 20.0]
        _, r2_quad = fit_scaling(small, [x0_sweep[x][0] for x in small],
                                 "quadratic")
        _, r2_lin = fit_scaling(large, [x0_sweep[x][0] for x in large],
                                "linear")
        ok = r2_quad >= 0.98 and r2_lin >= 0.98
        emit(1, "x0 scaling (quadratic small / linear large)", ok,
             f"R2_quad={r2_quad:.5f} R2_lin={r2_lin:.5f} (>= 0.98)")
        assert r2_quad >= 0.98
        assert r2_lin >= 0.98


class TestCriterion02:
    def test_rate_scaling_in_horizon(self, T_sweeps):
        r2s = {}
        for D, rows in T_sweeps.items():
            Ts = [row[0] for row in rows]
            inv = [1.0 / row[1] for row in rows]
            _, r2 = fit_scaling(Ts, inv, "linear")
            r2s[D] = r2
        ok = all(r2 >= 0.98 for r2 in r2s.values())
        emit(2, "1/I* linear in T (D=1 and D=0.01)", ok,
             f"R2(D=1)={r2s[1.0]:.5f} R2(D=0.01)={r2s[0.01]:.5f} (>= 0.98)")
        for D, r2 in r2s.items():
            assert r2 >= 0.98, f"D={D}"


class TestCriterion03:
    def test_bound_sandwich(self, x0_sweep, T_sweeps):
        worst = 0.0
        runs = [(f"x0={x0}",) + vals for x0, vals in x0_sweep.items()]
        for D, rows in T_sweeps.items():
            runs += [(f"D={D},T={row[0]}",) + row[1:] for row in rows]
        ok = True
        for label, istar, iv, iw, lb in runs:
            ok &= lb <= istar + 1e-10 and istar <= min(iv, iw) + 1e-10
            worst = max(worst, lb - istar, istar - min(iv, iw))
        emit(3, "lower bound <= I* <= min(I(v), I(w))", ok,
             f"{len(runs)} optimized paths, worst slack violation {worst:.2e}")
        assert ok


class TestCriterion04:
    def test_midpoint_convexity(self, pinned_identity_opt, identity_model):
        rng = np.random.default_rng(414)
        frac = midpoint_convexity_test(pinned_identity_opt.path,
                                       identity_model, 10_000, rng)
        ok = frac >= 0.99
        emit(4, "midpoint convexity over 1e4 pairs", ok,
             f"fraction={frac:.4f} (>= 0.99)")
        assert ok


class TestCriterion05:
    def test_active_ball_constraint(self, ball_ladder, pinned_exp_opt):
        acts = {d: abs(opt.terminal_distance_sq - d * d) / (d * d)
                for d, opt in ball_ladder.items()}
        rates = {d: opt.rate_value for d, opt in ball_ladder.items()}
        active_ok = all(a <= 1e-6 for a in acts.values())
        below_pinned = all(r <= pinned_exp_opt.rate_value for r in rates.values())
        increasing = rates[1.0] < rates[DELTA] < rates[0.5]
        ok = active_ok and below_pinned and increasing
        emit(5, "ball constraint active, I*_d ordered in delta", ok,
             f"activity={max(acts.values()):.2e} (<=1e-6) "
             f"I*: {rates[1.0]:.5f} < {rates[DELTA]:.5f} < {rates[0.5]:.5f} "
             f"<= pinned {pinned_exp_opt.rate_value:.5f}")
        assert active_ok
        assert below_pinned
        assert increasing


class TestCriterion06:
    def test_estimator_cross_validation(self, estimator_sweep):
        t = estimator_sweep
        mc2, is2 = t[(0.2, "mc")], t[(0.2, "is-delta")]
        overlap = mc2.ci_low <= is2.ci_high and is2.ci_low <= mc2.ci_high
        ordering = all(t[(e, "is-delta")].relative_error
                       < t[(e, "mc")].relative_error
                       for e in (0.1, 0.15, 0.2))
        mc05, is05 = t[(0.05, "mc")], t[(0.05, "is-delta")]
        small_eps = mc05.flagged_saturated and is05.relative_error < 10.0
        ok = overlap and ordering and small_eps
        emit(6, "estimator cross-validation and ordering", ok,
             f"overlap@0.2={overlap} rel-ordering={ordering} "
             f"mc@0.05 saturated={mc05.flagged_saturated} "
             f"is@0.05 rel={is05.relative_error:.2f} (<10)")
        assert overlap
        assert ordering
        assert small_eps


class TestCriterion07:
    def test_likelihood_unbiasedness(self, ball_scen, exp_model, ball_exp_opt):
        # every sample hits a ball this wide, so the importance sampler's
        # per-sample values are the weights dP/dQ themselves
        certain = dataclasses.replace(ball_scen, delta=1e3)
        rep = run_importance_sampling(certain, exp_model, 0.15, K_FULL,
                                      ball_exp_opt.forcing, seed=777)
        se = rep.std / math.sqrt(K_FULL)
        dev = abs(rep.estimate - 1.0)
        ok = rep.hits == K_FULL and dev <= 3 * se
        emit(7, "E_Q[dP/dQ] = 1", ok,
             f"mean={rep.estimate:.4f} dev={dev:.4f} <= 3*SE={3 * se:.4f}")
        assert ok


class TestCriterion08:
    """LDP slope over the stated eps window.

    As stated, the window {0.08..0.2} straddles the maximum of P(A_delta)(eps)
    at the benchmark parameters (the probability is not monotone there), so
    the fitted slope cannot match -I*_delta for any correct estimator; the
    supplementary test shows the slope emerging at smaller eps where the
    exponential regime holds.
    """

    def test_ldp_slope_stated_window(self, estimator_sweep, ball_exp_opt):
        eps_list = [0.08, 0.1, 0.12, 0.15, 0.2]
        logp = [math.log(estimator_sweep[(e, "is-delta")].estimate)
                for e in eps_list]
        inv2 = [1.0 / e ** 2 for e in eps_list]
        coeffs, r2 = fit_scaling(inv2, logp, "linear")
        slope, target = coeffs[0], -ball_exp_opt.rate_value
        ok = abs(slope - target) <= 0.2 * abs(target)
        emit(8, "LDP slope on stated window {0.08..0.2}", ok,
             f"slope={slope:.5f} vs -I*_d={target:.5f} "
             f"(R2={r2:.3f}; window straddles the P(eps) peak)")
        assert ok, (
            "criterion as stated is unattainable at the benchmark parameters: "
            "P(eps) peaks inside the window (see decisions ledger)")

    def test_ldp_slope_supplementary_asymptotic_window(self, ball_scen,
                                                       exp_model,
                                                       ball_exp_opt):
        # diagnostic evidence, not the stated criterion: in the small-eps
        # regime the fitted slope does match -I*_delta well within 20%
        eps_list = [0.03, 0.035, 0.04, 0.045, 0.05]
        logp, inv2 = [], []
        for i, eps in enumerate(eps_list):
            rep = epsilon_sweep(ball_scen, exp_model, [eps], K_FULL,
                                ["is-delta"], 555 + i,
                                forcing_ball=ball_exp_opt.forcing)[0][2]
            logp.append(math.log(rep.estimate))
            inv2.append(1.0 / eps ** 2)
        coeffs, r2 = fit_scaling(inv2, logp, "linear")
        slope, target = coeffs[0], -ball_exp_opt.rate_value
        ok = abs(slope - target) <= 0.2 * abs(target) and r2 >= 0.99
        emit(8, "LDP slope, supplementary small-eps window", ok,
             f"slope={slope:.5f} vs -I*_d={target:.5f} R2={r2:.5f}")
        assert ok


class TestCriterion09:
    def test_center_law(self, wave, table1_grid, exp_model, displacement_scen):
        # (a) empirical variance over 1e5 runs within 5%
        K = 100_000
        term = sample_terminal_states(displacement_scen, exp_model, 0.1, K,
                                      seed=321)
        ref = sample_profile(wave, table1_grid)
        centers = wave_centers(term, ref, wave, table1_grid.dx)
        mean, var = analytic_center_law(0.1, table1_grid.T, exp_model, wave)
        var_ok = abs(centers.var() - var) / var <= 0.05
        mean_ok = abs(centers.mean() - mean) <= 3 * centers.std() / math.sqrt(K)

        # (b) half probability at zero threshold, exactly
        half = analytic_exit_probability(0.0, table1_grid.T, 0.1, exp_model,
                                         wave)
        half_ok = half == 0.5

        # (c) MC estimate of the exit event at a 1e-2 threshold inside its CI;
        # K sized so the CI half-width (2.6 sqrt(p(1-p)/K) ~ 4e-3) stays ~4x
        # the allowed O(dx, dt) center-law bias (5% on variance ~ 1e-3 on p)
        eps = 0.15
        K_exit = 4000
        _, var15 = analytic_center_law(eps, table1_grid.T, exp_model, wave)
        x_th = float(math.sqrt(var15) * ndtri(0.99))
        term2 = sample_terminal_states(displacement_scen, exp_model, eps,
                                       K_exit, seed=654, run_key=1)
        c2 = wave_centers(term2, ref, wave, table1_grid.dx)
        exceed = (c2 >= x_th).astype(float)
        p_mc = float(exceed.mean())
        half_width = 2.6 * float(exceed.std()) / math.sqrt(K_exit)
        p_an = analytic_exit_probability(x_th, table1_grid.T, eps, exp_model,
                                         wave)
        exit_ok = abs(p_mc - p_an) <= half_width

        ok = var_ok and mean_ok and half_ok and exit_ok
        emit(9, "center law (variance, half-prob, exit cross-check)", ok,
             f"var ratio={centers.var() / var:.4f} (within 5%) "
             f"P(x0=0)={half} exit mc={p_mc:.4f} vs analytic={p_an:.4f} "
             f"+-{half_width:.4f}")
        assert var_ok
        assert mean_ok
        assert half_ok
        assert exit_ok


class TestCriterion10:
    def test_godunov_brute_force(self):
        rng = np.random.default_rng(1001)
        worst = 0.0
        grid01 = np.linspace(0.0, 1.0, 10_000)
        for _ in range(1000):
            ql, qr = rng.uniform(-3, 3, 2)
            gamma = rng.uniform(-2, 2)
            qs = min(ql, qr) + grid01 * abs(qr - ql)
            f = 0.5 * (qs - gamma) ** 2
            ref = f.min() if ql <= qr else f.max()
            worst = max(worst, abs(godunov_flux(ql, qr, gamma) - ref))
        ok = worst <= 1e-6
        emit(10, "Godunov flux vs brute-force search", ok,
             f"worst abs deviation {worst:.2e} (<= 1e-6)")
        assert ok

    def test_gradient_matches_finite_differences(self, table1_grid, wave,
                                                 exp_model):
        rng = np.random.default_rng(1002)
        scen = RareEventSpec("displacement", wave, x0=5.0)
        gamma = wave.gamma
        worst = 0.0
        checked = 0
        for _ in range(10):
            q = _scaffold(scen, table1_grid, free_terminal=False)
            free = _free_block(scen, table1_grid, free_terminal=False)
            base = linear_interpolation_path(scen, table1_grid).q
            x = table1_grid.centers()
            smooth = sum(
                rng.uniform(0.02, 0.05)
                * np.sin(np.pi * rng.integers(1, 4)
                         * np.arange(table1_grid.N + 1)[:, None] / table1_grid.N)
                * np.sin(2 * np.pi * rng.integers(1, 5) * (x - x[0])
                         / (x[-1] - x[0]) + rng.uniform(0, 2 * np.pi))
                for _ in range(3))
            q[free] = (base + smooth)[free]
            path = PathMatrix(q, table1_grid, wave)
            _, grad = rate_and_gradient(path, exp_model)
            scale = np.max(np.abs(grad))
            tried = 0
            while tried < 8:
                n = int(rng.integers(1, table1_grid.N))
                m = int(rng.integers(2, table1_grid.M - 2))
                a, b, c = q[n, m - 1], q[n, m], q[n, m + 1]
                near_kink = any(
                    abs(u - v) < 1e-3 or abs(u + v - 2 * gamma) < 1e-3
                    or abs(u - gamma) < 1e-3 or abs(v - gamma) < 1e-3
                    for u, v in ((a, b), (b, c)))
                if near_kink:
                    continue
                h = 1e-6
                qp, qm = q.copy(), q.copy()
                qp[n, m] += h
                qm[n, m] -= h
                fd = (rate(PathMatrix(qp, table1_grid, wave), exp_model)
                      - rate(PathMatrix(qm, table1_grid, wave), exp_model)) / (2 * h)
                rel = abs(fd - grad[n, m]) / max(abs(fd), 1e-3 * scale)
                worst = max(worst, rel)
                tried += 1
                checked += 1
        ok = worst <= 1e-5
        emit(10, "analytic gradient vs central differences", ok,
             f"{checked} entries on 10 smooth paths, worst rel err "
             f"{worst:.2e} (<= 1e-5)")
        assert ok

    def test_cholesky_factor_identity(self, exp_model, dense_covariance):
        C = dense_covariance(exp_model)
        err = np.linalg.norm(exp_model.Phi @ exp_model.Phi.T - C) \
            / np.linalg.norm(C)
        ok = err <= 1e-10
        emit(10, "Phi Phi^T = C", ok, f"relative Frobenius error {err:.2e}")
        assert ok

    def test_sampler_covariance(self, one_step_increments, dense_covariance):
        draws, model = one_step_increments
        K = draws.shape[0]
        target = (model.grid.dt / model.grid.dx) * dense_covariance(model)
        emp = (draws.T @ draws) / K
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        ok = rel <= 0.05
        emit(10, "sampler covariance at 1e5 draws", ok,
             f"relative Frobenius error {rel:.4f} (<= 0.05)")
        assert ok
