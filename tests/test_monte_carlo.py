import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from scipy.stats import norm

from shockld import fluxes, montecarlo
from shockld.diagnostics import wave_centers
from shockld.fluxes import drift
from shockld.grid import SpaceTimeGrid, WaveSpec
from shockld.montecarlo import (epsilon_sweep, reduce_chunks, run_basic_mc,
                                run_importance_sampling, sample_stream,
                                sample_terminal_states)
from shockld.noise import build_noise_model, unwhiten
from shockld.optimize import (RareEventSpec, boundary_edges, initial_values,
                              target_values)

DELTA = np.sqrt(0.5)


@pytest.fixture(scope="module")
def certain_scen(ball_scen):
    """The benchmark ball widened until every sample hits it.

    There an importance sampler's per-sample values are its likelihood
    weights, bit for bit (1.0 * w), so its report is chunked_report of the
    weights.
    """
    return dataclasses.replace(ball_scen, delta=1e3)


def ar1_colored(model, z, scale):
    """scale diag(Phi) z, then x_i += rho x_{i-1}, over the last axis of z.

    Phi's AR(1) recurrence x_0 = sigma z_0, x_i = rho x_{i-1} + sigma s z_i,
    written out with each cell's scale * Phi_ii as one number.
    """
    coef = scale * model.Phi.diagonal()
    x = np.empty_like(z)
    x[..., 0] = z[..., 0] * coef[0]
    for i in range(1, model.size):
        x[..., i] = z[..., i] * coef[i]
        if model.rho:
            x[..., i] += model.rho * x[..., i - 1]
    return x


def girsanov_log_weights(z, h, eps, grid):
    """-I(h)/eps^2 - (sqrt(dx/dt)/eps) sum z.h over a whole draw array.

    I(h) = (dx/2dt) |h|^2; z is (K, N, M-2), one einsum for all K samples.
    """
    dx_dt = grid.dx / grid.dt
    action = 0.5 * dx_dt * np.sum(h * h)
    return (-action / (eps * eps)
            - np.sqrt(dx_dt) / eps * np.einsum("kij,ij->k", z, h))


def chunked_report(p, eps, hits):
    """The report of the per-sample values p, their moments summed the
    kernel's way: np.sum of p and of p^2 over each chunk of _CHUNK samples,
    then the chunks' sums in index order.  No hit's p^2 underflows at the
    eps these tests run, so the underflow count is 0."""
    total = squares = 0.0
    for lo in range(0, p.size, montecarlo._CHUNK):
        chunk = p[lo:lo + montecarlo._CHUNK]
        total += float(np.sum(chunk))
        squares += float(np.sum(chunk * chunk))
    return montecarlo._report((hits, total, squares, 0), p.size, eps)


def stream_draws(grid, K, seed, run_key):
    """Per-sample sample_stream normals, (K, N, M-2)."""
    return np.array([sample_stream(seed, run_key, k)
                     .standard_normal((grid.N, grid.M - 2)) for k in range(K)])


def row_major_kernel(scen, model, eps, K, seed, run_key, forcings):
    """The trajectory kernel written out with the batch stored row-major.

    All K samples form one (K, M) batch: per-sample sample_stream draws,
    colored by the written-out AR(1) recurrence, drift on the (K, M) array
    and the kernel's order of additions; the outer cells are written from
    the rows of the pinned-value table here, not through pin_edges.  Returns
    one (per-sample values, hits, terminal slices) per forcing.
    """
    grid, wave = model.grid, scen.wave
    N, M, dt, dx = grid.N, grid.M, grid.dt, grid.dx
    z = stream_draws(grid, K, seed, run_key)
    dW = ar1_colored(model, z, np.sqrt(dt / dx) * eps)
    q0 = initial_values(scen, grid)
    target = target_values(scen, grid)
    edges = boundary_edges(scen, grid)
    w = edges.shape[1] // 2
    out = []
    for h in forcings:
        tilt = None if h is None else ar1_colored(model, h, 1.0)
        q = np.tile(q0, (K, 1))
        for n in range(N):
            incr = drift(q, grid, wave)
            incr *= dt
            incr += dW[:, n, :]
            if tilt is not None:
                incr += tilt[n]
            q[:, 1:-1] += incr
            q[:, :w] = edges[n + 1, :w]
            q[:, M - w:] = edges[n + 1, w:]
        d = q - target
        ind = dx * np.sum(d * d, axis=1) <= scen.delta ** 2
        if h is None:
            p = ind.astype(float)
        else:
            p = ind * np.exp(girsanov_log_weights(z, h, eps, grid))
        out.append((p, int(np.count_nonzero(ind)), q))
    return out


def tilted_slices(scen, model, eps, K, seed, run_key, h):
    """The kernel's (K, M) terminal slices tilted by the forcing h, filed by
    chunk from montecarlo._simulate."""
    slices = np.empty((K, model.grid.M))
    for start, [[q]] in montecarlo._simulate(scen, model, K, seed, run_key,
                                             [eps], [h], lambda q, logw: q):
        slices[start:start + len(q)] = q
    return slices


def report_bits(rep):
    floats = np.array([rep.estimate, rep.std, rep.ci_low, rep.ci_high,
                       rep.relative_error, rep.epsilon])
    return (floats.view(np.int64).tolist(), rep.K, rep.hits,
            rep.underflowed_hits, rep.flagged_saturated)


def unblocked_weights(model, eps, K, forcing, seed, run_key):
    """The likelihood weights written out over one (K, N, M-2) draw array.

    Per-sample sample_stream draws and the Girsanov form over the whole
    array: no chunks and no sample blocks.
    """
    z = stream_draws(model.grid, K, seed, run_key)
    return np.exp(girsanov_log_weights(z, forcing, eps, model.grid))


def assert_no_child_process():
    """No child process of this one is left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEventIndicator:
    def test_boundary_case_counts_as_inside(self, wave, table1_grid, exp_model):
        # at eps = 0 every sample ends on the noiseless terminal slice, here
        # at a squared distance that delta^2 can equal exactly
        scen = RareEventSpec("displacement", wave, x0=1.0, delta=1.0)
        t = sample_terminal_states(scen, exp_model, 0.0, 1, seed=1)
        d = t - target_values(scen, table1_grid)
        d_sq = table1_grid.dx * np.sum(d * d, axis=1)[0]
        delta = float(np.sqrt(d_sq))
        below = float(np.nextafter(delta, 0.0))
        assert delta ** 2 == d_sq and below ** 2 < d_sq
        for radius, hits in ((delta, 8), (below, 0)):
            edge = dataclasses.replace(scen, delta=radius)
            assert run_basic_mc(edge, exp_model, 0.0, 8, seed=1).hits == hits


class TestBasicMc:
    def test_huge_ball_is_certain(self, wave, exp_model):
        scen = RareEventSpec("displacement", wave, x0=1.0, delta=50.0)
        rep = run_basic_mc(scen, exp_model, 0.05, 64, seed=1)
        assert rep.estimate == 1.0
        assert rep.hits == 64
        assert rep.relative_error == 0.0
        assert not rep.flagged_saturated

    def test_zero_noise_is_deterministic(self, wave, table1_grid, exp_model):
        # noiseless terminal distance to the x0=1 target decides the event
        scen_tight = RareEventSpec("displacement", wave, x0=1.0, delta=0.1)
        rep = run_basic_mc(scen_tight, exp_model, 0.0, 8, seed=1)
        assert rep.estimate == 0.0
        scen_loose = RareEventSpec("displacement", wave, x0=1.0, delta=2.0)
        rep = run_basic_mc(scen_loose, exp_model, 0.0, 8, seed=1)
        assert rep.estimate == 1.0

    def test_reproducible_bit_for_bit(self, ball_scen, exp_model):
        a = run_basic_mc(ball_scen, exp_model, 0.15, 500, seed=77)
        b = run_basic_mc(ball_scen, exp_model, 0.15, 500, seed=77)
        assert a == b

    def test_estimate_within_unit_interval(self, ball_scen, exp_model):
        rep = run_basic_mc(ball_scen, exp_model, 0.2, 500, seed=5)
        assert 0.0 <= rep.estimate <= 1.0
        assert rep.ci_low <= rep.estimate <= rep.ci_high

    def test_saturation_flag_on_empty_hits(self, ball_scen, exp_model):
        rep = run_basic_mc(ball_scen, exp_model, 0.05, 400, seed=3)
        assert rep.hits == 0
        assert rep.estimate == 0.0
        assert rep.flagged_saturated

    def test_k_validation(self, ball_scen, exp_model):
        with pytest.raises(ValueError):
            run_basic_mc(ball_scen, exp_model, 0.1, 0, seed=1)

    def test_negative_eps_refused(self, ball_scen, exp_model):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            run_basic_mc(ball_scen, exp_model, -0.1, 10, seed=1)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            epsilon_sweep(ball_scen, exp_model, [0.1, -0.1], 10, ["mc"],
                          seed=1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, ball_scen, exp_model, table1_grid,
                                    eps):
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            run_basic_mc(ball_scen, exp_model, eps, 10, seed=1)
        good = np.zeros((table1_grid.N, table1_grid.M - 2))
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            run_importance_sampling(ball_scen, exp_model, eps, 5, good, seed=1)


class TestLikelihoodRatio:
    def test_unit_weight_for_zero_forcing(self, certain_scen, exp_model,
                                          table1_grid):
        zero = np.zeros((table1_grid.N, exp_model.size))
        rep = run_importance_sampling(certain_scen, exp_model, 0.1, 50, zero,
                                      seed=30)
        assert rep.hits == 50
        assert rep.estimate == 1.0 and rep.std == 0.0

    def test_scalar_one_step_against_gaussian_densities(self):
        # single interior dimension, one step -> scalar Gaussian ratio
        dt, dx = 0.05, 0.5
        eps, h = 0.15, 0.04
        sd = np.sqrt(dt / dx)
        for w_tilde in (-0.3, -0.05, 0.0, 0.17, 0.6):
            # w_tilde is the whitened increment sqrt(dt/dx) z
            zh = np.array(w_tilde / sd * h)
            lr = np.exp(montecarlo._log_weights(zh, np.array([[h]]), eps,
                                                dx / dt))
            # increment under the tilted law: mean h/eps, same variance
            x = w_tilde + h / eps
            expected = norm.pdf(x, 0.0, sd) / norm.pdf(x, h / eps, sd)
            assert lr == pytest.approx(expected, rel=1e-12)

    def test_weights_positive(self, certain_scen, exp_model, ball_exp_opt):
        # realistic inputs: kernel draws tilted by an optimized forcing; the
        # report is that of the written-out weights, which are all positive
        for eps in (0.05, 0.1, 0.2):
            w = unblocked_weights(exp_model, eps, 20, ball_exp_opt.forcing,
                                  31, 0)
            assert np.all(w > 0)
            rep = run_importance_sampling(certain_scen, exp_model, eps, 20,
                                          ball_exp_opt.forcing, seed=31)
            assert report_bits(rep) == report_bits(chunked_report(w, eps, 20))

    def test_unbiased_at_moderate_sample_size(self, ball_scen, exp_model,
                                              ball_exp_opt, table1_grid):
        # E_Q[dP/dQ] = 1; moderate K here, the full-size check runs in the
        # acceptance suite
        from shockld.montecarlo import sample_stream
        K, eps = 2000, 0.15
        rho = np.sqrt(table1_grid.dt / table1_grid.dx)
        shift = ball_exp_opt.forcing / eps
        w = np.empty(K)
        for k in range(K):
            z = sample_stream(123, 0, k).standard_normal(
                (table1_grid.N, exp_model.size))
            y = rho * z
            s = y + shift
            w[k] = np.exp(-(table1_grid.dx / (2 * table1_grid.dt))
                          * (np.sum(s * s) - np.sum(y * y)))
        se = w.std() / np.sqrt(K)
        assert abs(w.mean() - 1.0) <= 3 * se


    def test_girsanov_weights_closer_to_extended_precision(
            self, exp_model, ball_exp_opt):
        # against a long-double reference, the one dot product per sample
        # beats the difference of two square sums of about 136 each, which
        # cancels 2-3 digits: on these draws the median relative error is
        # 5.5e-16 against 3.3e-14, and the largest 2.8e-12 against 6.9e-11
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        grid, h, eps = exp_model.grid, ball_exp_opt.forcing, 0.1
        z = stream_draws(grid, 1000, 7, 0)
        zl, hl, el = (np.asarray(v, dtype=np.longdouble) for v in (z, h, eps))
        r = np.longdouble(grid.dx) / np.longdouble(grid.dt)
        ref = (-(r / 2) * np.sum(hl * hl) / (el * el)
               - np.sqrt(r) / el * np.einsum("kij,ij->k", zl, hl))
        new = montecarlo._log_weights(np.einsum("kij,ij->k", z, h), h, eps,
                                      grid.dx / grid.dt)
        y = np.sqrt(grid.dt / grid.dx) * z
        s = y + h / eps
        old = -(grid.dx / (2.0 * grid.dt)) * (np.sum(s * s, axis=(1, 2))
                                              - np.sum(y * y, axis=(1, 2)))
        err_new, err_old = (np.abs((w - ref) / ref).astype(float)
                            for w in (new, old))
        assert 10 * np.median(err_new) <= np.median(err_old)
        assert 10 * np.max(err_new) <= np.max(err_old)
        assert np.median(err_new) < 2e-15


class TestColoring:
    @pytest.mark.parametrize("dx", [0.5, 0.25])
    @pytest.mark.parametrize("kind", ["identity", "exponential"])
    def test_recurrence_within_roundoff_of_dense_product(self, kind, dx,
                                                         dense_covariance):
        # the kernel's coloring (written out in ar1_colored, which it
        # matches bit for bit) against z @ L^T with L the Cholesky factor
        # of the independently built covariance.  Both sides round every
        # term and L differs from the closed-form Phi by its own roundoff;
        # the largest difference measured is 8 units of roundoff of
        # |z| @ |L|^T (dx 0.25), so 32 bounds it.  Identity noise is exact.
        grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, dx, 1.0, 0.05)
        model = (build_noise_model(kind, grid, sigma=1.0, l_c=5.0)
                 if kind == "exponential" else build_noise_model(kind, grid))
        L = np.linalg.cholesky(dense_covariance(model))
        z = stream_draws(grid, 64, 5, 0)
        colored = ar1_colored(model, z, 1.0)
        assert np.array_equal(unwhiten(model, z), colored)
        dense = z @ L.T
        if model.is_identity:
            assert np.array_equal(colored, dense)
        bound = 32 * np.finfo(float).eps * (np.abs(z) @ np.abs(L).T)
        assert np.all(np.abs(colored - dense) <= bound)


class TestImportanceSampling:
    def test_zero_forcing_reduces_to_basic_mc(self, ball_scen, exp_model,
                                              table1_grid):
        zero = np.zeros((table1_grid.N, exp_model.size))
        a = run_basic_mc(ball_scen, exp_model, 0.15, 400, seed=9)
        b = run_importance_sampling(ball_scen, exp_model, 0.15, 400, zero,
                                    seed=9)
        assert a == b

    def test_beats_basic_mc_at_moderate_noise(self, ball_scen, exp_model,
                                              ball_exp_opt):
        mc = run_basic_mc(ball_scen, exp_model, 0.15, 2000, seed=42)
        is_d = run_importance_sampling(ball_scen, exp_model, 0.15, 2000,
                                       ball_exp_opt.forcing, seed=42)
        assert is_d.relative_error < mc.relative_error

    def test_variance_ordering_of_the_three_estimators(self, ball_scen,
                                                       exp_model, ball_exp_opt,
                                                       pinned_exp_opt):
        # rel_error(IS_delta) <= rel_error(IS_0) <= rel_error(MC) in the
        # moderate-noise band; at eps = 0.2 the two tilted estimators are
        # statistically tied, so only their advantage over MC is asserted
        for i, eps in enumerate((0.1, 0.15, 0.2)):
            mc = run_basic_mc(ball_scen, exp_model, eps, 2000, seed=61,
                              run_key=i)
            is0 = run_importance_sampling(ball_scen, exp_model, eps, 2000,
                                          pinned_exp_opt.forcing, seed=61,
                                          run_key=i)
            isd = run_importance_sampling(ball_scen, exp_model, eps, 2000,
                                          ball_exp_opt.forcing, seed=61,
                                          run_key=i)
            assert isd.relative_error <= mc.relative_error
            assert is0.relative_error <= mc.relative_error
            if eps < 0.2:
                assert isd.relative_error <= is0.relative_error

    def test_survives_small_noise_where_mc_dies(self, ball_scen, exp_model,
                                                ball_exp_opt):
        mc = run_basic_mc(ball_scen, exp_model, 0.05, 1000, seed=8)
        is_d = run_importance_sampling(ball_scen, exp_model, 0.05, 1000,
                                       ball_exp_opt.forcing, seed=8)
        assert mc.hits == 0 and mc.flagged_saturated
        assert is_d.estimate > 0
        assert np.isfinite(is_d.relative_error)

    def test_requires_positive_eps(self, ball_scen, exp_model, table1_grid):
        zero = np.zeros((table1_grid.N, exp_model.size))
        with pytest.raises(ValueError):
            run_importance_sampling(ball_scen, exp_model, 0.0, 10, zero, seed=1)

    @pytest.mark.parametrize("certain", [True, False])
    def test_underflowed_hits_counted(self, certain, wave, certain_scen,
                                      exp_model, table1_grid, monkeypatch):
        # hand-made log-weights, cycling per chunk: exp(-400)^2 underflows
        # to 0, exp(-300)^2 = 2.7e-261 does not, and exp(-800) is itself 0.
        # Only hits count: on the partial ball every weight is -400, so the
        # count is the hit count.  The workers are forked, so they see the
        # patched _log_weights.
        cycle = [-400.0, -300.0, -800.0] if certain else [-400.0]
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_log_weights",
                            lambda zh, *args: np.resize(cycle, zh.shape))
        scen = certain_scen if certain else \
            RareEventSpec("displacement", wave, x0=1.0, delta=2.0)
        zero = np.zeros((table1_grid.N, exp_model.size))
        rep = run_importance_sampling(scen, exp_model, 0.3, 10, zero, seed=2)
        assert math.exp(-300.0) ** 2 >= np.finfo(float).tiny > \
            math.exp(-400.0) ** 2
        if certain:  # chunks of 7 and 3: (-400, -800) five times and twice
            assert rep.hits == 10 and rep.underflowed_hits == 7
        else:
            assert 0 < rep.hits < 10
            assert rep.underflowed_hits == rep.hits
        mc = run_basic_mc(scen, exp_model, 0.3, 10, seed=2)
        assert mc.underflowed_hits == 0


class TestEpsilonSweep:
    def test_single_eps_reduces_to_runners(self, ball_scen, exp_model,
                                           ball_exp_opt):
        res = epsilon_sweep(ball_scen, exp_model, [0.15], 300, ["mc", "is-delta"],
                            seed=55, forcing_ball=ball_exp_opt.forcing)
        assert len(res) == 2
        assert res[0][2] == run_basic_mc(ball_scen, exp_model, 0.15, 300, seed=55)
        assert res[1][2] == run_importance_sampling(
            ball_scen, exp_model, 0.15, 300, ball_exp_opt.forcing, seed=55)

    def test_fused_sweep_equals_separate_runners(self, ball_scen, exp_model,
                                                 ball_exp_opt, pinned_exp_opt):
        # K = 2100 spans several chunks and ends inside one.  The points
        # share their draws: each equals the runners at its eps with run
        # key 0, not only the first
        K, eps_list = 2100, [0.12, 0.2]
        res = epsilon_sweep(ball_scen, exp_model, eps_list, K,
                            ["mc", "is0", "is-delta"], seed=17,
                            forcing_pinned=pinned_exp_opt.forcing,
                            forcing_ball=ball_exp_opt.forcing)
        expected = []
        for eps in eps_list:
            expected += [
                (eps, "mc", run_basic_mc(ball_scen, exp_model, eps, K,
                                         seed=17, run_key=0)),
                (eps, "is0", run_importance_sampling(
                    ball_scen, exp_model, eps, K, pinned_exp_opt.forcing,
                    seed=17, run_key=0)),
                (eps, "is-delta", run_importance_sampling(
                    ball_scen, exp_model, eps, K, ball_exp_opt.forcing,
                    seed=17, run_key=0)),
            ]
        assert res == expected

    def test_one_stream_per_sample_per_sweep(self, ball_scen, exp_model,
                                             ball_exp_opt, pinned_exp_opt,
                                             monkeypatch, tmp_path):
        # the streams are opened in the kernel workers, which append each
        # (run key, k) to a file that this process reads back: one stream
        # per sample, of run key 0, opened once for all the eps
        log = tmp_path / "opened.txt"
        original = montecarlo._stream_states

        def counting(seed, run_key, start, stop):
            with open(log, "a") as fh:
                fh.writelines(f"{run_key} {k}\n" for k in range(start, stop))
            return original(seed, run_key, start, stop)

        monkeypatch.setattr(montecarlo, "_CHUNK", 16)
        monkeypatch.setattr(montecarlo, "_stream_states", counting)
        K = 40
        epsilon_sweep(ball_scen, exp_model, [0.1, 0.2], K,
                      ["mc", "is0", "is-delta"], seed=3,
                      forcing_pinned=pinned_exp_opt.forcing,
                      forcing_ball=ball_exp_opt.forcing)
        opened = [tuple(map(int, line.split()))
                  for line in log.read_text().splitlines()]
        assert sorted(opened) == [(0, k) for k in range(K)]

    def test_repeated_estimator_refused(self, ball_scen, exp_model):
        # ["mc", "mc"] would step one batch twice and report it twice
        with pytest.raises(ValueError, match="repeated estimator: 'mc'"):
            epsilon_sweep(ball_scen, exp_model, [0.2], 50, ["mc", "mc"],
                          seed=1)

    def test_repeated_eps_refused(self, ball_scen, exp_model, monkeypatch):
        # on shared draws [0.15, 0.15] would step identical batches twice
        # and report a copy; refused before any worker is forked
        def forking(*args):
            raise AssertionError("the kernel was started")

        monkeypatch.setattr(montecarlo, "_simulate", forking)
        with pytest.raises(ValueError, match=r"^repeated eps: 0\.15$"):
            epsilon_sweep(ball_scen, exp_model, [0.1, 0.15, 0.2, 0.15], 300,
                          ["mc"], seed=55)

    def test_argument_validation(self, ball_scen, exp_model):
        with pytest.raises(ValueError):
            epsilon_sweep(ball_scen, exp_model, [], 10, ["mc"], seed=1)
        with pytest.raises(ValueError):
            epsilon_sweep(ball_scen, exp_model, [0.1], 10, ["nope"], seed=1)
        with pytest.raises(ValueError):
            epsilon_sweep(ball_scen, exp_model, [0.1], 10, ["is0"], seed=1)
        with pytest.raises(ValueError):
            epsilon_sweep(ball_scen, exp_model, [0.1], 10, ["is-delta"], seed=1)
        with pytest.raises(ValueError, match="estimators must be nonempty"):
            epsilon_sweep(ball_scen, exp_model, [0.1], 10, [], seed=1)
        with pytest.raises(ValueError, match="forcings must be nonempty"):
            montecarlo._score(ball_scen, exp_model, 10, 1, 0, [0.1], [])

    def test_every_eps_checked_before_the_kernel_starts(
            self, ball_scen, exp_model, ball_exp_opt, monkeypatch):
        # the whole sweep is one kernel call: a bad eps anywhere in the grid
        # is refused before any worker is forked
        def forking(*args):
            raise AssertionError("the kernel was started")

        monkeypatch.setattr(montecarlo, "_simulate", forking)
        for eps_list, message in (([0.1, -0.1], "eps must be nonnegative"),
                                  ([0.1, math.nan], "eps must be nonnegative"),
                                  ([0.1, 0.0], "requires eps > 0")):
            with pytest.raises(ValueError, match=message):
                epsilon_sweep(ball_scen, exp_model, eps_list, 10,
                              ["mc", "is-delta"], seed=1,
                              forcing_ball=ball_exp_opt.forcing)


class TestOneStepIncrements:
    """The kernel's one-step increments: zero mean, independent samples."""

    def test_zero_mean(self, one_step_increments, dense_covariance):
        draws, model = one_step_increments
        K = draws.shape[0]
        var = (model.grid.dt / model.grid.dx) * np.diag(dense_covariance(model))
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * np.sqrt(var / K))

    def test_independent_across_samples(self, one_step_increments,
                                        dense_covariance):
        draws, model = one_step_increments
        half = draws.shape[0] // 2
        a, b = draws[:half], draws[half:2 * half]
        cross = (a.T @ b) / half
        sd = np.sqrt((model.grid.dt / model.grid.dx)
                     * np.diag(dense_covariance(model)))
        # 5 standard errors: 68^2 entries would cross 4 about once in four
        # seeds under independence
        assert np.all(np.abs(cross) < 5 * np.outer(sd, sd) / np.sqrt(half))


class TestTerminalStates:
    def test_shapes_and_reference_decay(self, wave, table1_grid, exp_model):
        scen = RareEventSpec("displacement", wave, x0=5.0, delta=DELTA)
        term = sample_terminal_states(scen, exp_model, 0.1, 50, seed=4)
        assert term.shape == (50, table1_grid.M)
        # boundary cells pinned by the displacement policy
        assert np.all(term[:, 0] == wave.u_minus)
        assert np.all(term[:, -1] == wave.u_plus)


class TestInputChecks:
    def test_forcing_given_as_list(self, ball_scen, exp_model, ball_exp_opt):
        h = ball_exp_opt.forcing
        a, b = montecarlo._score(ball_scen, exp_model, 9, 2, 0, [0.15],
                                 [h, h.tolist()])[0]
        assert report_bits(a) == report_bits(b)

    def test_forcing_shape_checked(self, ball_scen, exp_model, table1_grid):
        shape = (table1_grid.N, table1_grid.M - 2)
        bad = np.zeros((table1_grid.N, table1_grid.M))
        with pytest.raises(ValueError, match=re.escape(f"(N, M-2) = {shape}")):
            run_importance_sampling(ball_scen, exp_model, 0.15, 5, bad,
                                    seed=1)
        with pytest.raises(ValueError, match="shape"):
            montecarlo._score(ball_scen, exp_model, 5, 1, 0, [0.15],
                              [None, np.zeros(shape[::-1])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_forcing_refused(self, ball_scen, exp_model,
                                        table1_grid, bad):
        h = np.zeros((table1_grid.N, table1_grid.M - 2))
        h[3, 7] = bad
        with pytest.raises(ValueError, match="forcing entries must be finite"):
            run_importance_sampling(ball_scen, exp_model, 0.15, 5, h,
                                    seed=1)
        with pytest.raises(ValueError, match="forcing entries must be finite"):
            montecarlo._score(ball_scen, exp_model, 5, 1, 0, [0.15], [None, h])

    def test_k_at_least_one(self, ball_scen, exp_model):
        with pytest.raises(ValueError, match="K must be at least 1"):
            sample_terminal_states(ball_scen, exp_model, 0.15, 0, seed=1)

    @pytest.mark.parametrize("entry", ["mc", "is", "sweep"])
    def test_zero_delta_refused_by_library_estimators(
            self, entry, displacement_scen, identity_model, table1_grid):
        # dx |Q^N - target|^2 <= 0 has probability 0: refused, not reported
        # as a saturated zero estimate
        h = np.zeros((table1_grid.N, table1_grid.M - 2))
        run = {
            "mc": lambda: run_basic_mc(displacement_scen, identity_model,
                                       0.1, 20, seed=1),
            "is": lambda: run_importance_sampling(
                displacement_scen, identity_model, 0.1, 20, h, seed=1),
            "sweep": lambda: epsilon_sweep(
                displacement_scen, identity_model, [0.1], 20, ["mc", "is0"],
                seed=1, forcing_pinned=h),
        }[entry]
        with pytest.raises(ValueError, match="delta > 0.*probability 0"):
            run()

    def test_terminal_states_accept_zero_delta(self, displacement_scen,
                                               exp_model, table1_grid):
        term = sample_terminal_states(displacement_scen, exp_model, 0.1, 3,
                                      seed=1)
        assert term.shape == (3, table1_grid.M)

    def test_report_fields_are_python_scalars(self, wave, exp_model):
        scen = RareEventSpec("displacement", wave, x0=1.0, delta=2.0)
        rep = run_basic_mc(scen, exp_model, np.float64(0.3), 50, seed=2)
        assert 0 < rep.hits < 50
        for name in ("estimate", "std", "ci_low", "ci_high",
                     "relative_error", "epsilon"):
            assert type(getattr(rep, name)) is float, name
        assert type(rep.K) is int and type(rep.hits) is int
        assert type(rep.underflowed_hits) is int
        assert type(rep.flagged_saturated) is bool

    def test_importance_sampling_checked(self, certain_scen, exp_model,
                                         table1_grid):
        good = np.zeros((table1_grid.N, table1_grid.M - 2))

        def run(eps, K, forcing):
            return run_importance_sampling(certain_scen, exp_model, eps, K,
                                           forcing, seed=1)

        with pytest.raises(ValueError, match="shape"):
            run(0.1, 5, good[:1])
        with pytest.raises(ValueError, match="K must be at least 1"):
            run(0.1, 0, good)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            run(-0.1, 5, good)
        with pytest.raises(ValueError,
                           match="importance sampling requires eps > 0"):
            run(0.0, 5, good)
        rep = run(0.1, 5, good.tolist())
        assert rep.estimate == 1.0 and rep.std == 0.0


class TestKernelLayout:
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("kind", ["displacement", "speed_change"])
    @pytest.mark.parametrize("model_name", ["exp_model", "identity_model"])
    def test_matches_row_major_kernel_bit_for_bit(self, model_name, kind,
                                                  chunk, wave, request,
                                                  monkeypatch):
        model = request.getfixturevalue(model_name)
        grid = model.grid
        if kind == "displacement":   # far-field states, width 1
            scen = RareEventSpec(kind, wave, x0=5.0, delta=1.5)
        else:                        # time-interpolated, width 2
            scen = RareEventSpec(kind, wave, delta=1.3,
                                 target_wave=WaveSpec(2.2, 0.8, 1.0, 1.5))
        assert boundary_edges(scen, grid).shape[1] == \
            (2 if kind == "displacement" else 4)
        rng = np.random.default_rng(12)
        h = 0.002 * rng.standard_normal((grid.N, grid.M - 2))
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        K, eps = 17, 0.15
        ref = row_major_kernel(scen, model, eps, K, 31, 2, [None, h])
        reports = montecarlo._score(scen, model, K, 31, 2, [eps], [None, h])[0]
        assert [report_bits(r) for r in reports] == \
            [report_bits(chunked_report(p, eps, hits)) for p, hits, _ in ref]
        assert 0 < reports[0].hits < K
        slices = [sample_terminal_states(scen, model, eps, K, seed=31,
                                         run_key=2),
                  tilted_slices(scen, model, eps, K, 31, 2, h)]
        for q, (_, _, q_ref) in zip(slices, ref):
            assert np.array_equal(q.view(np.int64), q_ref.view(np.int64))


class TestSampleBlocks:
    # the workers send each chunk's slices, reduce it through reduce_chunks
    # or sum its moments, so the slices, centers and reports hold their bits
    # on one worker and on two
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("tilted", [False, True],
                             ids=["untilted", "tilted"])
    @pytest.mark.parametrize("model_name", ["exp_model", "identity_model"])
    def test_kept_rows_and_weights_match_unblocked(self, model_name, tilted,
                                                   chunk, workers, ball_scen,
                                                   certain_scen, ball_exp_opt,
                                                   wave, request, monkeypatch):
        model = request.getfixturevalue(model_name)
        grid = model.grid
        forcing = ball_exp_opt.forcing
        h = forcing if tilted else None
        K, eps = 17, 0.15
        reference = initial_values(ball_scen, grid)

        def slices():  # the untilted sampler's, or the kernel's tilted ones
            if h is None:
                return sample_terminal_states(ball_scen, model, eps, K,
                                              seed=8, run_key=1)
            return tilted_slices(ball_scen, model, eps, K, 8, 1, h)

        terminals = slices()
        centers = wave_centers(
            sample_terminal_states(ball_scen, model, eps, K, seed=8),
            reference, wave, grid.dx)
        weights = unblocked_weights(model, eps, K, forcing, 8, 1)
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        assert montecarlo.kernel_workers(K) == min(workers, -(-K // (
            chunk or montecarlo._CHUNK)))
        rows = slices()
        assert np.array_equal(rows.view(np.int64), terminals.view(np.int64))
        kept = np.concatenate(reduce_chunks(
            ball_scen, model, eps, K, 8,
            lambda q: wave_centers(q, reference, wave, grid.dx)))
        assert kept.shape == (K,)
        assert np.array_equal(kept.view(np.int64), centers.view(np.int64))
        rep = run_importance_sampling(certain_scen, model, eps, K, forcing,
                                      seed=8, run_key=1)
        assert report_bits(rep) == report_bits(chunked_report(weights, eps, K))


    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    def test_reduce_chunks_files_results_in_index_order(
            self, workers, ball_scen, exp_model, monkeypatch):
        # reduce_chunks gives reduce's result per chunk in index order,
        # whatever order the workers finish in: with a reduction that
        # returns the slices, they stack to sample_terminal_states bit for bit
        K, eps = 17, 0.15
        expected = sample_terminal_states(ball_scen, exp_model, eps, K, seed=8)
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        chunks = reduce_chunks(ball_scen, exp_model, eps, K, 8, lambda q: q)
        assert [len(q) for q in chunks] == [7, 7, 3]
        assert np.array_equal(np.concatenate(chunks).view(np.int64),
                              expected.view(np.int64))

    @pytest.mark.parametrize("model_name", ["exp_model", "identity_model"])
    def test_each_eps_of_shared_draws_matches_row_major_kernel(
            self, model_name, ball_scen, ball_exp_opt, request, monkeypatch):
        # a worker copies each chunk's draws cells-major once and scales
        # them per eps into their spent buffer: at every eps of a three-eps
        # run, the terminal slices and log-weights are the row-major
        # kernel's, bit for bit
        model = request.getfixturevalue(model_name)
        grid, h = model.grid, ball_exp_opt.forcing
        K, eps_list = 17, [0.1, 0.15, 0.2]
        draws = stream_draws(grid, K, 8, 1)
        expected = [([q for _, _, q in row_major_kernel(
            ball_scen, model, eps, K, 8, 1, [None, h])],
            girsanov_log_weights(draws, h, eps, grid)) for eps in eps_list]
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        slices = np.full((len(eps_list), 2, K, grid.M), np.nan)
        logws = np.full((len(eps_list), K), np.nan)
        for start, results in montecarlo._simulate(
                ball_scen, model, K, 8, 1, eps_list, [None, h],
                lambda q, logw: (q, logw)):
            for e, row in enumerate(results):
                for i, (q, logw) in enumerate(row):
                    assert (logw is None) == (i == 0)
                    slices[e, i, start:start + len(q)] = q
                    if logw is not None:
                        logws[e, start:start + len(q)] = logw
        for e, (qs, logw) in enumerate(expected):
            for i, q in enumerate(qs):
                assert np.array_equal(slices[e, i].view(np.int64),
                                      q.view(np.int64))
            assert np.array_equal(logws[e].view(np.int64),
                                  logw.view(np.int64))


class TestKernelBuffers:
    def test_overwritten_chunks_match_fresh_draws(self, ball_scen, exp_model,
                                                  ball_exp_opt, monkeypatch):
        # the workers send each chunk's reduced results over their pipes,
        # into memory of the consumer's own, which it may overwrite.  With a
        # reduction that returns the slices and log-weights themselves, four
        # two-eps runs at once (eight workers in all, more than a small host
        # has cores), consumed in turn, each see exactly their own, every
        # chunk once, in whatever order the workers finish them, with the
        # eps and forcings of a chunk in order.  A worker that sent one
        # forcing's or eps's slices from a buffer the next one overwrites
        # would send them equal to the next one's.
        monkeypatch.setattr(montecarlo, "_CHUNK", 3)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        K, eps_list, h = 40, [0.15, 0.2], ball_exp_opt.forcing
        grid, keys = exp_model.grid, range(4)
        terminals, weights = {}, {}
        for key in keys:
            draws = stream_draws(grid, K, 5, key)
            terminals[key] = [[q for _, _, q in row_major_kernel(
                ball_scen, exp_model, eps, K, 5, key, [None, h])]
                for eps in eps_list]
            weights[key] = [girsanov_log_weights(draws, h, eps, grid)
                            for eps in eps_list]
        runs = {key: montecarlo._simulate(ball_scen, exp_model, K, 5, key,
                                          eps_list, [None, h],
                                          lambda q, logw: (q, logw))
                for key in keys}
        chunks = {key: [] for key in keys}
        for _ in range(-(-K // 3)):
            for key, run in runs.items():
                start, results = next(run)
                assert len(results) == len(eps_list)
                for e, row in enumerate(results):
                    assert len(row) == 2
                    for i, (q, logw) in enumerate(row):
                        stop = start + len(q)
                        assert (logw is None) == (i == 0)
                        ref = terminals[key][e][i][start:stop]
                        assert np.array_equal(q.view(np.int64),
                                              ref.view(np.int64))
                        q.fill(np.nan)
                        if logw is not None:
                            ref = weights[key][e][start:stop]
                            assert np.array_equal(logw.view(np.int64),
                                                  ref.view(np.int64))
                            logw.fill(np.nan)
                chunks[key].append((start, stop))
        for run in runs.values():
            assert next(run, None) is None
        expected = [(lo, min(lo + 3, K)) for lo in range(0, K, 3)]
        assert all(sorted(c) == expected for c in chunks.values())
        assert_no_child_process()

    def test_numpy_peak_stays_within_four_chunk_blocks(self, ball_scen,
                                                       exp_model, ball_exp_opt,
                                                       pinned_exp_opt,
                                                       monkeypatch):
        # in blocks of 5.6 MB, one draw array at this K on the benchmark
        # grid.  One worker's chunk loop, fed the three chunks of one eps
        # through a stand-in pipe and run in this process under tracemalloc,
        # holds the draws, the colored store, the per-batch arrays and
        # temporaries and a chunk's results: 2.32 blocks, with a reduction
        # that keeps every forcing's slices.  The caller holds the chunk
        # moments the workers send and the reports, and maps nothing: 0.0029
        # blocks (0.0114 when it held the (F, K) values).  A sweep's caller
        # holds R x F x n_chunks moments of three floats, so with one worker
        # a six-eps sweep's peak exceeds the one-eps sweep's by at most three
        # times all six eps's moments: the filed moments, one chunk's message
        # and the reports.  It measured 1.5-2.2 kB against that 3.9 kB bound;
        # holding one eps's (F, K) values at a time measured 4.3-5.1 kB.
        grid = exp_model.grid
        block = montecarlo._CHUNK * grid.N * (grid.M - 2) * 8
        forcings = [None, pinned_exp_opt.forcing, ball_exp_opt.forcing]
        K = 2 * montecarlo._CHUNK + 100
        sent = []
        items = iter(range(0, K, montecarlo._CHUNK))

        def recv():  # the items, then a closed pipe
            for item in items:
                return item
            raise EOFError

        def send(results):  # the shapes only: keep no chunk's results
            sent.append([[q.shape for q in row] for row in results])

        conn = types.SimpleNamespace(send=send, recv=recv)
        tracemalloc.start()
        try:
            montecarlo._worker(conn, ball_scen, exp_model, K, 1, 0, [0.1],
                               forcings, lambda q, logw: q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sent == [[[(montecarlo._CHUNK, grid.M)] * 3]] * 2 + \
            [[[(100, grid.M)] * 3]]
        assert peak <= 2.32 * block

        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        tracemalloc.start()
        try:
            montecarlo._score(ball_scen, exp_model, K, 1, 0, [0.1], forcings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.004 * block

        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        sweep_peaks, sweep_eps = [], [0.05, 0.08, 0.1, 0.12, 0.15, 0.2]
        for eps_list in ([0.1], sweep_eps):
            tracemalloc.start()
            try:
                epsilon_sweep(ball_scen, exp_model, eps_list, K,
                              ["mc", "is0", "is-delta"], seed=1,
                              forcing_pinned=pinned_exp_opt.forcing,
                              forcing_ball=ball_exp_opt.forcing)
                sweep_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n_chunks = -(-K // montecarlo._CHUNK)
        moments = len(sweep_eps) * len(forcings) * n_chunks * 3 * 8
        assert sweep_peaks[1] - sweep_peaks[0] <= 3 * moments

    def test_centers_path_holds_no_slice_array(self, displacement_scen,
                                               wave, tmp_path):
        # on a two-step grid every chunk-sized buffer is smaller than one
        # (K, M) array of terminal slices, so while the kernel runs no live
        # allocation may be that large, in this process or in a worker.  The
        # workers run the reduction and inherit this process's tracing at the
        # fork; each appends (its pid, its largest live allocation) per chunk
        # to a file that this process reads back
        grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 0.1, 0.05)
        model = build_noise_model("exponential", grid, sigma=1.0, l_c=5.0)
        K = 4 * montecarlo._CHUNK + 3
        slices = K * grid.M * 8
        assert montecarlo._CHUNK * grid.N * (grid.M - 2) * 8 < slices
        reference = initial_values(displacement_scen, grid)
        log = tmp_path / "largest.txt"

        def reduce(q):
            traces = tracemalloc.take_snapshot().traces
            with open(log, "a") as fh:
                fh.write("%d %d\n" % (os.getpid(),
                                      max(trace.size for trace in traces)))
            return wave_centers(q, reference, wave, grid.dx)

        tracemalloc.start()
        try:
            chunks = reduce_chunks(displacement_scen, model, 0.1, K, 3, reduce)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.concatenate(chunks).shape == (K,)
        largest = [tuple(map(int, line.split()))
                   for line in log.read_text().splitlines()]
        assert len(largest) == 5
        assert os.getpid() not in {pid for pid, _ in largest}
        assert max(size for _, size in largest) < slices
        assert peak < slices

    def test_centers_caller_holds_the_centers(self, displacement_scen,
                                              exp_model, wave, monkeypatch):
        # the workers reduce each chunk's slices to its centers, so a
        # chunk's message is B floats and the caller holds the K centers, one
        # array per chunk, and about one message: its traced peak stays
        # within 8K bytes + 64 KiB on the benchmark grid (measured 8K + 24
        # to 26 KB).  Receiving the (B, M) slices and reducing them here
        # peaked at 8K + 654 KB.  The workers stop the tracing they inherit,
        # which would only slow them.
        grid = exp_model.grid
        K = 20_000
        reference = initial_values(displacement_scen, grid)
        worker = montecarlo._worker

        def untraced(*args):
            tracemalloc.stop()
            worker(*args)

        monkeypatch.setattr(montecarlo, "_worker", untraced)
        tracemalloc.start()
        try:
            chunks = reduce_chunks(
                displacement_scen, exp_model, 0.1, K, 5,
                lambda q: wave_centers(q, reference, wave, grid.dx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.concatenate(chunks).shape == (K,)
        assert peak <= 8 * K + 64 * 1024

    def test_one_traced_drift_call_per_step(self, ball_scen, exp_model,
                                            ball_exp_opt, pinned_exp_opt,
                                            monkeypatch, tmp_path):
        # the kernel steps through fluxes.euler_step, which looks drift up
        # in fluxes on every step, so that is where it is patched.  The
        # workers run it, so each appends (its pid, the batch shape) per
        # call to a file that this process reads back.  perfbench/tracing.py
        # patches montecarlo.drift and keeps its spans in the calling
        # process, so it has been blind to the drift calls since the kernel
        # moved into forked workers.
        log = tmp_path / "drift.txt"
        original = fluxes.drift

        def counting(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write("%d %d %d\n" % (os.getpid(), *args[0].shape))
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        monkeypatch.setattr(fluxes, "drift", counting)
        forcings = [None, pinned_exp_opt.forcing, ball_exp_opt.forcing]
        montecarlo._score(ball_scen, exp_model, 20, 4, 0, [0.15], forcings)
        calls = {}
        for line in log.read_text().splitlines():
            pid, *shape = map(int, line.split())
            calls.setdefault(pid, []).append(tuple(shape))
        grid = exp_model.grid
        per_chunk = grid.N * len(forcings)
        # worker 0 steps chunks 0 and 2, worker 1 chunk 1
        assert sorted(calls.values()) == [
            [(7, grid.M)] * per_chunk,
            [(7, grid.M)] * per_chunk + [(6, grid.M)] * per_chunk]
        assert os.getpid() not in calls


class TestBlasThreads:
    def test_reports_do_not_depend_on_blas_threads(self):
        # the kernel calls no BLAS: a three-forcing run over three chunks
        # reports the same bytes at one and at two OpenBLAS threads
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        code = "\n".join([
            "import numpy as np",
            "from shockld import montecarlo",
            "from shockld.grid import SpaceTimeGrid, WaveSpec",
            "from shockld.noise import build_noise_model",
            "from shockld.optimize import RareEventSpec",
            "montecarlo._CHUNK = 7",
            "grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)",
            "model = build_noise_model('exponential', grid, sigma=1.0,"
            " l_c=5.0)",
            "scen = RareEventSpec('displacement', WaveSpec(2.0, 1.0, 1.0,"
            " 1.5), x0=5.0, delta=1.5)",
            "rng = np.random.default_rng(12)",
            "h = [0.002 * rng.standard_normal((grid.N, grid.M - 2))"
            " for _ in range(2)]",
            "for rep in montecarlo._score(scen, model, 20, 31, 0, [0.15],"
            " [None] + h)[0]:",
            "    print(repr(rep))",
        ])
        outs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src,
                                        OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1]
        assert outs[0].count("EstimatorReport(") == 3


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**70 + 3])
    @pytest.mark.parametrize("run_key", [0, 2**33])
    def test_derivation_matches_numpy(self, seed, run_key):
        # single samples at the edge keys, and one chunk across k = 2**32,
        # where k goes from one spawn-key word to two
        shape = (3, 4)
        for start, stop in ((0, 1), (1023, 1025), (2**32 - 1, 2**32 + 1)):
            z = montecarlo._normals(np.empty((stop - start,) + shape), seed,
                                    run_key, start)
            ref = np.array([sample_stream(seed, run_key, k).standard_normal(shape)
                            for k in range(start, stop)])
            assert np.array_equal(z.view(np.int64), ref.view(np.int64))

    def test_negative_seed_rejected(self, ball_scen, exp_model):
        with pytest.raises(ValueError):
            montecarlo._normals(np.empty((2, 3, 4)), -1, 0, 0)
        with pytest.raises(ValueError):
            run_basic_mc(ball_scen, exp_model, 0.1, 10, seed=-1)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("model_name", ["exp_model", "identity_model"])
    def test_chunk_size_does_not_matter(self, model_name, chunk, ball_scen,
                                        ball_exp_opt, pinned_exp_opt,
                                        request, monkeypatch):
        # hits, the untilted report and the terminal slices keep their bits
        # at any chunk size; the tilted reports' moments are summed per
        # chunk, so they equal the chunked reference
        model = request.getfixturevalue(model_name)
        forcings = [None, pinned_exp_opt.forcing, ball_exp_opt.forcing]
        K, eps = 30, 0.15

        def outputs():
            return (montecarlo._score(ball_scen, model, K, 21, 3, [eps],
                                      forcings)[0],
                    tilted_slices(ball_scen, model, eps, K, 21, 0,
                                  ball_exp_opt.forcing))

        reports, terminals = outputs()
        values = row_major_kernel(ball_scen, model, eps, K, 21, 3, forcings)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        expected = [report_bits(chunked_report(p, eps, hits))
                    for p, hits, _ in values]
        chunked_reports, chunked_terminals = outputs()
        assert [r.hits for r in chunked_reports] == \
            [r.hits for r in reports]
        assert chunked_reports[0] == reports[0]
        assert [report_bits(r) for r in chunked_reports] == expected
        assert np.array_equal(chunked_terminals.view(np.int64),
                              terminals.view(np.int64))

    @pytest.mark.parametrize("model_name", ["exp_model", "identity_model"])
    def test_worker_count_does_not_matter(self, model_name, ball_scen,
                                          certain_scen, ball_exp_opt,
                                          pinned_exp_opt, request,
                                          monkeypatch):
        # 30 samples are five chunks of 7, the last one short: two workers
        # take three and two of them, three workers two, two and one.  On
        # the certain event every report is one of the weights' statistics.
        # A three-eps sweep deals the same five chunks.
        model = request.getfixturevalue(model_name)
        forcings = [None, pinned_exp_opt.forcing, ball_exp_opt.forcing]
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 8)
        assert montecarlo.kernel_workers(30) == 5
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
            assert montecarlo.kernel_workers(30) == workers
            reports = [montecarlo._score(scen, model, 30, 21, 3, [0.15],
                                         forcings)[0]
                       for scen in (ball_scen, certain_scen)]
            rows = tilted_slices(ball_scen, model, 0.15, 30, 21, 0,
                                 ball_exp_opt.forcing)
            sweep = epsilon_sweep(ball_scen, model, [0.1, 0.15, 0.2], 30,
                                  ["mc", "is0", "is-delta"], seed=21,
                                  forcing_pinned=pinned_exp_opt.forcing,
                                  forcing_ball=ball_exp_opt.forcing)
            outputs.append(([report_bits(r) for r in reports[0] + reports[1]],
                            rows.view(np.int64).tolist(),
                            [(eps, name, report_bits(r))
                             for eps, name, r in sweep]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert [r.hits for r in reports[1]] == [30] * 3

    def test_idle_worker_takes_the_next_chunk(self, ball_scen, exp_model,
                                              ball_exp_opt, monkeypatch,
                                              tmp_path):
        # ten chunks of 7 on two workers, chunk 0 slowed by half a second:
        # its worker hands over only the chunks it was dealt first, 0 and 2,
        # while the other takes each chunk as it frees up.  Every stream is
        # opened in the worker that steps its chunk, which appends (its pid,
        # the chunk's first sample) to a file that this process reads back.
        # A two-eps sweep deals the same ten chunks, each stepped at both
        # eps; no report may change.
        log = tmp_path / "chunks.txt"
        original = montecarlo._stream_states

        def logged(seed, run_key, start, stop):
            with open(log, "a") as fh:
                fh.write("%d %d\n" % (os.getpid(), start))
            if slow and start == 0:
                time.sleep(0.5)
            return original(seed, run_key, start, stop)

        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_stream_states", logged)
        outputs = []
        for slow in (False, True):
            logged_chunks = []
            log.write_text("")
            reports = montecarlo._score(ball_scen, exp_model, 70, 9, 0, [0.15],
                                        [None, ball_exp_opt.forcing])[0]
            logged_chunks.append(log.read_text())
            log.write_text("")
            sweep = epsilon_sweep(ball_scen, exp_model, [0.15, 0.2], 70,
                                  ["mc", "is-delta"], seed=9,
                                  forcing_ball=ball_exp_opt.forcing)
            logged_chunks.append(log.read_text())
            outputs.append(([report_bits(r) for r in reports],
                            [(eps, name, report_bits(r))
                             for eps, name, r in sweep]))
        assert outputs[0] == outputs[1]
        for text in logged_chunks:
            chunks = [tuple(map(int, line.split()))
                      for line in text.splitlines()]
            assert sorted(start for _, start in chunks) == \
                list(range(0, 70, 7))
            slow_pid = next(pid for pid, start in chunks if start == 0)
            assert sum(pid != slow_pid for pid, _ in chunks) >= 7

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("consumer", ["estimators", "slow_consumer"])
    def test_worker_failure_surfaces(self, consumer, workers, ball_scen,
                                     exp_model, monkeypatch):
        # chunk 1 fails: with one worker, the worker that handed over chunk
        # 0; with two, the second worker.  The slow consumer takes the
        # kernel's chunks with a pause after each.  With one worker it is
        # still on chunk 0 when the worker fails and exits, so the chunk it
        # deals next finds the pipe closed; the worker's exception must
        # surface all the same
        original = montecarlo._stream_states

        def failing(seed, run_key, start, stop):
            if start == 7:
                raise RuntimeError("draw failed")
            return original(seed, run_key, start, stop)

        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        monkeypatch.setattr(montecarlo, "_stream_states", failing)
        with pytest.raises(RuntimeError, match="^draw failed$"):
            if consumer == "estimators":
                montecarlo._score(ball_scen, exp_model, 20, 1, 0, [0.15],
                                  [None])
            else:
                for _ in montecarlo._simulate(ball_scen, exp_model, 20, 1, 0,
                                              [0.15], [None],
                                              lambda q, logw: q[:, 0]):
                    time.sleep(0.2)
        assert_no_child_process()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_reduction_failure_surfaces(self, workers, ball_scen,
                                               exp_model, monkeypatch):
        # the workers score each chunk against the target; a target one
        # cell too long fails there, in numpy, and that failure surfaces in
        # the caller with its type and message, with no worker left
        target = montecarlo.target_values
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        monkeypatch.setattr(montecarlo, "target_values",
                            lambda scen, grid: np.append(target(scen, grid), 0))
        with pytest.raises(ValueError,
                           match="^operands could not be broadcast together"):
            montecarlo._score(ball_scen, exp_model, 20, 1, 0, [0.15], [None])
        assert_no_child_process()

    def test_unpicklable_worker_failure_keeps_type_and_message(
            self, ball_scen, exp_model, monkeypatch):
        class DrawError(Exception):  # local, so it cannot be pickled
            pass

        def failing(seed, run_key, start, stop):
            raise DrawError("no stream")

        monkeypatch.setattr(montecarlo, "_stream_states", failing)
        with pytest.raises(RuntimeError, match="^DrawError: no stream$"):
            sample_terminal_states(ball_scen, exp_model, 0.15, 5, seed=1)
        assert_no_child_process()

    def test_unpicklable_reduce_result_keeps_type_and_message(
            self, ball_scen, exp_model, monkeypatch):
        # reduce runs in the workers, which send what it returns; a result
        # that cannot be pickled fails there, and the failure surfaces in
        # the caller with its type and message, with no worker left
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        with pytest.raises(TypeError,
                           match="^cannot pickle 'generator' object$"):
            reduce_chunks(ball_scen, exp_model, 0.15, 20, 1,
                          lambda q: (row for row in q))
        assert_no_child_process()

    def test_workers_reaped_when_reduce_fails(self, ball_scen, exp_model,
                                              monkeypatch):
        # reduce fails in a worker and the caller abandons the kernel mid-run;
        # the three workers, then stepping or waiting to hand over their
        # chunks, must still be reaped
        def failing(q):
            raise RuntimeError("reduce failed")

        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match="^reduce failed$"):
            reduce_chunks(ball_scen, exp_model, 0.15, 20, 1, failing)
        assert_no_child_process()

    def test_workers_reaped_when_closed_early(self, ball_scen, exp_model,
                                              monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        kernel = montecarlo._simulate(ball_scen, exp_model, 30, 1, 0, [0.15],
                                      [None], lambda q, logw: q)
        # the first chunk handed over is one of the three workers' first
        start, [[q]] = next(kernel)
        assert start in (0, 7, 14) and q.shape == (7, exp_model.grid.M)
        kernel.close()
        assert_no_child_process()

    def test_workers_reaped_after_complete_run(self, ball_scen, exp_model,
                                               monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        run_basic_mc(ball_scen, exp_model, 0.15, 20, seed=1)
        assert_no_child_process()
