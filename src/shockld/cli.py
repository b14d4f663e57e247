"""Command-line harness: scenario orchestration, seeding, CSV/JSON outputs.

    shockld <subcommand> --config cfg.json [--out DIR] [--seed SEED]

Subcommands: optimize, mc, is, sweep-x0, sweep-T, sweep-eps, convexity,
center-diagnostics.  mc and is write the reports.csv row of a one-point
sweep-eps at run.eps (is runs is-delta); mc, is and sweep-eps refuse
scenario.delta = 0, whose terminal event has probability 0, and
center-diagnostics refuses a run.eps whose center law has variance 0 (eps =
0, or eps^2 underflowing).  sweep-eps is one epsilon_sweep call, whose
kernel spreads the chunks of the K samples over all usable CPUs, at most one
worker per chunk, and steps each chunk's draws at every eps.  Its points
share their draws: each row equals the mc or is row at that eps, per-point
confidence intervals are those of standalone runs, and the points' errors
are positively correlated, so disjoint intervals stay conservative evidence
of a difference; a repeated eps is refused.  sweep-x0 and sweep-T, one rate
sweep over x0 or T, solve their points in order in this process.
center-diagnostics has the kernel's workers reduce each chunk of terminal
slices to its wave centers and takes their statistics in place, so what it
holds grows by 9 bytes per sample, the K float centers and a K-byte exit
indicator, not by K x M floats.  Every *_meta.json records the numerical
regime: the grid's CFL number and the BLAS thread variables, and the Monte
Carlo sidecars the kernel's worker process count; is_meta.json and
sweep_eps_meta.json record each importance sampler's solve (converged,
message, iterations, evaluations) under "solves".  All numeric output is
written with 17 significant digits so that reruns with the same seed are
byte-identical and path files round-trip through the rate function exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from statistics import NormalDist

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .diagnostics import (analytic_center_law, analytic_exit_probability,
                          transition_margin_ok, wave_centers)
from .fluxes import cfl_number, check_cfl
from .grid import SpaceTimeGrid
from .montecarlo import epsilon_sweep, kernel_workers, sample_terminal_states
from .noise import build_noise_model
from .optimize import (initial_values, linear_interpolation_path,
                       linear_shift_path, midpoint_convexity_test,
                       minimize_ball, minimize_pinned, project_onto_pinning)
from .rate import discrete_lower_bound, rate

FORMAT_VERSION = 2

REPORT_COLUMNS = ["format_version", "eps", "estimator", "estimate", "std",
                  "ci_low", "ci_high", "rel_error", "K", "seed", "saturated"]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_matrix(fname: str, header, matrix) -> None:
    """Float CSV: a header row, then one row per row of `matrix`.

    Every value is written as "%.17g", 17 significant digits, so the file
    reads back bit for bit, and every line ends in CRLF, csv.writer's
    terminator: the bytes equal those of _write_csv on the same floats.
    The whole file is formatted by one %.
    """
    rows = np.vstack([header, matrix])
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(fname, "w", newline="") as fh:
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_meta(out_dir: str, name: str, cfg: RunConfig, extra: dict) -> None:
    """The JSON sidecar: code version, config and the numerical regime (the
    grid's CFL number and the BLAS thread variables, null when unset),
    then the subcommand's own fields."""
    meta = {"code_version": __version__, "config": cfg.raw,
            "cfl_number": cfl_number(cfg.grid, cfg.wave),
            "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS}}
    meta.update(extra)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build(cfg: RunConfig):
    model = build_noise_model(cfg.noise_kind, cfg.grid, sigma=cfg.sigma,
                              l_c=cfg.l_c)
    check_cfl(cfg.grid, cfg.wave)
    return model


def _report_row(eps: float, name: str, rep, seed: int):
    return [FORMAT_VERSION, eps, name, rep.estimate, rep.std, rep.ci_low,
            rep.ci_high, rep.relative_error, rep.K, seed,
            rep.flagged_saturated]


def _solve_columns(scen, grid: SpaceTimeGrid, model, opt) -> list:
    """I_star .. I_interp_path of a solve's summary row.  The test paths are
    projected onto the pinned-terminal feasible set, so each rate bounds the
    pinned optimum; they are left empty unless the scenario is a displacement.
    """
    bound = discrete_lower_bound(opt.path, model)
    test_rates = ["", ""]
    if scen.kind == "displacement":
        pin = dataclasses.replace(scen, delta=0.0)
        test_rates = [rate(project_onto_pinning(pin, grid, path(pin, grid)),
                           model)
                      for path in (linear_shift_path, linear_interpolation_path)]
    return [opt.rate_value, opt.gradient_norm, opt.iterations, opt.converged,
            bound, *test_rates]


def _require(value, key: str):
    if value is None:
        raise ConfigError(f"missing field: run.{key}")
    return value


# ---------------------------------------------------------------------------
# subcommands

def cmd_optimize(cfg: RunConfig, out_dir: str) -> None:
    model = _build(cfg)
    scen = cfg.scenario
    solve = minimize_ball if scen.delta > 0 else minimize_pinned
    opt = solve(scen, model)
    _write_matrix(os.path.join(out_dir, "optimal_path.csv"),
                  cfg.grid.centers(), opt.path.q)
    _write_matrix(os.path.join(out_dir, "forcing.csv"),
                  cfg.grid.interior_centers(), opt.forcing)
    header = ["format_version", "scenario", "delta", "I_star", "gradient_norm",
              "iterations", "converged", "lower_bound", "I_shift_path",
              "I_interp_path", "terminal_distance_sq", "multiplier", "seed"]
    row = [FORMAT_VERSION, scen.kind, scen.delta,
           *_solve_columns(scen, cfg.grid, model, opt),
           "" if opt.terminal_distance_sq is None else opt.terminal_distance_sq,
           "" if opt.multiplier is None else opt.multiplier, cfg.run.seed]
    _write_csv(os.path.join(out_dir, "optimize_summary.csv"), header, [row])
    _write_meta(out_dir, "optimize_meta.json", cfg,
                {"subcommand": "optimize", "I_star": opt.rate_value,
                 "message": opt.message,
                 "optimizer": {"iterations": opt.iterations,
                               "evaluations": opt.evaluations}})
    print(f"optimize: I*={opt.rate_value:.6g} grad={opt.gradient_norm:.3g} "
          f"iters={opt.iterations} converged={opt.converged}")


def _estimate(cfg: RunConfig, out_dir: str, eps_grid, estimators):
    """mc, is and sweep-eps: every estimator at every eps, into reports.csv.

    Solves for each importance sampler's forcing, runs epsilon_sweep and
    returns its (eps, estimator, report) list and the solves by name.  Every
    estimator scores the terminal ball, so scenario.delta = 0 is refused.
    """
    model = _build(cfg)
    K = _require(cfg.run.K, "K")
    scen = cfg.scenario
    if not scen.delta > 0:
        raise ConfigError("scenario.delta must be positive for the estimators: "
                          "the event dx |Q^N - target|^2 <= 0 has probability 0")
    solves = {}
    if "is0" in estimators:
        solves["is0"] = minimize_pinned(dataclasses.replace(scen, delta=0.0),
                                        model)
    if "is-delta" in estimators:
        solves["is-delta"] = minimize_ball(scen, model)
    forcing = {name: opt.forcing for name, opt in solves.items()}
    results = epsilon_sweep(scen, model, eps_grid, K, estimators, cfg.run.seed,
                            forcing_pinned=forcing.get("is0"),
                            forcing_ball=forcing.get("is-delta"))
    _write_csv(os.path.join(out_dir, "reports.csv"), REPORT_COLUMNS,
               [_report_row(eps, name, rep, cfg.run.seed)
                for eps, name, rep in results])
    return results, solves


def _solve_records(solves) -> dict:
    """The sidecar's record of each importance sampler's solve, by name: a
    forcing from a solve that stalled shows as converged false."""
    return {name: {"converged": opt.converged, "message": opt.message,
                   "iterations": opt.iterations,
                   "evaluations": opt.evaluations}
            for name, opt in solves.items()}


def cmd_mc(cfg: RunConfig, out_dir: str) -> None:
    eps = _require(cfg.run.eps, "eps")
    [(_, _, rep)], _ = _estimate(cfg, out_dir, [eps], ["mc"])
    _write_meta(out_dir, "mc_meta.json", cfg,
                {"subcommand": "mc", "kernel_workers": kernel_workers(rep.K)})
    print(f"mc: estimate={rep.estimate:.6g} rel_error={rep.relative_error:.3g} "
          f"hits={rep.hits}")


def cmd_is(cfg: RunConfig, out_dir: str) -> None:
    eps = _require(cfg.run.eps, "eps")
    [(_, _, rep)], solves = _estimate(cfg, out_dir, [eps], ["is-delta"])
    i_star = solves["is-delta"].rate_value
    _write_meta(out_dir, "is_meta.json", cfg,
                {"subcommand": "is", "I_star": i_star,
                 "kernel_workers": kernel_workers(rep.K),
                 "solves": _solve_records(solves)})
    print(f"is: estimate={rep.estimate:.6g} rel_error={rep.relative_error:.3g} "
          f"hits={rep.hits} I*={i_star:.6g}")


def cmd_sweep_eps(cfg: RunConfig, out_dir: str) -> None:
    eps_grid = _require(cfg.run.eps_grid, "eps_grid")
    estimators = cfg.run.estimators or ("mc", "is-delta")
    _, solves = _estimate(cfg, out_dir, eps_grid, estimators)
    _write_meta(out_dir, "sweep_eps_meta.json", cfg,
                {"subcommand": "sweep-eps",
                 "kernel_workers": kernel_workers(cfg.run.K),
                 "solves": _solve_records(solves)})
    print(f"sweep-eps: {len(eps_grid) * len(estimators)} reports -> reports.csv")


_SWEEP_HEADER = ["format_version", "x0", "T", "D", "I_star", "gradient_norm",
                 "iterations", "converged", "lower_bound", "I_shift_path",
                 "I_interp_path", "seed"]


def _sweep_point(cfg: RunConfig, x0: float, T: float) -> list:
    """A sweep-x0 / sweep-T row: one pinned solve at (x0, T)."""
    g = cfg.grid
    grid = SpaceTimeGrid.from_spacing(g.L, g.R, g.dx, T, g.dt)
    scen = dataclasses.replace(cfg.scenario, x0=x0, delta=0.0)
    model = build_noise_model(cfg.noise_kind, grid, sigma=cfg.sigma, l_c=cfg.l_c)
    opt = minimize_pinned(scen, model)
    return [FORMAT_VERSION, x0, grid.T, cfg.wave.D,
            *_solve_columns(scen, grid, model, opt), cfg.run.seed]


def _rate_sweep(cfg: RunConfig, out_dir: str, subcommand: str, key: str,
                point) -> None:
    """sweep-x0 and sweep-T: one pinned solve per value of run.<key>.

    point(value) gives the (x0, T) of that value's solve.
    """
    if cfg.scenario.kind != "displacement":
        raise ConfigError(f"{subcommand} requires a displacement scenario")
    values = _require(getattr(cfg.run, key), key)
    rows = [_sweep_point(cfg, *point(v)) for v in values]
    _write_csv(os.path.join(out_dir, "rate_summary.csv"), _SWEEP_HEADER, rows)
    _write_meta(out_dir, f"{subcommand.replace('-', '_')}_meta.json", cfg,
                {"subcommand": subcommand})
    print(f"{subcommand}: {len(rows)} points -> rate_summary.csv")


def cmd_sweep_x0(cfg: RunConfig, out_dir: str) -> None:
    _rate_sweep(cfg, out_dir, "sweep-x0", "x0_grid",
                lambda x0: (x0, cfg.grid.T))


def cmd_sweep_T(cfg: RunConfig, out_dir: str) -> None:
    _rate_sweep(cfg, out_dir, "sweep-T", "T_grid",
                lambda T: (cfg.scenario.x0, T))


def cmd_convexity(cfg: RunConfig, out_dir: str) -> None:
    model = _build(cfg)
    opt = minimize_pinned(dataclasses.replace(cfg.scenario, delta=0.0), model)
    trials = cfg.run.trials if cfg.run.trials is not None else 10_000
    rng = np.random.default_rng(np.random.SeedSequence(cfg.run.seed,
                                                       spawn_key=(2,)))
    frac = midpoint_convexity_test(opt.path, model, trials, rng)
    _write_csv(os.path.join(out_dir, "convexity.csv"),
               ["format_version", "trials", "fraction", "I_star", "seed"],
               [[FORMAT_VERSION, trials, frac, opt.rate_value, cfg.run.seed]])
    _write_meta(out_dir, "convexity_meta.json", cfg, {"subcommand": "convexity"})
    print(f"convexity: fraction={frac:.4f} over {trials} pairs")


def _mean_var_in_place(x: np.ndarray):
    """np.mean(x) and np.var(x) of a 1-D float array, bit for bit.

    These are np.var's own steps, the pairwise sum over the size, then the
    deviations squared and summed the same way, but run in x rather than in
    a temporary of its size: x is left holding the squared deviations.
    """
    mean = np.sum(x) / x.size
    x -= mean
    x *= x
    return mean, np.sum(x) / x.size


def cmd_center_diagnostics(cfg: RunConfig, out_dir: str) -> None:
    model = _build(cfg)
    eps = _require(cfg.run.eps, "eps")
    K = _require(cfg.run.K, "K")
    grid, wave = cfg.grid, cfg.wave
    mean, var = analytic_center_law(eps, grid.T, model, wave)
    if not var > 0:
        raise ConfigError(f"run.eps = {eps!r} gives the center law variance "
                          f"{var!r}; center-diagnostics needs it positive")
    reference = initial_values(cfg.scenario, grid)
    # reduced to centers per chunk in the workers: no (K, M) slices are held
    centers = sample_terminal_states(
        cfg.scenario, model, eps, K, cfg.run.seed,
        keep=lambda q: wave_centers(q, reference, wave, grid.dx))
    p_target = cfg.run.exit_probability or 0.01
    threshold = float(np.sqrt(var) * NormalDist().inv_cdf(1.0 - p_target))
    exceed = centers >= mean + threshold
    emp_mean, emp_var = map(float, _mean_var_in_place(centers))
    centers[:] = exceed  # the spent centers take the indicator as 0.0/1.0
    mc_p, mc_var = map(float, _mean_var_in_place(centers))
    mc_std = float(np.sqrt(mc_var))
    half = 2.6 * mc_std / np.sqrt(K)
    analytic_p = analytic_exit_probability(threshold, grid.T, eps, model,
                                           wave)
    margin = transition_margin_ok(threshold, grid, wave)
    header = ["format_version", "eps", "K", "empirical_mean", "empirical_var",
              "analytic_mean", "analytic_var", "var_ratio", "exit_threshold",
              "exit_mc", "exit_ci_low", "exit_ci_high", "exit_analytic",
              "margin_ok", "seed"]
    row = [FORMAT_VERSION, eps, K, emp_mean, emp_var, mean, var, emp_var / var,
           threshold, mc_p, mc_p - half, mc_p + half, analytic_p, margin,
           cfg.run.seed]
    _write_csv(os.path.join(out_dir, "center_diagnostics.csv"), header, [row])
    _write_meta(out_dir, "center_diagnostics_meta.json", cfg,
                {"subcommand": "center-diagnostics",
                 "kernel_workers": kernel_workers(K)})
    print(f"center-diagnostics: var ratio={row[7]:.4f} "
          f"exit mc={mc_p:.4g} vs analytic={analytic_p:.4g}")


_COMMANDS = {
    "optimize": cmd_optimize,
    "mc": cmd_mc,
    "is": cmd_is,
    "sweep-x0": cmd_sweep_x0,
    "sweep-T": cmd_sweep_T,
    "sweep-eps": cmd_sweep_eps,
    "convexity": cmd_convexity,
    "center-diagnostics": cmd_center_diagnostics,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shockld",
        description="rare-event toolkit for stochastic viscous conservation laws")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed from the config")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text)
        if args.seed is not None:
            doc = json.loads(text)
            doc["run"]["seed"] = args.seed
            cfg = parse_config(json.dumps(doc))
        out_dir = args.out or cfg.run.out or "out"
        os.makedirs(out_dir, exist_ok=True)
        _COMMANDS[args.subcommand](cfg, out_dir)
    except Exception as err:  # single diagnostic line, nonzero exit
        print(f"shockld {args.subcommand}: "
              f"{err.__class__.__module__}.{err.__class__.__name__}: {err}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
