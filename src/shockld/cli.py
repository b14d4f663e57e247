"""Command-line harness: scenario orchestration, seeding, CSV/JSON outputs.

    shockld <subcommand> --config cfg.json [--out DIR] [--seed SEED] [--threads N]

Subcommands: optimize, mc, is, sweep-x0, sweep-T, sweep-eps, convexity,
center-diagnostics.  SHOCKLD_THREADS is the fallback for --threads.  All
numeric output is written with 17 significant digits so that reruns with the
same seed are byte-identical and path files round-trip through the rate
function exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.special import ndtri

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .diagnostics import (analytic_center_law, analytic_exit_probability,
                          transition_margin_ok, wave_centers)
from .fluxes import check_cfl
from .grid import SpaceTimeGrid
from .montecarlo import (run_basic_mc, run_estimators, run_importance_sampling,
                         sample_terminal_states)
from .noise import build_noise_model
from .optimize import (initial_values, linear_interpolation_path,
                       linear_shift_path, midpoint_convexity_test,
                       minimize_ball, minimize_pinned, project_onto_pinning)
from .rate import PathMatrix, discrete_lower_bound, rate

FORMAT_VERSION = 1

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


def write_path_csv(path_matrix: PathMatrix, fname: str) -> None:
    """Rows = time levels, columns = cells, header row = cell centers."""
    centers = path_matrix.grid.centers()
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([_fmt(float(c)) for c in centers])
        for row in path_matrix.q:
            writer.writerow([_fmt(float(v)) for v in row])


def read_path_csv(fname: str, grid: SpaceTimeGrid, wave) -> PathMatrix:
    data = np.loadtxt(fname, delimiter=",", skiprows=1)
    return PathMatrix(np.atleast_2d(data), grid, wave)


def _write_meta(out_dir: str, name: str, cfg: RunConfig, extra: dict) -> None:
    meta = {"code_version": __version__, "config": cfg.raw}
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


def _optimize(cfg: RunConfig, model):
    if cfg.scenario.delta > 0:
        return minimize_ball(cfg.scenario, model)
    return minimize_pinned(cfg.scenario, model)


def _require(value, key: str):
    if value is None:
        raise ConfigError(f"missing field: run.{key}")
    return value


# ---------------------------------------------------------------------------
# subcommands

def cmd_optimize(cfg: RunConfig, out_dir: str, threads: int) -> None:
    model = _build(cfg)
    opt = _optimize(cfg, model)
    write_path_csv(opt.path, os.path.join(out_dir, "optimal_path.csv"))
    _write_csv(os.path.join(out_dir, "forcing.csv"),
               [_fmt(float(c)) for c in cfg.grid.interior_centers()],
               [[float(v) for v in row] for row in opt.forcing])
    bound = discrete_lower_bound(opt.path, model)
    scen = cfg.scenario
    i_shift = i_interp = ""
    if scen.kind == "displacement":
        pin = dataclasses.replace(scen, delta=0.0)
        i_shift = rate(project_onto_pinning(
            pin, cfg.grid, linear_shift_path(pin, cfg.grid),
            free_terminal=False), model)
        i_interp = rate(project_onto_pinning(
            pin, cfg.grid, linear_interpolation_path(pin, cfg.grid),
            free_terminal=False), model)
    header = ["format_version", "scenario", "delta", "I_star", "gradient_norm",
              "iterations", "converged", "lower_bound", "I_shift_path",
              "I_interp_path", "terminal_distance_sq", "multiplier", "seed"]
    row = [FORMAT_VERSION, scen.kind, scen.delta, opt.rate_value,
           opt.gradient_norm, opt.iterations, opt.converged, bound, i_shift,
           i_interp,
           "" if opt.terminal_distance_sq is None else opt.terminal_distance_sq,
           "" if opt.multiplier is None else opt.multiplier, cfg.run.seed]
    _write_csv(os.path.join(out_dir, "optimize_summary.csv"), header, [row])
    _write_meta(out_dir, "optimize_meta.json", cfg,
                {"subcommand": "optimize", "I_star": opt.rate_value,
                 "message": opt.message,
                 "optimizer": {"iterations": opt.iterations,
                               "evaluations": opt.evaluations,
                               "outer_steps": opt.outer_steps}})
    print(f"optimize: I*={opt.rate_value:.6g} grad={opt.gradient_norm:.3g} "
          f"iters={opt.iterations} converged={opt.converged}")


def cmd_mc(cfg: RunConfig, out_dir: str, threads: int) -> None:
    model = _build(cfg)
    eps = _require(cfg.run.eps, "eps")
    K = _require(cfg.run.K, "K")
    rep = run_basic_mc(cfg.scenario, model, eps, K, cfg.run.seed)
    _write_csv(os.path.join(out_dir, "reports.csv"), REPORT_COLUMNS,
               [_report_row(eps, "mc", rep, cfg.run.seed)])
    _write_meta(out_dir, "mc_meta.json", cfg, {"subcommand": "mc"})
    print(f"mc: estimate={rep.estimate:.6g} rel_error={rep.relative_error:.3g} "
          f"hits={rep.hits}")


def cmd_is(cfg: RunConfig, out_dir: str, threads: int) -> None:
    model = _build(cfg)
    eps = _require(cfg.run.eps, "eps")
    K = _require(cfg.run.K, "K")
    opt = _optimize(cfg, model)
    name = "is-delta" if cfg.scenario.delta > 0 else "is0"
    rep = run_importance_sampling(cfg.scenario, model, eps, K, opt.forcing,
                                  cfg.run.seed)
    _write_csv(os.path.join(out_dir, "reports.csv"), REPORT_COLUMNS,
               [_report_row(eps, name, rep, cfg.run.seed)])
    _write_meta(out_dir, "is_meta.json", cfg,
                {"subcommand": "is", "I_star": opt.rate_value})
    print(f"is: estimate={rep.estimate:.6g} rel_error={rep.relative_error:.3g} "
          f"hits={rep.hits} I*={opt.rate_value:.6g}")


def _sweep_point(args):
    """Worker for sweep-x0 / sweep-T: one pinned optimization."""
    text, x0, T = args
    cfg = parse_config(text)
    grid = cfg.grid
    if T is not None:
        grid = SpaceTimeGrid.from_spacing(grid.L, grid.R, grid.dx, T, grid.dt)
    scen = dataclasses.replace(cfg.scenario, x0=x0, delta=0.0)
    model = build_noise_model(cfg.noise_kind, grid, sigma=cfg.sigma, l_c=cfg.l_c)
    opt = minimize_pinned(scen, model)
    bound = discrete_lower_bound(opt.path, model)
    i_shift = rate(project_onto_pinning(scen, grid, linear_shift_path(scen, grid),
                                        free_terminal=False), model)
    i_interp = rate(project_onto_pinning(
        scen, grid, linear_interpolation_path(scen, grid),
        free_terminal=False), model)
    return [FORMAT_VERSION, x0, grid.T, cfg.wave.D, opt.rate_value,
            opt.gradient_norm, opt.iterations, opt.converged, bound,
            i_shift, i_interp, cfg.run.seed]


_SWEEP_HEADER = ["format_version", "x0", "T", "D", "I_star", "gradient_norm",
                 "iterations", "converged", "lower_bound", "I_shift_path",
                 "I_interp_path", "seed"]


def _map_points(worker, items, threads: int):
    if threads > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, items))
    return [worker(it) for it in items]


def cmd_sweep_x0(cfg: RunConfig, out_dir: str, threads: int, text: str = "") -> None:
    if cfg.scenario.kind != "displacement":
        raise ConfigError("sweep-x0 requires a displacement scenario")
    x0s = _require(cfg.run.x0_grid, "x0_grid")
    rows = _map_points(_sweep_point, [(text, x0, None) for x0 in x0s], threads)
    _write_csv(os.path.join(out_dir, "rate_summary.csv"), _SWEEP_HEADER, rows)
    _write_meta(out_dir, "sweep_x0_meta.json", cfg, {"subcommand": "sweep-x0"})
    print(f"sweep-x0: {len(rows)} points -> rate_summary.csv")


def cmd_sweep_T(cfg: RunConfig, out_dir: str, threads: int, text: str = "") -> None:
    if cfg.scenario.kind != "displacement":
        raise ConfigError("sweep-T requires a displacement scenario")
    Ts = _require(cfg.run.T_grid, "T_grid")
    items = [(text, cfg.scenario.x0, T) for T in Ts]
    rows = _map_points(_sweep_point, items, threads)
    _write_csv(os.path.join(out_dir, "rate_summary.csv"), _SWEEP_HEADER, rows)
    _write_meta(out_dir, "sweep_T_meta.json", cfg, {"subcommand": "sweep-T"})
    print(f"sweep-T: {len(rows)} points -> rate_summary.csv")


def _eps_point(args):
    """Worker for sweep-eps: every estimator at one eps, one kernel call."""
    scen, model, eps, K, forcings, seed, run_key = args
    return run_estimators(scen, model, eps, K, forcings, seed, run_key=run_key)


def cmd_sweep_eps(cfg: RunConfig, out_dir: str, threads: int) -> None:
    model = _build(cfg)
    eps_grid = _require(cfg.run.eps_grid, "eps_grid")
    K = _require(cfg.run.K, "K")
    estimators = cfg.run.estimators or ("mc", "is-delta")
    scen = cfg.scenario
    forcing = {"mc": None}
    if "is0" in estimators:
        pin = dataclasses.replace(scen, delta=0.0)
        forcing["is0"] = minimize_pinned(pin, model).forcing
    if "is-delta" in estimators:
        if not scen.delta > 0:
            raise ConfigError("estimator is-delta requires scenario.delta > 0")
        forcing["is-delta"] = minimize_ball(scen, model).forcing
    forcings = [forcing[name] for name in estimators]
    # run key i for the i-th eps, as in epsilon_sweep
    items = [(scen, model, eps, K, forcings, cfg.run.seed, i)
             for i, eps in enumerate(eps_grid)]
    results = _map_points(_eps_point, items, threads)
    rows = [_report_row(eps, name, rep, cfg.run.seed)
            for eps, reps in zip(eps_grid, results)
            for name, rep in zip(estimators, reps)]
    _write_csv(os.path.join(out_dir, "reports.csv"), REPORT_COLUMNS, rows)
    _write_meta(out_dir, "sweep_eps_meta.json", cfg, {"subcommand": "sweep-eps"})
    print(f"sweep-eps: {len(rows)} reports -> reports.csv")


def cmd_convexity(cfg: RunConfig, out_dir: str, threads: int) -> None:
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


def cmd_center_diagnostics(cfg: RunConfig, out_dir: str, threads: int) -> None:
    model = _build(cfg)
    eps = _require(cfg.run.eps, "eps")
    K = _require(cfg.run.K, "K")
    grid, wave = cfg.grid, cfg.wave
    terminals = sample_terminal_states(cfg.scenario, model, eps, K,
                                       cfg.run.seed)
    reference = initial_values(cfg.scenario, grid)
    centers = wave_centers(terminals, reference, wave, grid.dx)
    emp_mean = float(np.mean(centers))
    emp_var = float(np.var(centers))
    mean, var = analytic_center_law(eps, grid.T, model, grid.dx, wave)

    p_target = cfg.run.exit_probability or 0.01
    threshold = float(np.sqrt(var) * ndtri(1.0 - p_target))
    exceed = (centers >= mean + threshold).astype(float)
    mc_p = float(np.mean(exceed))
    mc_std = float(np.std(exceed))
    half = 2.6 * mc_std / np.sqrt(K)
    analytic_p = analytic_exit_probability(threshold, grid.T, eps, model,
                                           grid.dx, wave)
    margin = transition_margin_ok(threshold, grid, wave)
    header = ["format_version", "eps", "K", "empirical_mean", "empirical_var",
              "analytic_mean", "analytic_var", "var_ratio", "exit_threshold",
              "exit_mc", "exit_ci_low", "exit_ci_high", "exit_analytic",
              "margin_ok", "seed"]
    row = [FORMAT_VERSION, eps, K, emp_mean, emp_var, mean, var,
           emp_var / var if var > 0 else float("nan"), threshold, mc_p,
           mc_p - half, mc_p + half, analytic_p, margin, cfg.run.seed]
    _write_csv(os.path.join(out_dir, "center_diagnostics.csv"), header, [row])
    _write_meta(out_dir, "center_diagnostics_meta.json", cfg,
                {"subcommand": "center-diagnostics"})
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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count for sweep fan-out "
                             "(SHOCKLD_THREADS as fallback)")
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("SHOCKLD_THREADS", "1"))
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text)
        if args.seed is not None:
            doc = json.loads(text)
            doc["run"]["seed"] = args.seed
            text = json.dumps(doc)
            cfg = parse_config(text)
        out_dir = args.out or cfg.run.out or "out"
        os.makedirs(out_dir, exist_ok=True)
        handler = _COMMANDS[args.subcommand]
        if args.subcommand in ("sweep-x0", "sweep-T"):
            handler(cfg, out_dir, threads, text=text)
        else:
            handler(cfg, out_dir, threads)
    except Exception as err:  # single diagnostic line, nonzero exit
        print(f"shockld {args.subcommand}: "
              f"{err.__class__.__module__}.{err.__class__.__name__}: {err}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
