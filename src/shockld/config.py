"""JSON run configuration: parsing, validation, defaults.

A configuration document has five sections:

    {
      "grid":     {"L": -15.0, "R": 20.0, "dx": 0.5, "T": 1.0, "dt": 0.05},
      "wave":     {"u_minus": 2.0, "u_plus": 1.0, "D": 1.0, "gamma_frame": 1.5},
      "noise":    {"kind": "exponential", "sigma": 1.0, "l_c": 5.0},
      "scenario": {"kind": "displacement", "x0": 5.0, "delta": 0.7071067811865476},
      "run":      {"seed": 1234, "K": 10000, "eps": 0.15, ...}
    }

Unknown keys are rejected, every number must be finite (Python's json reads
NaN and Infinity), and every reported error names the offending key.  The
boundary width is not a key: it follows scenario.kind.
Subcommand-specific run keys (eps_grid, x0_grid, T_grid, estimators, trials,
exit_probability, out) are optional here and checked by the
subcommands that need them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .grid import SpaceTimeGrid, WaveSpec
from .montecarlo import ESTIMATORS
from .optimize import SCENARIO_KINDS, RareEventSpec

__all__ = ["ConfigError", "RunSettings", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunSettings:
    seed: int
    K: int | None = None
    eps: float | None = None
    eps_grid: tuple[float, ...] | None = None
    x0_grid: tuple[float, ...] | None = None
    T_grid: tuple[float, ...] | None = None
    trials: int | None = None
    estimators: tuple[str, ...] | None = None
    exit_probability: float | None = None
    out: str | None = None


@dataclass(frozen=True)
class RunConfig:
    grid: SpaceTimeGrid
    wave: WaveSpec
    noise_kind: str
    sigma: float | None
    l_c: float | None
    scenario: RareEventSpec
    run: RunSettings
    raw: dict = field(repr=False)


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ConfigError(f"missing section: {name}")
    sec = doc[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name} must be an object")
    return sec


def _check_keys(sec: dict, name: str, allowed: set[str]) -> None:
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"unknown key: {name}.{key}")


def _finite(v, name: str, key: str) -> float:
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name}.{key} must be finite")
    return float(v)


def _number(sec: dict, name: str, key: str, required: bool = True):
    if key not in sec:
        if required:
            raise ConfigError(f"missing field: {name}.{key}")
        return None
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"type mismatch: {name}.{key} must be a number")
    return _finite(v, name, key)


def _integer(sec: dict, name: str, key: str, required: bool = True):
    if key not in sec:
        if required:
            raise ConfigError(f"missing field: {name}.{key}")
        return None
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"type mismatch: {name}.{key} must be an integer")
    return int(v)


def _number_list(sec: dict, name: str, key: str):
    if key not in sec:
        return None
    v = sec[key]
    if not isinstance(v, list) or not v or \
            any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"type mismatch: {name}.{key} must be a nonempty number list")
    return tuple(_finite(x, name, key) for x in v)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(doc, "config", {"grid", "wave", "noise", "scenario", "run"})

    g = _section(doc, "grid")
    _check_keys(g, "grid", {"L", "R", "dx", "T", "dt"})
    L = _number(g, "grid", "L")
    R = _number(g, "grid", "R")
    dx = _number(g, "grid", "dx")
    T = _number(g, "grid", "T")
    dt = _number(g, "grid", "dt")
    try:
        grid = SpaceTimeGrid.from_spacing(L, R, dx, T, dt)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    w = _section(doc, "wave")
    _check_keys(w, "wave", {"u_minus", "u_plus", "D", "gamma_frame"})
    try:
        wave = WaveSpec(u_minus=_number(w, "wave", "u_minus"),
                        u_plus=_number(w, "wave", "u_plus"),
                        D=_number(w, "wave", "D"),
                        gamma=_number(w, "wave", "gamma_frame"))
    except ValueError as err:
        raise ConfigError(f"wave: {err}") from err

    n = _section(doc, "noise")
    _check_keys(n, "noise", {"kind", "sigma", "l_c"})
    kind = n.get("kind")
    if kind not in ("identity", "exponential"):
        raise ConfigError(f"noise.kind must be identity or exponential, got {kind!r}")
    sigma = l_c = None
    if kind == "exponential":
        sigma = _number(n, "noise", "sigma")
        l_c = _number(n, "noise", "l_c")
        if sigma <= 0:
            raise ConfigError("noise.sigma must be positive")
        if l_c <= 0:
            raise ConfigError("noise.l_c must be positive")
    elif "sigma" in n or "l_c" in n:
        raise ConfigError("noise.sigma/l_c only apply to the exponential kind")

    s = _section(doc, "scenario")
    _check_keys(s, "scenario", {"kind", "x0", "delta", "target_wave"})
    skind = s.get("kind")
    if skind not in SCENARIO_KINDS:
        raise ConfigError(f"scenario.kind must be one of {SCENARIO_KINDS}, got {skind!r}")
    delta = _number(s, "scenario", "delta", required=False)
    delta = 0.0 if delta is None else delta
    if delta < 0:
        raise ConfigError("scenario.delta must be nonnegative")
    target_wave = None
    if skind == "displacement":
        x0 = _number(s, "scenario", "x0")
        if "target_wave" in s:
            raise ConfigError("scenario.target_wave does not apply to displacement")
    else:
        x0 = 0.0
        tw = s.get("target_wave")
        if not isinstance(tw, dict):
            raise ConfigError(f"missing field: scenario.target_wave (needed for {skind})")
        _check_keys(tw, "scenario.target_wave", {"u_minus", "u_plus"})
        try:
            target_wave = WaveSpec(
                u_minus=_number(tw, "scenario.target_wave", "u_minus"),
                u_plus=_number(tw, "scenario.target_wave", "u_plus"),
                D=wave.D, gamma=wave.gamma)
        except ValueError as err:
            raise ConfigError(f"scenario.target_wave: {err}") from err
    try:
        scen = RareEventSpec(kind=skind, wave=wave, x0=x0, delta=delta,
                             target_wave=target_wave)
    except ValueError as err:
        raise ConfigError(f"scenario: {err}") from err

    r = _section(doc, "run")
    _check_keys(r, "run", {"seed", "K", "eps", "eps_grid", "x0_grid", "T_grid",
                           "trials", "estimators", "exit_probability", "out"})
    seed = _integer(r, "run", "seed")
    if seed < 0:
        raise ConfigError("run.seed must be nonnegative")
    K = _integer(r, "run", "K", required=False)
    if K is not None and K < 1:
        raise ConfigError("run.K must be at least 1")
    eps = _number(r, "run", "eps", required=False)
    if eps is not None and eps < 0:
        raise ConfigError("run.eps must be nonnegative")
    eps_grid = _number_list(r, "run", "eps_grid")
    if eps_grid is not None and any(e < 0 for e in eps_grid):
        raise ConfigError("run.eps_grid entries must be nonnegative")
    trials = _integer(r, "run", "trials", required=False)
    if trials is not None and trials < 1:
        raise ConfigError("run.trials must be at least 1")
    exit_p = _number(r, "run", "exit_probability", required=False)
    if exit_p is not None and not 0 < exit_p < 1:
        raise ConfigError("run.exit_probability must be inside (0, 1)")
    out = r.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("type mismatch: run.out must be a string")
    estimators = None
    if "estimators" in r:
        est = r["estimators"]
        if not isinstance(est, list) or not est or \
                any(not isinstance(x, str) for x in est):
            raise ConfigError("type mismatch: run.estimators must be a list of names")
        for i, x in enumerate(est):
            if x not in ESTIMATORS:
                raise ConfigError(f"unknown estimator in run.estimators: {x!r}")
            if x in est[:i]:
                raise ConfigError(f"repeated estimator in run.estimators: {x!r}")
        estimators = tuple(est)

    run = RunSettings(seed=seed, K=K, eps=eps,
                      eps_grid=eps_grid,
                      x0_grid=_number_list(r, "run", "x0_grid"),
                      T_grid=_number_list(r, "run", "T_grid"),
                      trials=trials, estimators=estimators,
                      exit_probability=exit_p, out=out)
    return RunConfig(grid=grid, wave=wave, noise_kind=kind, sigma=sigma,
                     l_c=l_c, scenario=scen, run=run, raw=doc)
