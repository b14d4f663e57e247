"""Spans around shockld's public functions, recorded from outside the package.

The modules import each other by name (``from .fluxes import drift``), so a
function is patched where its caller looks it up: ``shockld.montecarlo.drift``
rather than ``shockld.fluxes.drift``.  Spans (name, start, end, parent, note)
are kept in memory and reduced to per-layer metrics after the traced pass.

Not visible from here, because they are inline code rather than calls: the
Cholesky coloring ``z @ Phi.T`` and the likelihood weights inside
``montecarlo._simulate``, and the triangular solves of ``rate._whitened_pair``.
Their time lands in the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter


def _iterations(args, kwargs, out):
    return {"iterations": out.iterations}


def _reports(args, kwargs, out):
    return {"K": out.K, "hits": out.hits}


def _terminals(args, kwargs, out):
    return {"K": int(out.shape[0])}


def _sweep(args, kwargs, out):
    hits, K = Counter(), Counter()
    for _, name, rep in out:
        hits[name] += rep.hits
        K[name] += rep.K
    return {"hits": hits, "K": K}


# (module where the caller looks the name up, attribute, span name, note)
TARGETS = [
    ("shockld.cli", "main", "cli.main", None),
    ("shockld.cli", "parse_config", "config.parse_config", None),
    ("shockld.cli", "build_noise_model", "noise.build_noise_model", None),
    ("shockld.noise", "build_noise_model", "noise.build_noise_model", None),
    ("shockld.cli", "check_cfl", "fluxes.check_cfl", None),
    ("shockld.cli", "minimize_pinned", "optimize.minimize_pinned", _iterations),
    ("shockld.cli", "minimize_ball", "optimize.minimize_ball", _iterations),
    ("shockld.optimize", "minimize_smooth", "optimize.minimize_smooth",
     _iterations),
    ("shockld.optimize", "rate_and_gradient", "rate.rate_and_gradient", None),
    ("shockld.optimize", "forcing_from_path", "rate.forcing_from_path", None),
    ("shockld.cli", "rate", "rate.rate", None),
    ("shockld.cli", "discrete_lower_bound", "rate.discrete_lower_bound", None),
    ("shockld.cli", "sample_terminal_states", "montecarlo.sample_terminal_states",
     _terminals),
    ("shockld.montecarlo", "epsilon_sweep", "montecarlo.epsilon_sweep", _sweep),
    ("shockld.montecarlo", "run_basic_mc", "montecarlo.run_basic_mc", _reports),
    ("shockld.montecarlo", "run_importance_sampling",
     "montecarlo.run_importance_sampling", _reports),
    ("shockld.montecarlo", "sample_stream", "montecarlo.sample_stream", None),
    ("shockld.montecarlo", "drift", "fluxes.drift", None),
    ("shockld.cli", "wave_centers", "diagnostics.wave_centers", None),
    ("shockld.cli", "analytic_center_law", "diagnostics.analytic_center_law",
     None),
    ("shockld.cli", "analytic_exit_probability",
     "diagnostics.analytic_exit_probability", None),
    ("shockld.cli", "transition_margin_ok", "diagnostics.transition_margin_ok",
     None),
]

ESTIMATORS = ("montecarlo.run_basic_mc", "montecarlo.run_importance_sampling",
              "montecarlo.sample_terminal_states")
SOLVES = ("optimize.minimize_pinned", "optimize.minimize_ball")


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.note = parent, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; parent is the index of the enclosing span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if note is not None:
                span.note = note(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every name in TARGETS through a span while active."""
        saved = []
        try:
            for module, attr, name, note in TARGETS:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, note))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _ancestor(spans, span, names):
    """The nearest enclosing span whose name is in names, or None."""
    i = span.parent
    while i >= 0:
        if spans[i].name in names:
            return spans[i]
        i = spans[i].parent
    return None


def layer_metrics(spans: list[Span], n_steps: int) -> dict[str, tuple]:
    """Per-layer metrics {name: (value, unit)} from the spans of one pass.

    n_steps is the number of Euler steps per trajectory.  Metrics of a layer
    the workload does not use read 0.
    """
    total, calls = Counter(), Counter()
    child_time = [0.0] * len(spans)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def self_time(names):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans)
                   if s.name in names)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    # optimize: solves, their inner minimizations and rate evaluations
    solve = {name: [s for s in spans if s.name == name] for name in SOLVES}
    iters = {name: sum(s.note["iterations"] for s in solve[name])
             for name in SOLVES}
    evals, outer = Counter(), 0
    rate_in_solves = 0.0
    for s in spans:
        if s.name.startswith("rate.") or s.name == "optimize.minimize_smooth":
            owner = _ancestor(spans, s, SOLVES)
            if owner is None:
                continue
            if s.name == "rate.rate_and_gradient":
                evals[owner.name] += 1
            if s.name.startswith("rate."):
                rate_in_solves += s.duration
            elif owner.name == "optimize.minimize_ball":
                outer += 1
    solve_s = sum(total[n] for n in SOLVES)
    n_iter = sum(iters.values())
    n_eval = sum(evals.values())

    # montecarlo: trajectories and hits come from the estimators' results
    traj = sum(s.note["K"] for s in spans if s.name in ESTIMATORS)
    traj_steps = traj * n_steps
    hits, swept = Counter(), Counter()
    for s in spans:
        if s.name == "montecarlo.epsilon_sweep":
            hits.update(s.note["hits"])
            swept.update(s.note["K"])

    diag = [n for n in total if n.startswith("diagnostics.")]
    cli_children = sum(s.duration for s in spans
                       if s.parent >= 0 and spans[s.parent].name == "cli.main")
    m = {
        "optimize.minimize_pinned.s": (total["optimize.minimize_pinned"], "s"),
        "optimize.minimize_ball.s": (total["optimize.minimize_ball"], "s"),
        "optimize.self_s": (solve_s - rate_in_solves, "s"),
        "optimize.ms_per_iteration": (per(solve_s, n_iter, 1e3), "ms"),
        "optimize.iterations": (n_iter, "count"),
        "optimize.pinned.iterations": (iters["optimize.minimize_pinned"], "count"),
        "optimize.pinned.evaluations": (evals["optimize.minimize_pinned"], "count"),
        "optimize.ball.iterations": (iters["optimize.minimize_ball"], "count"),
        "optimize.ball.evaluations": (evals["optimize.minimize_ball"], "count"),
        "optimize.outer_steps": (outer, "count"),
        "optimize.s_per_outer_step": (per(total["optimize.minimize_ball"], outer), "s"),
        "optimize.evals_per_iteration": (per(n_eval, n_iter), "ratio"),
        "rate.rate_and_gradient.calls": (calls["rate.rate_and_gradient"], "count"),
        "rate.rate_and_gradient.s": (total["rate.rate_and_gradient"], "s"),
        "rate.rate_and_gradient.us_per_call": (
            per(total["rate.rate_and_gradient"], calls["rate.rate_and_gradient"],
                1e6), "us"),
        "rate.forcing_from_path.s": (total["rate.forcing_from_path"], "s"),
        "montecarlo.trajectories": (traj, "count"),
        "montecarlo.sample_stream.calls": (calls["montecarlo.sample_stream"], "count"),
        "montecarlo.sample_stream.s": (total["montecarlo.sample_stream"], "s"),
        "montecarlo.sample_stream.us_per_call": (
            per(total["montecarlo.sample_stream"],
                calls["montecarlo.sample_stream"], 1e6), "us"),
        "montecarlo.self_s": (self_time(ESTIMATORS), "s"),
        "montecarlo.us_per_traj_step": (
            per(sum(total[n] for n in ESTIMATORS), traj_steps, 1e6), "us"),
        "fluxes.drift.calls": (calls["fluxes.drift"], "count"),
        "fluxes.drift.s": (total["fluxes.drift"], "s"),
        "fluxes.drift.us_per_traj_step": (
            per(total["fluxes.drift"], traj_steps, 1e6), "us"),
        "noise.build_noise_model.s": (
            per(total["noise.build_noise_model"],
                calls["noise.build_noise_model"]), "s"),
        "diagnostics.s": (sum(total[n] for n in diag), "s"),
        "cli.self_s": (total["cli.main"] - cli_children, "s"),
        "config.parse_config.s": (total["config.parse_config"], "s"),
        "trace.spans": (len(spans), "count"),
    }
    for name in ("mc", "is0", "is-delta"):
        m[f"montecarlo.hit_fraction.{name}"] = (per(hits[name], swept[name]),
                                                "ratio")
    return m
