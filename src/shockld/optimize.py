"""Most-probable transition paths by rate-function minimization.

Two problem classes are solved over the free path entries (interior cells of
time slices 1..N-1, plus the interior terminal slice when a tolerance ball is
allowed):

* pinned terminal profile -> unconstrained limited-memory BFGS (two-loop
  recursion over the last 20 curvature pairs), strong Wolfe line search
  with c1 = 1e-4, c2 = 0.9, unit initial step;
* terminal profile within a weighted L2 ball of radius delta -> augmented
  Lagrangian around the same inner engine, driving the KKT residual down.

Also provides the two analytic test paths used for upper bounds (linearly
shifted profile, linear interpolation of the endpoint profiles) and a
midpoint-convexity spot check around a given path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .fluxes import FixedStates, TimeInterpolated
from .grid import SpaceTimeGrid, WaveSpec, sample_profile
from .noise import NoiseModel
from .rate import PathMatrix, forcing_from_path, rate, rate_and_gradient

__all__ = [
    "RareEventSpec",
    "OptimalPath",
    "initial_values",
    "target_values",
    "boundary_policy",
    "free_mask",
    "linear_shift_path",
    "linear_interpolation_path",
    "random_path",
    "project_onto_pinning",
    "minimize_pinned",
    "minimize_ball",
    "midpoint_convexity_test",
    "minimize_smooth",
]

SCENARIO_KINDS = ("displacement", "speed_change", "weak_to_strong", "strong_to_weak")


@dataclass(frozen=True)
class RareEventSpec:
    """Transition scenario: which terminal profile, how sharply it is pinned.

    kind "displacement" targets the initial profile shifted by x0 and uses
    fixed-state boundaries; the other kinds target the profile of
    `target_wave` and use time-interpolated boundaries (default width 2).
    delta = 0 means the terminal slice is pinned exactly; delta > 0 allows a
    weighted L2 ball of that radius.
    """

    kind: str
    wave: WaveSpec
    x0: float = 0.0
    delta: float = 0.0
    target_wave: WaveSpec | None = None
    boundary_width: int = 0  # 0 -> scenario default

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: {self.kind!r}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.kind != "displacement" and self.target_wave is None:
            raise ValueError(f"scenario {self.kind!r} needs a target_wave")
        width = self.boundary_width
        if width == 0:
            width = 1 if self.kind == "displacement" else 2
            object.__setattr__(self, "boundary_width", width)
        if width not in (1, 2):
            raise ValueError(f"boundary width must be 1 or 2, got {width}")


def initial_values(scen: RareEventSpec, grid: SpaceTimeGrid) -> np.ndarray:
    return sample_profile(scen.wave, grid, 0.0)


def target_values(scen: RareEventSpec, grid: SpaceTimeGrid) -> np.ndarray:
    if scen.kind == "displacement":
        return sample_profile(scen.wave, grid, scen.x0)
    return sample_profile(scen.target_wave, grid, 0.0)


def boundary_policy(scen: RareEventSpec, grid: SpaceTimeGrid):
    if scen.kind == "displacement":
        return FixedStates(scen.wave.u_minus, scen.wave.u_plus)
    w = scen.boundary_width
    q0 = initial_values(scen, grid)
    qN = target_values(scen, grid)
    return TimeInterpolated(left0=q0[:w], leftN=qN[:w],
                            right0=q0[-w:], rightN=qN[-w:],
                            width=w, n_steps=grid.N)


def free_mask(scen: RareEventSpec, grid: SpaceTimeGrid,
              free_terminal: bool | None = None) -> np.ndarray:
    """Boolean (N+1, M) mask of optimization variables.

    Rows 1..N-1 with the boundary-pinned columns removed; row N is added when
    the scenario allows a terminal ball (delta > 0) unless overridden.
    """
    if free_terminal is None:
        free_terminal = scen.delta > 0
    w = scen.boundary_width
    mask = np.zeros((grid.N + 1, grid.M), dtype=bool)
    mask[1:grid.N, w:grid.M - w] = True
    if free_terminal:
        mask[grid.N, w:grid.M - w] = True
    return mask


def _scaffold(scen: RareEventSpec, grid: SpaceTimeGrid,
              free_terminal: bool) -> np.ndarray:
    """Path template with every pinned entry filled in."""
    q = np.zeros((grid.N + 1, grid.M))
    q[0] = initial_values(scen, grid)
    q[grid.N] = target_values(scen, grid)
    bc = boundary_policy(scen, grid)
    for n in range(1, grid.N):
        bc.apply(q[n], n)
    if free_terminal:
        bc.apply(q[grid.N], grid.N)
    return q


def linear_shift_path(scen: RareEventSpec, grid: SpaceTimeGrid) -> PathMatrix:
    """Test path v: slice n samples the profile shifted by (n/N) x0."""
    if scen.kind != "displacement":
        raise ValueError("linear_shift_path is defined for displacement scenarios")
    shifts = np.arange(grid.N + 1) / grid.N * scen.x0
    q = np.stack([sample_profile(scen.wave, grid, s) for s in shifts])
    return PathMatrix(q, grid, scen.wave)


def linear_interpolation_path(scen: RareEventSpec, grid: SpaceTimeGrid) -> PathMatrix:
    """Test path w: slice n is the convex combination with weight n/N."""
    q0 = initial_values(scen, grid)
    qN = target_values(scen, grid)
    s = (np.arange(grid.N + 1) / grid.N)[:, None]
    return PathMatrix((1.0 - s) * q0 + s * qN, grid, scen.wave)


def project_onto_pinning(scen: RareEventSpec, grid: SpaceTimeGrid,
                         source: PathMatrix,
                         free_terminal: bool | None = None) -> PathMatrix:
    """Replace every pinned entry of `source` by the scenario scaffold.

    The result lies in the optimizer's feasible set, so its rate is a valid
    upper bound for the pinned optimum; free entries are copied unchanged.
    """
    if free_terminal is None:
        free_terminal = scen.delta > 0
    q = _scaffold(scen, grid, free_terminal)
    mask = free_mask(scen, grid, free_terminal)
    q[mask] = source.q[mask]
    return PathMatrix(q, grid, source.wave)


def random_path(scen: RareEventSpec, grid: SpaceTimeGrid,
                rng: np.random.Generator) -> PathMatrix:
    """Random initial guess: free entries uniform over the state range."""
    lo = min(scen.wave.u_plus, target_values(scen, grid).min())
    hi = max(scen.wave.u_minus, target_values(scen, grid).max())
    pad = 0.5 * (hi - lo)
    q = _scaffold(scen, grid, free_terminal=scen.delta > 0)
    mask = free_mask(scen, grid)
    q[mask] = rng.uniform(lo - pad, hi + pad, size=int(mask.sum()))
    return PathMatrix(q, grid, scen.wave)


# ---------------------------------------------------------------------------
# quasi-Newton engine

@dataclass
class MinimizeResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    iterations: int
    converged: bool
    message: str


def _strong_wolfe(evaluate, f0, d0, c1=1e-4, c2=0.9, alpha0=1.0,
                  max_expand=20, max_zoom=40):
    """Strong Wolfe line search (bracket + zoom).

    evaluate(alpha) -> (f, g, slope) along the search ray, with f finite.
    Returns (alpha, f, g) at an accepted step, or None on failure.
    """

    def zoom(lo, f_lo, g_lo, d_lo, hi, f_hi):
        for _ in range(max_zoom):
            # quadratic model from the lo-side value/slope, guarded bisection
            denom = 2.0 * (f_hi - f_lo - d_lo * (hi - lo))
            if denom != 0 and np.isfinite(denom):
                a = lo - d_lo * (hi - lo) ** 2 / denom
            else:
                a = 0.5 * (lo + hi)
            span = abs(hi - lo)
            if not (min(lo, hi) + 0.1 * span <= a <= max(lo, hi) - 0.1 * span):
                a = 0.5 * (lo + hi)
            f, g, d = evaluate(a)
            if f > f0 + c1 * a * d0 or f >= f_lo:
                hi, f_hi = a, f
            else:
                if abs(d) <= -c2 * d0:
                    return a, f, g
                if d * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, g_lo, d_lo = a, f, g, d
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                break
        if lo > 0 and f_lo <= f0 + c1 * lo * d0:
            return lo, f_lo, g_lo  # sufficient decrease only
        return None

    alpha_prev, f_prev, g_prev, d_prev = 0.0, f0, None, d0
    alpha = alpha0
    for i in range(max_expand):
        f, g, d = evaluate(alpha)
        if f > f0 + c1 * alpha * d0 or (i > 0 and f >= f_prev):
            return zoom(alpha_prev, f_prev, g_prev, d_prev, alpha, f)
        if abs(d) <= -c2 * d0:
            return alpha, f, g
        if d >= 0:
            return zoom(alpha, f, g, d, alpha_prev, f_prev)
        alpha_prev, f_prev, g_prev, d_prev = alpha, f, g, d
        alpha = min(2.0 * alpha, 1e6)
    return None


def minimize_smooth(fun_grad, x0: np.ndarray, gtol, max_iter: int = 5000,
                    memory: int = 20) -> MinimizeResult:
    """Limited-memory BFGS with a strong Wolfe line search.

    fun_grad(x) -> (f, g).  gtol is a float or a callable f -> tolerance on
    the sup norm of the gradient.  The search direction comes from the
    two-loop recursion over the last `memory` curvature pairs (Nocedal &
    Wright, Numerical Optimization, 2006, ch. 7).  Raises ValueError as soon
    as fun_grad returns a non-finite f, at x0 or during a line search.
    Every accepted step satisfies sufficient decrease along a descent
    direction, so f never increases and the last iterate is the best one.
    """
    tol_of = gtol if callable(gtol) else (lambda f: gtol)
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f, g = fun_grad(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")

    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=memory)

    message = "converged"
    converged = True
    k = 0
    while k < max_iter:
        gnorm = float(np.max(np.abs(g))) if n else 0.0
        if gnorm <= tol_of(f):
            break
        p = _two_loop_direction(g, pairs)
        d0 = float(p @ g)
        steepest = d0 >= 0
        if steepest:  # stale curvature; restart from steepest descent
            p = -g
            d0 = float(p @ g)
            pairs.clear()

        def make_eval(x, p):
            def evaluate(alpha):
                fa, ga = fun_grad(x + alpha * p)
                if not np.isfinite(fa):
                    raise ValueError(
                        "objective is not finite during the line search")
                return fa, ga, float(ga @ p)
            return evaluate

        ls = _strong_wolfe(make_eval(x, p), f, d0)
        if ls is None and not steepest:
            # quasi-Newton direction stalled (flux kinks); retry restarted
            pairs.clear()
            p = -g
            d0 = float(p @ g)
            ls = _strong_wolfe(make_eval(x, p), f, d0)
        if ls is None:
            message = "line search failed; best iterate returned"
            converged = False
            break
        alpha, f_new, g_new = ls
        s = alpha * p
        y = g_new - g
        x = x + s
        f, g = f_new, g_new
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        k += 1
    else:
        message = "iteration limit reached"
        converged = False

    return MinimizeResult(x=x, f=f, grad=g, iterations=k,
                          converged=converged, message=message)


def _two_loop_direction(g: np.ndarray, pairs) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


# ---------------------------------------------------------------------------
# pinned and ball-constrained path optimization

@dataclass
class OptimalPath:
    """Result of a path optimization."""

    path: PathMatrix
    rate_value: float
    gradient_norm: float
    iterations: int
    forcing: np.ndarray
    converged: bool
    message: str
    multiplier: float | None = None
    terminal_distance_sq: float | None = None


def minimize_pinned(scen: RareEventSpec, model: NoiseModel,
                    init: PathMatrix | None = None,
                    gtol_rel: float = 1e-6, max_iter: int = 5000) -> OptimalPath:
    """Minimize the rate with the terminal slice pinned to the target.

    Stops when ||grad||_inf <= gtol_rel * max(1, I) or after max_iter
    iterations; the best iterate is returned either way.  Free entries of
    `init` (default: the linear interpolation path) seed the search; its
    pinned entries are replaced by the scenario scaffold.
    """
    if scen.delta != 0:
        raise ValueError("minimize_pinned requires delta = 0 on the scenario")
    grid = model.grid
    if init is None:
        init = linear_interpolation_path(scen, grid)
    mask = free_mask(scen, grid, free_terminal=False)
    work = _scaffold(scen, grid, free_terminal=False)
    path = PathMatrix(work, grid, scen.wave)

    def fun_grad(x):
        work[mask] = x
        value, grad = rate_and_gradient(path, model)
        return value, grad[mask]

    res = minimize_smooth(fun_grad, init.q[mask],
                          gtol=lambda f: gtol_rel * max(1.0, f),
                          max_iter=max_iter)
    work[mask] = res.x
    final = PathMatrix(work.copy(), grid, scen.wave)
    return OptimalPath(path=final, rate_value=res.f,
                       gradient_norm=float(np.max(np.abs(res.grad))) if res.grad.size else 0.0,
                       iterations=res.iterations,
                       forcing=forcing_from_path(final, model),
                       converged=res.converged, message=res.message)


def terminal_distance_sq(q_terminal: np.ndarray, target: np.ndarray,
                         dx: float) -> float:
    """Weighted squared distance dx sum_m (q_m - target_m)^2 over all cells."""
    d = q_terminal - target
    return dx * float(d @ d)


def minimize_ball(scen: RareEventSpec, model: NoiseModel,
                  init: PathMatrix | None = None,
                  kkt_tol: float = 1e-5, activity_tol: float = 1e-8,
                  max_outer: int = 40, max_iter: int = 5000) -> OptimalPath:
    """Minimize the rate subject to dx sum_m (q^N_m - target_m)^2 <= delta^2.

    Augmented Lagrangian over the pinned-style free variables plus the free
    interior terminal slice; the multiplier/penalty loop runs until the KKT
    residual (stationarity, feasibility, complementarity) is at most kkt_tol
    and any active constraint holds to activity_tol relative.
    """
    if not scen.delta > 0:
        raise ValueError("minimize_ball requires delta > 0 on the scenario")
    grid = model.grid
    dx = grid.dx
    if init is None:
        init = linear_interpolation_path(scen, grid)
    target = target_values(scen, grid)
    delta_sq = scen.delta ** 2
    mask = free_mask(scen, grid, free_terminal=True)
    work = _scaffold(scen, grid, free_terminal=True)
    path = PathMatrix(work, grid, scen.wave)
    term_row = grid.N

    lam = 0.0
    mu = 10.0
    x = init.q[mask].copy()
    inner_tol = 1e-2
    total_iters = 0
    message = "converged"
    converged = True
    c_prev = np.inf

    def constraint(x):
        work[mask] = x
        return terminal_distance_sq(work[term_row], target, dx) - delta_sq

    for outer in range(max_outer):
        def fun_grad(xv, lam=lam, mu=mu):
            work[mask] = xv
            value, grad = rate_and_gradient(path, model)
            c = terminal_distance_sq(work[term_row], target, dx) - delta_sq
            t = lam + mu * c
            if t > 0:
                value = value + 0.5 * (t * t - lam * lam) / mu
                gc = np.zeros_like(grad)
                gc[term_row] = 2.0 * dx * (work[term_row] - target)
                grad = grad + t * gc
            else:
                value = value - 0.5 * lam * lam / mu
            return value, grad[mask]

        res = minimize_smooth(
            fun_grad, x,
            gtol=lambda f: max(kkt_tol * 0.01, inner_tol) * max(1.0, abs(f)),
            max_iter=max_iter)
        x = res.x
        total_iters += res.iterations
        c = constraint(x)
        lam = max(0.0, lam + mu * c)

        # KKT residual at the current multiplier estimate
        work[mask] = x
        value, grad = rate_and_gradient(path, model)
        gc = np.zeros_like(grad)
        gc[term_row] = 2.0 * dx * (work[term_row] - target)
        stat = float(np.max(np.abs((grad + lam * gc)[mask])))
        feas = max(0.0, c)
        comp = abs(lam * c)
        active_ok = (lam == 0.0) or (abs(c) <= activity_tol * delta_sq)
        if stat <= kkt_tol * max(1.0, value) and feas <= kkt_tol and \
                comp <= kkt_tol * max(1.0, value) and active_ok and \
                inner_tol <= 20.0 * kkt_tol * 0.01:
            break
        inner_tol = max(inner_tol * 0.2, kkt_tol * 0.01)
        if lam > 0 and abs(c) > 0.25 * abs(c_prev):
            mu = min(mu * 10.0, 1e12)  # feasibility progress stalled
        c_prev = c
    else:
        message = "outer iteration limit reached"
        converged = False

    work[mask] = x
    final = PathMatrix(work.copy(), grid, scen.wave)
    value, grad = rate_and_gradient(final, model)
    gc = np.zeros_like(grad)
    gc[term_row] = 2.0 * dx * (final.q[term_row] - target)
    stat = float(np.max(np.abs((grad + lam * gc)[mask])))
    return OptimalPath(path=final, rate_value=value, gradient_norm=stat,
                       iterations=total_iters,
                       forcing=forcing_from_path(final, model),
                       converged=converged, message=message,
                       multiplier=lam,
                       terminal_distance_sq=terminal_distance_sq(
                           final.q[term_row], target, dx))


def midpoint_convexity_test(center: PathMatrix, model: NoiseModel,
                            trials: int, rng: np.random.Generator,
                            rel_scale: float = 1e-2,
                            mask: np.ndarray | None = None,
                            rate_fn=None) -> float:
    """Fraction of random nearby path pairs satisfying midpoint convexity.

    Pairs are Gaussian perturbations of the free entries with standard
    deviation rel_scale times the RMS of the center's free values; the test
    is I((p+q)/2) <= (I(p) + I(q))/2 + 1e-12.  trials = 0 returns 1.0.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0:
        return 1.0
    grid = center.grid
    if mask is None:
        mask = np.zeros((grid.N + 1, grid.M), dtype=bool)
        mask[1:grid.N, 1:-1] = True
    if rate_fn is None:
        rate_fn = lambda p: rate(p, model)
    base = center.q[mask]
    scale = rel_scale * float(np.sqrt(np.mean(base * base)))
    work = center.q.copy()
    probe = PathMatrix(work, grid, center.wave)
    passed = 0
    for _ in range(trials):
        e1 = rng.normal(0.0, scale, size=base.shape)
        e2 = rng.normal(0.0, scale, size=base.shape)
        work[mask] = base + e1
        f1 = rate_fn(probe)
        work[mask] = base + e2
        f2 = rate_fn(probe)
        work[mask] = base + 0.5 * (e1 + e2)
        fm = rate_fn(probe)
        if fm <= 0.5 * (f1 + f2) + 1e-12:
            passed += 1
    work[mask] = base
    return passed / trials
