"""Most-probable transition paths by rate-function minimization.

Two problem classes are solved over the free path entries (interior cells of
time slices 1..N-1, plus the interior terminal slice when a tolerance ball is
allowed):

* pinned terminal profile -> unconstrained limited-memory BFGS (two-loop
  recursion over the last 20 curvature pairs), strong Wolfe line search
  with c1 = 1e-4, c2 = 0.9, unit initial step;
* terminal profile within a weighted L2 ball of radius delta -> the same
  engine, with the free terminal cells held on the sphere if the ball binds.

boundary_edges writes the scenario's pinned outer-cell values once, as one
table per run that the path scaffold, the ball's feasibility check and
fluxes.euler_step all read; euler_step is the one step of both the noiseless
trajectory here and the Monte Carlo kernel.

Every solve starts L-BFGS from the same initial inverse Hessian h0, taken
from the action with the drift cut to its diffusion term,
r^n ~ (Q^{n+1} - (I + dt D Lap) Q^n) / dt (Nocedal & Wright, Numerical
Optimization, 2006, sec. 7.2; E, Ren & Vanden-Eijnden, CPAM 57, 2004).  In
the sine basis of the free columns, with C^{-1} replaced by its diagonal in
that basis, its Hessian splits into one tridiagonal system in time per mode;
h0 is exact for identity noise with width-1 boundaries.
With the scalar initial matrix s'y / y'y it replaced, exponential noise made
the solve ill-conditioned through C^{-1}, and the iteration count grew five-
to sixfold with each halving of dx.  h0 is the engine's one initial matrix;
every solve stops at ||grad||_inf <= GTOL_REL max(1, I), and a non-descent
direction or a failed line search restarts it from h0, once per iteration.

Also provides the two analytic test paths used for upper bounds (linearly
shifted profile, linear interpolation of the endpoint profiles) and a
midpoint-convexity spot check around a given path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .fluxes import euler_step, pin_edges
from .grid import SpaceTimeGrid, WaveSpec, profile, sample_profile
from .noise import NoiseModel, whiten
from .rate import PathMatrix, forcing_from_path, rate, rate_and_gradient

__all__ = [
    "RareEventSpec",
    "OptimalPath",
    "initial_values",
    "target_values",
    "boundary_edges",
    "linear_shift_path",
    "linear_interpolation_path",
    "project_onto_pinning",
    "minimize_pinned",
    "minimize_ball",
    "midpoint_convexity_test",
    "minimize_smooth",
]

SCENARIO_KINDS = ("displacement", "speed_change", "weak_to_strong", "strong_to_weak")

# stopping rule shared by every path solve: ||grad||_inf <= GTOL_REL max(1, I)
GTOL_REL = 1e-6
MAX_ITER = 5000
_MEMORY = 20  # curvature pairs kept by the two-loop recursion
# strong Wolfe: sufficient decrease, curvature, first trial, step limits
_C1, _C2, _ALPHA0, _MAX_EXPAND, _MAX_ZOOM = 1e-4, 0.9, 1.0, 20, 40


@dataclass(frozen=True)
class RareEventSpec:
    """Transition scenario: which terminal profile, how sharply it is pinned.

    kind "displacement" targets the initial profile shifted by x0 and pins
    its outer cells to the far-field states; the other kinds target the
    profile of `target_wave` and pin two cells per side to values
    interpolated in time (boundary_edges).
    delta = 0 means the terminal slice is pinned exactly; delta > 0 allows a
    weighted L2 ball of that radius.
    """

    kind: str
    wave: WaveSpec
    x0: float = 0.0
    delta: float = 0.0
    target_wave: WaveSpec | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: {self.kind!r}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, "
                             f"got {self.delta}")
        if self.kind != "displacement" and self.target_wave is None:
            raise ValueError(f"scenario {self.kind!r} needs a target_wave")

    @property
    def boundary_width(self) -> int:
        """Cells pinned per side: 1 for displacement, 2 for the other kinds."""
        return 1 if self.kind == "displacement" else 2


def initial_values(scen: RareEventSpec, grid: SpaceTimeGrid) -> np.ndarray:
    return sample_profile(scen.wave, grid, 0.0)


def target_values(scen: RareEventSpec, grid: SpaceTimeGrid) -> np.ndarray:
    if scen.kind == "displacement":
        return sample_profile(scen.wave, grid, scen.x0)
    return sample_profile(scen.target_wave, grid, 0.0)


def boundary_edges(scen: RareEventSpec, grid: SpaceTimeGrid) -> np.ndarray:
    """Pinned values of the outer cells at every time level, (N+1, 2w).

    Row n holds the w = scen.boundary_width left cells of level n, then its
    w right cells.  displacement pins cells 1 and M to the far-field states
    u_minus and u_plus; the other kinds pin (1 - n/N) q^0 + (n/N) q^N on
    those cells.  The Euler step from level n writes row n+1 (pin_edges);
    level 0 is the initial profile as given.
    """
    if scen.kind == "displacement":
        return np.tile([scen.wave.u_minus, scen.wave.u_plus], (grid.N + 1, 1))
    w = scen.boundary_width
    ends = np.r_[:w, grid.M - w:grid.M]
    s = (np.arange(grid.N + 1) / grid.N)[:, None]
    return ((1.0 - s) * initial_values(scen, grid)[ends]
            + s * target_values(scen, grid)[ends])


def _free_block(scen: RareEventSpec, grid: SpaceTimeGrid,
                free_terminal: bool) -> tuple[slice, slice]:
    """Row and column slices of the free entries, a rectangle of the path.

    Rows 1..N-1, or 1..N with a free terminal; the boundary-pinned columns
    removed.  Its row-major order is the order of the optimizer's variables.
    """
    w = scen.boundary_width
    return (slice(1, grid.N + 1 if free_terminal else grid.N),
            slice(w, grid.M - w))


def _scaffold(scen: RareEventSpec, grid: SpaceTimeGrid,
              free_terminal: bool) -> np.ndarray:
    """Path template with every pinned entry filled in."""
    q = np.zeros((grid.N + 1, grid.M))
    q[0] = initial_values(scen, grid)
    q[grid.N] = target_values(scen, grid)
    rows = _free_block(scen, grid, free_terminal)[0]
    pin_edges(q[rows], boundary_edges(scen, grid)[rows])
    return q


def linear_shift_path(scen: RareEventSpec, grid: SpaceTimeGrid) -> PathMatrix:
    """Test path v: slice n samples the profile shifted by (n/N) x0."""
    if scen.kind != "displacement":
        raise ValueError("linear_shift_path is defined for displacement scenarios")
    shifts = np.arange(grid.N + 1) / grid.N * scen.x0
    q = profile(scen.wave, grid.centers() - shifts[:, None])
    return PathMatrix(q, grid, scen.wave)


def linear_interpolation_path(scen: RareEventSpec, grid: SpaceTimeGrid) -> PathMatrix:
    """Test path w: slice n is the convex combination with weight n/N."""
    q0 = initial_values(scen, grid)
    qN = target_values(scen, grid)
    s = (np.arange(grid.N + 1) / grid.N)[:, None]
    return PathMatrix((1.0 - s) * q0 + s * qN, grid, scen.wave)


def project_onto_pinning(scen: RareEventSpec, grid: SpaceTimeGrid,
                         source: PathMatrix) -> PathMatrix:
    """Replace every entry of `source` that the pinned-terminal problem
    fixes by the scenario scaffold.

    The result lies in the pinned optimizer's feasible set, so its rate is a
    valid upper bound for the pinned optimum; free entries are copied
    unchanged.
    """
    q = _scaffold(scen, grid, False)
    free = _free_block(scen, grid, False)
    q[free] = source.q[free]
    return PathMatrix(q, grid, source.wave)


# ---------------------------------------------------------------------------
# quasi-Newton engine

@dataclass
class MinimizeResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    iterations: int
    evaluations: int
    converged: bool
    message: str


def _strong_wolfe(evaluate, f0, d0):
    """Strong Wolfe line search (bracket + zoom).

    evaluate(alpha) -> (f, g, slope) along the search ray, with f finite.
    Returns (alpha, f, g) at an accepted step, or None on failure.
    """

    def zoom(lo, f_lo, g_lo, d_lo, hi, f_hi):
        for _ in range(_MAX_ZOOM):
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
            if f > f0 + _C1 * a * d0 or f >= f_lo:
                hi, f_hi = a, f
            else:
                if abs(d) <= -_C2 * d0:
                    return a, f, g
                if d * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, g_lo, d_lo = a, f, g, d
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                break
        if lo > 0 and f_lo <= f0 + _C1 * lo * d0:
            return lo, f_lo, g_lo  # sufficient decrease only
        return None

    alpha_prev, f_prev, g_prev, d_prev = 0.0, f0, None, d0
    alpha = _ALPHA0
    for i in range(_MAX_EXPAND):
        f, g, d = evaluate(alpha)
        if f > f0 + _C1 * alpha * d0 or (i > 0 and f >= f_prev):
            return zoom(alpha_prev, f_prev, g_prev, d_prev, alpha, f)
        if abs(d) <= -_C2 * d0:
            return alpha, f, g
        if d >= 0:
            return zoom(alpha, f, g, d, alpha_prev, f_prev)
        alpha_prev, f_prev, g_prev, d_prev = alpha, f, g, d
        alpha = min(2.0 * alpha, 1e6)
    return None


def minimize_smooth(fun_grad, x0: np.ndarray, h0) -> MinimizeResult:
    """Limited-memory BFGS with a strong Wolfe line search.

    fun_grad(x) -> (f, g).  Stops when ||g||_inf <= GTOL_REL max(1, f),
    relative to f once f exceeds 1, or after MAX_ITER iterations.  The search
    direction comes from the two-loop recursion over the last _MEMORY
    curvature pairs on the fixed symmetric positive definite initial inverse
    Hessian h0(v), used unscaled (Nocedal & Wright, Numerical Optimization,
    2006, ch. 7).  A direction that is not a descent direction, or whose line
    search fails, drops the pairs once per iteration and the iteration
    retries along -h0(g); a failed retry ends the solve.  Raises ValueError
    as soon as fun_grad returns a non-finite f, at x0 or during a line
    search.  Every accepted step satisfies sufficient decrease along a
    descent direction, so f never increases and the last iterate is the best
    one.  The result counts every call of fun_grad in `evaluations`.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    evaluations = 1
    f, g = fun_grad(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")

    def evaluate(alpha):  # f, g and slope at x + alpha p
        nonlocal evaluations
        evaluations += 1
        fa, ga = fun_grad(x + alpha * p)
        if not np.isfinite(fa):
            raise ValueError("objective is not finite during the line search")
        return fa, ga, float(ga @ p)

    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)

    message = "converged"
    converged = True
    k = 0
    while k < MAX_ITER:
        gnorm = float(np.max(np.abs(g))) if n else 0.0
        if gnorm <= GTOL_REL * max(1.0, f):
            break
        for restart in (False, True):
            if restart:  # stale curvature (flux kinks): restart from h0
                pairs.clear()
            p = _two_loop_direction(g, pairs, h0)
            d0 = float(p @ g)
            ls = _strong_wolfe(evaluate, f, d0) if restart or d0 < 0 else None
            if ls is not None:
                break
        else:
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
                          evaluations=evaluations, converged=converged,
                          message=message)


def _two_loop_direction(g: np.ndarray, pairs, h0) -> np.ndarray:
    """-H g for the L-BFGS matrix H built on h0 from the stored pairs.

    With no pairs this is -h0(g).
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q = h0(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


# ---------------------------------------------------------------------------
# pinned and ball-constrained path optimization

@dataclass
class OptimalPath:
    """Result of a path optimization.

    iterations and evaluations (calls of the objective) are summed over the
    L-BFGS solves: one for a pinned path, one or two for a ball.  multiplier
    and terminal_distance_sq are None for a pinned path.
    """

    path: PathMatrix
    rate_value: float
    gradient_norm: float
    iterations: int
    evaluations: int
    forcing: np.ndarray
    converged: bool
    message: str
    multiplier: float | None = None
    terminal_distance_sq: float | None = None


def _diffusion_preconditioner(scen: RareEventSpec, model: NoiseModel,
                              free_terminal: bool):
    """Initial inverse Hessian for the free entries of a path solve.

    The action with the drift cut to its diffusion term has residuals
    r^n = (Q^{n+1} - A Q^n) / dt with A = I + dt D Lap.  On the nf = M - 2w
    free columns the orthonormal sine matrix S (symmetric, S S = I)
    diagonalizes the Dirichlet Laplacian, so A has eigenvalues
    a_k = 1 - 4 (dt D / dx^2) sin^2(pi k / (2 (nf + 1))); C^{-1} restricted
    to the free columns is replaced by its diagonal c_k in that basis (exact
    for identity noise).  Mode k then has the Hessian
    (dx / dt) c_k tridiag(-a_k, 1 + a_k^2, -a_k) over the free time levels,
    with diagonal (dx / dt) c_k on a free terminal row.  It equals E'E for a
    bidiagonal E with unit diagonal, so it is positive definite.  With
    width-2 boundaries the diffusion of the free cells into the pinned
    interior cells next to them is left out.  Built in O(M^3 + N M); each
    application costs two dense products with S and two Thomas sweeps over
    time, one vector update of length nf per time level, run on a list of
    row views with per-row coefficients split at build time.  Returns h0(v)
    for flat v in the row-major order of the free block.
    """
    grid = model.grid
    dt, dx = grid.dt, grid.dx
    w = scen.boundary_width
    nf = grid.M - 2 * w
    rows = grid.N if free_terminal else grid.N - 1
    k = np.arange(1, nf + 1)
    S = np.sqrt(2.0 / (nf + 1)) * np.sin(np.pi * np.outer(k, k) / (nf + 1))
    a = 1.0 - 4.0 * dt * scen.wave.D / (dx * dx) \
        * np.sin(0.5 * np.pi * k / (nf + 1)) ** 2
    # c_k = |Phi^{-1} P s_k|^2, where P places free column j on interior
    # cell j - 1 of the noise model
    modes = np.zeros((nf, model.size))
    modes[:, w - 1:w - 1 + nf] = S
    c = np.sum(whiten(model, modes) ** 2, axis=1)
    scale = dt / (dx * c)

    # Thomas pivots of tridiag(-a, d, -a), one column per mode
    piv = np.empty((rows, nf))
    piv[:] = 1.0 + a * a
    if free_terminal:
        piv[-1] = 1.0
    for n in range(1, rows):
        piv[n] -= a * a / piv[n - 1]
    inv_piv = list(1.0 / piv)
    lower = [a * p for p in inv_piv]

    def h0(v: np.ndarray) -> np.ndarray:
        y = v.reshape(rows, nf) @ S
        y *= scale
        ys = list(y)  # row views of y: list indexing makes no new view
        for n in range(1, rows):
            ys[n] += lower[n - 1] * ys[n - 1]
        ys[-1] *= inv_piv[-1]
        for n in range(rows - 2, -1, -1):
            ys[n] *= inv_piv[n]
            ys[n] += lower[n] * ys[n + 1]
        return (y @ S).ravel()

    return h0


def _path_solve(scen: RareEventSpec, model: NoiseModel, free_terminal: bool,
                x0: np.ndarray, h0, sphere=None):
    """One L-BFGS solve of the rate over the free entries, preconditioned by h0.

    sphere = (centre, r) turns the last centre.size variables into v, which
    places the free interior terminal cells at centre + r v / |v|.  Returns
    the MinimizeResult and the final path.
    """
    grid = model.grid
    free = _free_block(scen, grid, free_terminal)
    work = _scaffold(scen, grid, free_terminal)
    block = work[free]
    path = PathMatrix(work, grid, scen.wave)

    def place(x):
        block[...] = x.reshape(block.shape)
        if sphere is None:
            return None
        centre, r = sphere
        norm = float(np.linalg.norm(x[-centre.size:]))
        u = x[-centre.size:] / norm
        block[-1] = centre + r * u
        return u, r / norm

    def fun_grad(x):
        chart = place(x)
        value, grad = rate_and_gradient(path, model)
        g = grad[free].ravel()
        if chart is not None:  # d/dv of centre + r v/|v| is (r/|v|)(I - u u')
            u, scale = chart
            g_term = g[-u.size:]
            g[-u.size:] = scale * (g_term - float(u @ g_term) * u)
        return value, g

    res = minimize_smooth(fun_grad, x0, h0)
    place(res.x)
    return res, PathMatrix(work.copy(), grid, scen.wave)


def minimize_pinned(scen: RareEventSpec, model: NoiseModel) -> OptimalPath:
    """Minimize the rate with the terminal slice pinned to the target.

    Stops when ||grad||_inf <= GTOL_REL * max(1, I) or after MAX_ITER
    iterations; the best iterate is returned either way.  The search starts
    from the free entries of the linear interpolation path.
    """
    if scen.delta != 0:
        raise ValueError("minimize_pinned requires delta = 0 on the scenario")
    grid = model.grid
    free = _free_block(scen, grid, False)
    init = linear_interpolation_path(scen, grid).q[free].ravel()
    res, final = _path_solve(scen, model, False, init,
                             _diffusion_preconditioner(scen, model, False))
    return OptimalPath(path=final, rate_value=res.f,
                       gradient_norm=float(np.max(np.abs(res.grad))) if res.grad.size else 0.0,
                       iterations=res.iterations, evaluations=res.evaluations,
                       forcing=forcing_from_path(final, model),
                       converged=res.converged, message=res.message)


def terminal_distance_sq(q_terminal: np.ndarray, target: np.ndarray,
                         dx: float) -> float:
    """Weighted squared distance dx sum_m (q_m - target_m)^2 over all cells."""
    d = q_terminal - target
    return dx * float(d @ d)


def minimize_ball(scen: RareEventSpec, model: NoiseModel) -> OptimalPath:
    """Minimize the rate subject to dx sum_m (q^N_m - target_m)^2 <= delta^2.

    One solve with the terminal slice free starts from the noiseless Euler
    trajectory, which costs nothing and is kept at iteration 0 for width-1
    boundaries.  If its result ends outside the ball, one more solve holds
    the free interior terminal cells on the sphere target + r v / |v|,
    started from the linear interpolation between q^0 and the sphere point
    nearest that result's terminal slice.  The multiplier solves
    stationarity on the terminal slice; a negative one is reported as not
    converged, and gradient_norm is the KKT stationarity.  Raises ValueError
    when the pinned terminal cells alone lie at distance delta or more.
    """
    if not scen.delta > 0:
        raise ValueError("minimize_ball requires delta > 0 on the scenario")
    grid = model.grid
    dx, N = grid.dx, grid.N
    target = target_values(scen, grid)
    delta_sq = scen.delta ** 2
    free = _free_block(scen, grid, True)
    cols = free[1]
    edges = boundary_edges(scen, grid)
    pinned_sq = terminal_distance_sq(edges[N], np.delete(target, cols), dx)
    r_sq = (delta_sq - pinned_sq) / dx
    if r_sq <= 0:
        raise ValueError(
            f"terminal ball of radius {scen.delta:g} is infeasible: the pinned "
            f"terminal cells alone lie at squared distance {pinned_sq:.6g}")

    q = np.tile(initial_values(scen, grid), (N + 1, 1))  # noiseless path
    for n in range(N):
        q[n + 1] = q[n]
        euler_step(q[n + 1], grid, scen.wave, edges[n + 1])
    h0 = _diffusion_preconditioner(scen, model, True)
    res, path = _path_solve(scen, model, True, q[free].ravel(), h0)
    iterations, evaluations = res.iterations, res.evaluations
    active = terminal_distance_sq(path.q[N], target, dx) > delta_sq
    if active:
        # |v0| = r, so the sphere map starts as a projection and h0 keeps
        # its scale
        r = float(np.sqrt(r_sq))
        v0 = path.q[N, cols] - target[cols]
        v0 *= r / np.linalg.norm(v0)
        end = path.q[N].copy()
        end[cols] = target[cols] + v0
        s = (np.arange(N + 1) / N)[:, None]
        x0 = ((1.0 - s) * path.q[0] + s * end)[free].ravel()
        x0[-v0.size:] = v0
        res, path = _path_solve(scen, model, True, x0, h0,
                                sphere=(target[cols], r))
        iterations += res.iterations
        evaluations += res.evaluations

    value, grad = rate_and_gradient(path, model)
    lam = 0.0
    if active:  # lam = -<grad_N I, grad_N c> / |grad_N c|^2
        grad_c = 2.0 * dx * (path.q[N, cols] - target[cols])
        lam = -float(grad[N, cols] @ grad_c) / float(grad_c @ grad_c)
        grad[N, cols] += lam * grad_c
    converged, message = res.converged and lam >= 0, res.message
    if lam < 0:
        message = "negative multiplier: not a KKT point of the ball problem"
    return OptimalPath(path=path, rate_value=value,
                       gradient_norm=float(np.max(np.abs(grad[free]))),
                       iterations=iterations, evaluations=evaluations,
                       forcing=forcing_from_path(path, model),
                       converged=converged, message=message, multiplier=lam,
                       terminal_distance_sq=terminal_distance_sq(
                           path.q[N], target, dx))


def midpoint_convexity_test(center: PathMatrix, model: NoiseModel,
                            trials: int, rng: np.random.Generator) -> float:
    """Fraction of random nearby path pairs satisfying midpoint convexity.

    Pairs are Gaussian perturbations of the interior cells of time levels
    1..N-1 with standard deviation 1e-2 times the RMS of the center's values
    there; the test is I((p+q)/2) <= (I(p) + I(q))/2 + 1e-12.  trials must
    be at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    grid = center.grid
    work = center.q.copy()
    block = work[1:grid.N, 1:-1]
    base = block.copy()
    scale = 1e-2 * float(np.sqrt(np.mean(base * base)))
    probe = PathMatrix(work, grid, center.wave)
    passed = 0
    for _ in range(trials):
        e1 = rng.normal(0.0, scale, size=base.shape)
        e2 = rng.normal(0.0, scale, size=base.shape)
        block[...] = base + e1
        f1 = rate(probe, model)
        block[...] = base + e2
        f2 = rate(probe, model)
        block[...] = base + 0.5 * (e1 + e2)
        fm = rate(probe, model)
        if fm <= 0.5 * (f1 + f2) + 1e-12:
            passed += 1
    return passed / trials
