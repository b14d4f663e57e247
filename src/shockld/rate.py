"""Discrete large-deviation rate function over solution paths.

A path is the full matrix Q = (Q^0, ..., Q^N) of time slices.  Its cost is

    I(Q) = (dt dx / 2) sum_n || Phi^{-1} r^n ||_2^2,
    r^n  = (Q^{n+1} - Q^n) / dt - b(Q^n)          (interior cells),

which is zero exactly on the noiseless trajectory.  Every function here
takes r from residuals(), whose b is fluxes.drift, the drift the Monte Carlo
kernel steps with.  The module provides I, its analytic gradient (chained
through the one-sided partials of the Godunov flux, with the left-state
choice at kinks and ties), the pre-whitened forcing h^n = dt Phi^{-1} r^n
that replays a path through the Euler scheme, and a Cauchy-Schwarz lower
bound on I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import drift, godunov_flux_derivs
from .grid import SpaceTimeGrid, WaveSpec
from .noise import NoiseModel, whiten

__all__ = [
    "PathMatrix",
    "residuals",
    "rate",
    "rate_and_gradient",
    "forcing_from_path",
    "discrete_lower_bound",
]


@dataclass
class PathMatrix:
    """Discrete solution path: q has shape (N+1, M), one row per time level."""

    q: np.ndarray
    grid: SpaceTimeGrid
    wave: WaveSpec

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        expected = (self.grid.N + 1, self.grid.M)
        if self.q.shape != expected:
            raise ValueError(f"path shape {self.q.shape} != {expected}")


def residuals(path: PathMatrix) -> np.ndarray:
    """All residuals r^n = (Q^{n+1} - Q^n)/dt - b(Q^n); shape (N, M-2)."""
    q = path.q
    dt = path.grid.dt
    b = drift(q[:-1], path.grid, path.wave)
    return (q[1:, 1:-1] - q[:-1, 1:-1]) / dt - b


def rate(path: PathMatrix, model: NoiseModel) -> float:
    """I(Q); nonnegative, zero iff every residual vanishes."""
    y = whiten(model, residuals(path))
    dt, dx = path.grid.dt, path.grid.dx
    return 0.5 * dt * dx * float(np.sum(y * y))


def _whitened_pair(model: NoiseModel, r: np.ndarray):
    """Return (y, g) with y = Phi^{-1} r and g = C^{-1} r, space axis last.

    g = Phi^{-T} y: with u = y / diag(Phi), g_i = u_i - rho u_{i+1}.
    """
    y = whiten(model, r)
    g = y / model.Phi.diagonal()
    g[..., :-1] -= model.rho * g[..., 1:]
    return y, g


def rate_and_gradient(path: PathMatrix, model: NoiseModel):
    """Rate value and its full gradient dI/dq, shape (N+1, M).

    The value is rate(path) bit for bit.  The gradient covers every entry
    including pinned ones; callers mask.  At Godunov kinks and ties it
    chains through the left-state partial of godunov_flux_derivs.
    """
    q = path.q
    grid, wave = path.grid, path.wave
    dt, dx, D = grid.dt, grid.dx, wave.D
    Npt, M = q.shape

    y, g = _whitened_pair(model, residuals(path))
    value = 0.5 * dt * dx * float(np.sum(y * y))

    grad = np.zeros((Npt, M))
    grad[1:, 1:-1] += dx * g
    grad[:-1, 1:-1] -= dx * g

    # chain rule through b(Q^n): scatter J_b(Q^n)^T g^n onto the three-cell
    # stencil of each interior cell
    dFl, dFr = godunov_flux_derivs(q[:-1, :-1], q[:-1, 1:], wave.gamma)
    dd = D / (dx * dx)
    jt = np.zeros((Npt - 1, M))
    jt[:, 0:M - 2] += g * (dFl[:, 0:M - 2] / dx + dd)
    jt[:, 1:M - 1] += g * (-(dFl[:, 1:M - 1] - dFr[:, 0:M - 2]) / dx - 2.0 * dd)
    jt[:, 2:M] += g * (-dFr[:, 1:M - 1] / dx + dd)
    grad[:-1] -= dt * dx * jt

    return value, grad


def forcing_from_path(path: PathMatrix, model: NoiseModel) -> np.ndarray:
    """Pre-whitened forcing h^n = dt Phi^{-1} r^n, shape (N, M-2).

    Feeding Phi h^n as the per-step forcing of the Euler scheme (eps = 0)
    reproduces the path interior exactly, and (dx / 2 dt) sum_n ||h^n||^2
    equals rate(path).
    """
    return path.grid.dt * whiten(model, residuals(path))


def discrete_lower_bound(path: PathMatrix, model: NoiseModel) -> float:
    """Cauchy-Schwarz lower bound on rate(path).

    (dt dx / (2 ||Phi^T 1||^2)) (sum_n <r^n, 1>)^2 / N, using the exact
    residual sums including boundary flux contributions inside b.
    """
    sums = residuals(path).sum(axis=1)
    dt, dx, N = path.grid.dt, path.grid.dx, path.grid.N
    return dt * dx / (2.0 * model.covariance_sum) * float(sums.sum()) ** 2 / N
