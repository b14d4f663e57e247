"""Godunov fluxes and explicit Euler stepping for the discrete conservation law.

The interior update for cells m = 2..M-1 is

    Q_m^{n+1} = Q_m^n + ((dt * b_m(Q^n) + eps * noise_m) + forcing_m),

    b_m(Q) = -(F_{m+1/2} - F_{m-1/2}) / dx + D (Q_{m+1} - 2 Q_m + Q_{m-1}) / dx^2,

with first-order Godunov interface fluxes for F(u) = (u - gamma)^2 / 2,
summed in the order of the parentheses, which decides the bits.  euler_step,
the one step of the optimizer's noiseless trajectory and the Monte Carlo
kernel, then pins the outer cells to one row of the scenario's pinned-value
table (optimize.boundary_edges) with pin_edges.  drift evaluates
b_m as G_{m-1/2} - G_{m+1/2}, the difference of the total interface fluxes
G_{m+1/2} = F_{m+1/2} / dx - D (Q_{m+1} - Q_m) / dx^2.  All flux/drift
routines broadcast over leading batch axes so that ensembles of trajectories
evolve in one vectorized call.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import SpaceTimeGrid, WaveSpec

__all__ = [
    "godunov_flux",
    "godunov_flux_derivs",
    "drift",
    "euler_step",
    "pin_edges",
    "cfl_number",
    "check_cfl",
]


def godunov_flux(q_left, q_right, gamma: float):
    """Exact-Riemann (Godunov) interface flux for F(q) = (q - gamma)^2 / 2.

    min of F over [q_left, q_right] when q_left <= q_right (with the sonic
    point q = gamma as an interior candidate), max over the endpoints
    otherwise.  For this convex flux both cases are the closed form

        F = max(q_left - gamma, gamma - q_right, 0)^2 / 2,

    which selects the same float as the case split, on ties and at the sonic
    point too.  Broadcasts over array inputs and returns an array, 0-d for
    scalars; the result takes q_left's memory order (C order when the
    broadcast adds axes).
    """
    ql = np.asarray(q_left, dtype=float)
    qr = np.asarray(q_right, dtype=float)
    shape = np.broadcast_shapes(ql.shape, qr.shape)
    out = np.subtract(ql, gamma, out=np.empty_like(ql, shape=shape))
    np.maximum(out, gamma - qr, out=out)
    np.maximum(out, 0.0, out=out)
    out *= out
    out *= 0.5
    return out


def godunov_flux_derivs(q_left, q_right, gamma: float):
    """One-sided partials (dF/dq_left, dF/dq_right) of godunov_flux.

    With a = max(q_left, gamma) - gamma and b = min(q_right, gamma) - gamma
    the flux is max(a^2, b^2) / 2, so the partials are (a, 0) when a >= -b
    and (0, b) otherwise.  A tie q_left == q_right takes the left state's
    branch instead, which is (b, 0) where the closed form gives (0, b): a
    tie below gamma.  These are the subgradient choices at the sonic kink
    and at ties.
    """
    ql = np.asarray(q_left, dtype=float)
    qr = np.asarray(q_right, dtype=float)
    a = np.maximum(ql, gamma) - gamma
    b = np.minimum(qr, gamma) - gamma
    left = a >= -b
    tie = ql == qr
    dleft = np.where(left, a, np.where(tie, b, 0.0))
    dright = np.where(left | tie, 0.0, b)
    return dleft, dright


def drift(values: np.ndarray, grid: SpaceTimeGrid, wave: WaveSpec,
          out: np.ndarray | None = None) -> np.ndarray:
    """Interior drift b_m for m = 2..M-1; shape (..., M-2).

    The difference of the total fluxes through the two faces of each cell,

        G = F(q_l, q_r) (1/dx) - (D/dx^2) (q_r - q_l),   b = G[:-1] - G[1:],

    over the M-1 interfaces: Godunov convection and the three-point
    diffusion stencil, with no division.  values may be in either memory
    order (a batch stored cells-major is a Fortran-ordered (B, M) view); the
    result has the same order and the same bits.  out, if given, receives
    the drift and is returned.
    """
    values = np.asarray(values, dtype=float)
    ql, qr = values[..., :-1], values[..., 1:]
    G = godunov_flux(ql, qr, wave.gamma)
    G *= 1.0 / grid.dx
    jump = qr - ql
    jump *= wave.D / (grid.dx * grid.dx)
    G -= jump
    return np.subtract(G[..., :-1], G[..., 1:], out=out)


def euler_step(values: np.ndarray, grid: SpaceTimeGrid, wave: WaveSpec,
               edges_row: np.ndarray, *increments, inc=None) -> np.ndarray:
    """One explicit Euler step of values, in place; returns values.

    inc (..., M-2), fresh if None, takes dt b; each increment, already
    scaled, is then added in the order given (the kernel's ((dt b + eps dW)
    + Phi h)), and edges_row, the next level's row of the table of
    optimize.boundary_edges, pins the outer cells.  Either memory order.
    """
    inc = drift(values, grid, wave, out=inc)
    inc *= grid.dt
    for increment in increments:
        inc += increment
    values[..., 1:-1] += inc
    pin_edges(values, edges_row)
    return values


def pin_edges(values: np.ndarray, edges: np.ndarray) -> None:
    """Write edges[..., :w] into the w left cells and edges[..., w:] into
    the w right ones (2w = edges.shape[-1]), broadcast over leading axes: one
    table row pins a batch, a stack of rows pins a stack of time levels."""
    w = edges.shape[-1] // 2
    values[..., :w] = edges[..., :w]
    values[..., -w:] = edges[..., w:]


def cfl_number(grid: SpaceTimeGrid, wave: WaveSpec) -> float:
    """dt (max|F'|/dx + 2 D/dx^2) over states in [u_plus, u_minus]."""
    speed = max(abs(wave.u_minus - wave.gamma), abs(wave.u_plus - wave.gamma))
    return grid.dt * (speed / grid.dx + 2.0 * wave.D / grid.dx ** 2)


def check_cfl(grid: SpaceTimeGrid, wave: WaveSpec) -> float:
    """Warn when the explicit step is outside the stability heuristic."""
    c = cfl_number(grid, wave)
    if c > 1.0:
        warnings.warn(
            f"explicit Euler stability heuristic exceeded: "
            f"dt*(max|F'|/dx + 2D/dx^2) = {c:.3g} > 1",
            RuntimeWarning,
            stacklevel=2,
        )
    return c
