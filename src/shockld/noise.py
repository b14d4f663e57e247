"""Spatial covariance models for the driving noise on interior cells.

The per-step noise increments on cells 2..M-1 are zero-mean Gaussian with
covariance (dt/dx) C and independent across time steps.  C is either the
identity or the exponential kernel

    C_ij = sigma^2 exp(-|x_i - x_j| / l_c)

evaluated at interior cell centers.  Phi is the lower-triangular Cholesky
factor of C, used both to color samples (Phi z) and to whiten residuals
(Phi^{-1} r).

Grid dependence: identity noise has a grid limit, but the exponential kernel
is fixed in physical units (sigma, l_c), so its noise power per unit length
grows as 1/dx and the discrete problem has no limit as the grid is refined.
The pinned optimum of the benchmark displacement halves with each halving of
dx: I* = 0.09342, 0.04681, 0.02342 at dx = 0.5, 0.25, 0.125, while identity
noise gives 0.94618, 0.94626, 0.94630.  Covariance dt C instead of
(dt/dx) C would remove the 1/dx growth but move every acceptance number, so
the model is kept as written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .grid import SpaceTimeGrid

__all__ = [
    "NoiseModel",
    "build_noise_model",
    "whiten",
    "unwhiten",
]


@dataclass(frozen=True)
class NoiseModel:
    """Covariance C = Phi Phi^T on the M-2 interior cells of `grid`."""

    kind: str  # "identity" | "exponential"
    C: np.ndarray
    Phi: np.ndarray
    grid: SpaceTimeGrid
    sigma: float | None = None
    l_c: float | None = None

    @property
    def size(self) -> int:
        return self.C.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"


def build_noise_model(kind: str, grid: SpaceTimeGrid,
                      sigma: float | None = None,
                      l_c: float | None = None) -> NoiseModel:
    """Assemble C at interior cell centers and factor it.

    kind "identity" sets C = Phi = I exactly.  kind "exponential" needs
    sigma > 0 and l_c > 0.  If the Cholesky factorization fails, a single
    diagonal jitter of 1e-12 tr(C)/(M-2) is added and the factorization
    retried; a second failure is a hard error (exponential kernels are
    positive definite in exact arithmetic, so jitter only covers roundoff).
    """
    n = grid.M - 2
    if kind == "identity":
        eye = np.eye(n)
        return NoiseModel(kind="identity", C=eye, Phi=eye.copy(), grid=grid)
    if kind != "exponential":
        raise ValueError(f"unknown noise kind: {kind!r}")
    if sigma is None or not sigma > 0:
        raise ValueError(f"exponential noise needs sigma > 0, got {sigma}")
    if l_c is None or not l_c > 0:
        raise ValueError(f"exponential noise needs l_c > 0, got {l_c}")

    x = grid.interior_centers()
    dist = np.abs(x[:, None] - x[None, :])
    C = sigma * sigma * np.exp(-dist / l_c)
    try:
        Phi = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(C) / n
        try:
            Phi = np.linalg.cholesky(C + jitter * np.eye(n))
        except np.linalg.LinAlgError as err:
            raise ValueError("covariance not positive definite") from err
    return NoiseModel(kind="exponential", C=C, Phi=Phi, grid=grid,
                      sigma=sigma, l_c=l_c)


def whiten(model: NoiseModel, r: np.ndarray) -> np.ndarray:
    """Solve Phi y = r by forward substitution; the space axis is last.

    Accepts shape (M-2,) or (..., M-2) and satisfies Phi @ whiten(r) = r to
    roundoff.
    """
    r = np.asarray(r, dtype=float)
    if model.is_identity:
        return r.copy()
    if r.ndim == 1:
        return solve_triangular(model.Phi, r, lower=True)
    flat = r.reshape(-1, model.size)
    out = solve_triangular(model.Phi, flat.T, lower=True).T
    return out.reshape(r.shape)


def unwhiten(model: NoiseModel, y: np.ndarray) -> np.ndarray:
    """Apply Phi along the last axis (inverse of whiten)."""
    y = np.asarray(y, dtype=float)
    if model.is_identity:
        return y.copy()
    return y @ model.Phi.T

