"""Spatial covariance models for the driving noise on interior cells.

The per-step noise increments on cells 2..M-1 are zero-mean Gaussian with
covariance (dt/dx) C and independent across time steps.  C is the identity or
the exponential kernel sigma^2 exp(-|x_i - x_j| / l_c) at interior cell
centers, which on the uniform grid is the AR(1) (Kac-Murdock-Szego) matrix
sigma^2 rho^|i-j|, rho = exp(-dx / l_c).  The model holds only C's Cholesky
factor Phi (1^T C 1 is |Phi^T 1|^2), which colors samples (Phi z) and is
explicit: Phi_i0 = sigma rho^i, Phi_ij = sigma s rho^(i-j) for 1 <= j <= i,
s = sqrt(1 - rho^2).  Phi^{-1} is bidiagonal, so whitening is y_0 = r_0 /
sigma, y_i = (r_i - rho r_{i-1}) / (sigma s), and coloring is the AR(1)
recurrence x_0 = sigma y_0, x_i = rho x_{i-1} + sigma s y_i; identity noise
is the case rho = 0, sigma = s = 1.  Neither calls BLAS.

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

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeGrid

__all__ = [
    "NoiseModel",
    "build_noise_model",
    "whiten",
    "unwhiten",
    "ar1_accumulate",
]


@dataclass(frozen=True)
class NoiseModel:
    """Covariance C = Phi Phi^T on the M-2 interior cells of `grid`."""

    kind: str  # "identity" | "exponential"
    Phi: np.ndarray
    grid: SpaceTimeGrid
    sigma: float | None = None
    l_c: float | None = None

    @property
    def size(self) -> int:
        return self.Phi.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    @property
    def rho(self) -> float:
        """Correlation exp(-dx / l_c) of neighboring cells; 0 for identity."""
        return 0.0 if self.is_identity else math.exp(-self.grid.dx / self.l_c)

    @property
    def covariance_sum(self) -> float:
        """1^T C 1 = |Phi^T 1|^2, the variance of the summed interior noise."""
        pt1 = self.Phi.T.sum(axis=1)
        return float(pt1 @ pt1)


def build_noise_model(kind: str, grid: SpaceTimeGrid,
                      sigma: float | None = None,
                      l_c: float | None = None) -> NoiseModel:
    """The closed-form factor Phi of C at interior cell centers.

    kind "identity" sets Phi = I; "exponential" needs sigma, l_c > 0.
    """
    n = grid.M - 2
    if kind == "identity":
        return NoiseModel(kind="identity", Phi=np.eye(n), grid=grid)
    if kind != "exponential":
        raise ValueError(f"unknown noise kind: {kind!r}")
    if sigma is None or not sigma > 0:
        raise ValueError(f"exponential noise needs sigma > 0, got {sigma}")
    if l_c is None or not l_c > 0:
        raise ValueError(f"exponential noise needs l_c > 0, got {l_c}")

    # 1 - rho^2 cancels to 0 once rho rounds to 1 (l_c beyond ~1e16 dx), while
    # -expm1(-2 dx / l_c) keeps full precision; only its underflow gives s = 0
    s = math.sqrt(-math.expm1(-2.0 * grid.dx / l_c))
    if s == 0.0:
        raise ValueError("covariance not positive definite")
    i = np.arange(n)
    powers = math.exp(-grid.dx / l_c) ** i
    Phi = np.tril(sigma * s * powers[np.abs(i[:, None] - i)])
    Phi[:, 0] = sigma * powers
    return NoiseModel(kind="exponential", Phi=Phi, grid=grid,
                      sigma=sigma, l_c=l_c)


def _cells(model: NoiseModel, r) -> np.ndarray:
    """r as a float array whose last axis holds the M-2 interior cells."""
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (model.size,):
        raise ValueError(f"last axis must hold the {model.size} interior "
                         f"cells, got shape {r.shape}")
    return r


def whiten(model: NoiseModel, r: np.ndarray) -> np.ndarray:
    """Phi^{-1} r along the last axis, which must hold the M-2 interior cells.

    r_i - rho r_{i-1} (r_0 alone) divided by diag(Phi) = (sigma, sigma s, ...).
    """
    r = _cells(model, r)
    y = r.copy()
    y[..., 1:] -= model.rho * r[..., :-1]
    y /= model.Phi.diagonal()
    return y


def ar1_accumulate(model: NoiseModel, x: np.ndarray) -> np.ndarray:
    """x_i += rho x_{i-1} along the last axis, in place, i = 1, 2, ...

    Applied to diag(Phi) y this gives Phi y, since Phi's rows obey the AR(1)
    recurrence (Phi y)_i = rho (Phi y)_{i-1} + Phi_ii y_i.  x may be a
    strided view; identity noise (rho = 0) leaves it untouched.
    """
    rho = model.rho
    if rho:
        row = np.empty_like(x[..., 0])
        for i in range(1, x.shape[-1]):
            x[..., i] += np.multiply(x[..., i - 1], rho, out=row)
    return x


def unwhiten(model: NoiseModel, y: np.ndarray) -> np.ndarray:
    """Apply Phi along the last axis (inverse of whiten), by ar1_accumulate."""
    return ar1_accumulate(model, _cells(model, y) * model.Phi.diagonal())
