"""Uniform space-time grids and viscous traveling-wave profiles.

The physical setting is a scalar viscous conservation law

    u_t + F(u)_x = (D u_x)_x

posed on a truncated domain [L, R] with a uniform cell mesh and a uniform
time grid on [0, T].  The flux family supported here is the quadratic
(Burgers) flux in a moving frame, F(u) = (u - gamma)^2 / 2; gamma = 0
recovers the lab-frame Burgers flux u^2 / 2.

A decreasing traveling wave connecting u_minus (left) to u_plus (right)
exists whenever u_minus > u_plus, with speed fixed by conservation across
the jump.  For the Burgers family the profile has the closed form

    U(x) = (u_minus + u_plus)/2 - (u_minus - u_plus)/2 * tanh((u_minus - u_plus) x / (4 D)),

centered so that the transition midpoint sits at x = 0.  The tests verify
this formula against the profile ODE D U' = F(U) - F(u_minus) - s (U - u_minus)
rather than taking it on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "WaveSpec",
    "rankine_hugoniot_speed",
    "profile",
    "sample_profile",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform mesh: M cells on [L, R], N steps of length dt on [0, T].

    Cell m (1-based) has center L + (m - 1/2) dx.
    """

    L: float
    R: float
    M: int
    T: float
    N: int

    def __post_init__(self):
        if self.M < 4:
            raise ValueError(f"grid needs at least 4 cells, got M={self.M}")
        if self.N < 1:
            raise ValueError(f"grid needs at least 1 time step, got N={self.N}")
        if not self.R > self.L:
            raise ValueError("grid requires R > L")
        if not self.T > 0:
            raise ValueError("grid requires T > 0")

    @property
    def dx(self) -> float:
        return (self.R - self.L) / self.M

    @property
    def dt(self) -> float:
        return self.T / self.N

    def centers(self) -> np.ndarray:
        """Cell centers x_{m-1/2}, shape (M,)."""
        return self.L + (np.arange(self.M) + 0.5) * self.dx

    def interior_centers(self) -> np.ndarray:
        """Centers of cells 2..M-1 (the noise-carrying cells)."""
        return self.centers()[1:-1]

    @staticmethod
    def from_spacing(L: float, R: float, dx: float, T: float, dt: float) -> "SpaceTimeGrid":
        """Build a grid from spacings; dx must divide R-L and dt must divide T
        to 1e-9 relative."""
        M = _exact_divisions(R - L, dx, "dx")
        N = _exact_divisions(T, dt, "dt")
        return SpaceTimeGrid(L=L, R=R, M=M, T=T, N=N)


def _exact_divisions(total: float, step: float, name: str) -> int:
    if step <= 0:
        raise ValueError(f"{name} must be positive, got {step}")
    n = total / step
    n_round = round(n)
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"{name}={step} does not divide {total} evenly")
    return int(n_round)


@dataclass(frozen=True)
class WaveSpec:
    """Wave data: end states, viscosity, and moving-frame speed.

    The flux is F(u) = (u - gamma)^2 / 2.  The entropy-admissible profile is
    decreasing, so u_minus > u_plus is required; D > 0.
    """

    u_minus: float
    u_plus: float
    D: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.u_minus > self.u_plus:
            raise ValueError(
                f"entropy-admissible profile needs u_minus > u_plus, "
                f"got {self.u_minus} <= {self.u_plus}"
            )
        if not self.D > 0:
            raise ValueError(f"viscosity must be positive, got D={self.D}")

    @property
    def jump(self) -> float:
        return self.u_minus - self.u_plus

    def flux(self, u):
        """Pointwise flux F(u) = (u - gamma)^2 / 2; accepts arrays."""
        return 0.5 * (np.asarray(u) - self.gamma) ** 2

    def wave_speed(self) -> float:
        """Jump speed of this wave in the current frame."""
        return rankine_hugoniot_speed(self.u_minus, self.u_plus, self.flux)


def rankine_hugoniot_speed(u_minus: float, u_plus: float,
                           flux: Callable[[float], float]) -> float:
    """Jump speed (F(u_plus) - F(u_minus)) / (u_plus - u_minus)."""
    if u_minus == u_plus:
        raise ValueError("degenerate jump: u_minus == u_plus")
    return (flux(u_plus) - flux(u_minus)) / (u_plus - u_minus)


def profile(spec: WaveSpec, x):
    """Viscous shock profile U(x), transition centered at x = 0.

    Closed tanh form for the Burgers flux family; the same curve solves the
    profile ODE for every frame speed gamma since the quadratic terms cancel.
    Accepts scalars or arrays.
    """
    a = 0.5 * (spec.u_minus + spec.u_plus)
    b = 0.5 * (spec.u_minus - spec.u_plus)
    return a - b * np.tanh(spec.jump * np.asarray(x) / (4.0 * spec.D))


def sample_profile(spec: WaveSpec, grid: SpaceTimeGrid, shift: float = 0.0) -> np.ndarray:
    """Profile point-sampled at cell centers, shifted right by `shift`.

    Component m equals profile(spec, x_{m-1/2} - shift); values are point
    samples, not cell averages.
    """
    return profile(spec, grid.centers() - shift)
