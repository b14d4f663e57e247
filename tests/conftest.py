"""Shared fixtures: the benchmark parameter set and cached optimizations.

The benchmark configuration (dx=0.5, dt=0.05 on [-15, 20], T=1, u=(2,1),
gamma=1.5, D=1, x0=5, delta=sqrt(0.5), sigma=1, l_c=5, K=1e4) is used across
the Monte Carlo and constrained-optimization tests; optimizations that feed
several tests are session-scoped so they run once.
"""

import math

import numpy as np
import pytest

from shockld.fluxes import euler_step
from shockld.grid import SpaceTimeGrid, WaveSpec
from shockld.montecarlo import sample_terminal_states
from shockld.noise import build_noise_model
from shockld.optimize import (RareEventSpec, boundary_edges, initial_values,
                              minimize_ball, minimize_pinned)

DELTA = math.sqrt(0.5)
K_FULL = 10_000


@pytest.fixture(scope="session")
def wave():
    return WaveSpec(u_minus=2.0, u_plus=1.0, D=1.0, gamma=1.5)


@pytest.fixture(scope="session")
def table1_grid():
    return SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.05)


@pytest.fixture(scope="session")
def identity_model(table1_grid):
    return build_noise_model("identity", table1_grid)


@pytest.fixture(scope="session")
def exp_model(table1_grid):
    return build_noise_model("exponential", table1_grid, sigma=1.0, l_c=5.0)


def _dense_covariance(model):
    """C of `model` built from its definition, not from its factor Phi.

    The identity, or sigma^2 exp(-|x_i - x_j| / l_c) on the interior cell
    centers of the model's grid.
    """
    if model.is_identity:
        return np.eye(model.grid.M - 2)
    x = model.grid.interior_centers()
    return model.sigma ** 2 * np.exp(-np.abs(x[:, None] - x[None, :])
                                     / model.l_c)


@pytest.fixture(scope="session")
def dense_covariance():
    """The independent dense covariance builder, model -> C."""
    return _dense_covariance


@pytest.fixture(scope="session")
def displacement_scen(wave):
    return RareEventSpec("displacement", wave, x0=5.0)


@pytest.fixture(scope="session")
def ball_scen(wave):
    return RareEventSpec("displacement", wave, x0=5.0, delta=DELTA)


@pytest.fixture(scope="session")
def pinned_identity_opt(displacement_scen, identity_model):
    return minimize_pinned(displacement_scen, identity_model)


@pytest.fixture(scope="session")
def pinned_exp_opt(displacement_scen, exp_model):
    return minimize_pinned(displacement_scen, exp_model)


@pytest.fixture(scope="session")
def ball_exp_opt(ball_scen, exp_model):
    return minimize_ball(ball_scen, exp_model)


@pytest.fixture(scope="session")
def ball_ladder(ball_scen, exp_model, ball_exp_opt):
    """Ball optima at delta in {1.0, sqrt(0.5), 0.5} (benchmark noise)."""
    out = {DELTA: ball_exp_opt}
    for delta in (1.0, 0.5):
        scen = RareEventSpec("displacement", ball_scen.wave, x0=5.0,
                             delta=delta)
        out[delta] = minimize_ball(scen, exp_model)
    return out


@pytest.fixture(scope="session")
def one_step_increments(wave, displacement_scen):
    """The kernel's own noise increments: (increments, model), K = 1e5.

    sample_terminal_states on the benchmark grid cut to one step (T = dt),
    at eps = 1, minus the noiseless euler_step, leaves each sample's
    colored increment on the interior cells, with covariance (dt/dx) C.
    """
    grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 0.05, 0.05)
    model = build_noise_model("exponential", grid, sigma=1.0, l_c=5.0)
    terminals = sample_terminal_states(displacement_scen, model, 1.0, 100_000,
                                       seed=1003)
    noiseless = euler_step(initial_values(displacement_scen, grid), grid, wave,
                           boundary_edges(displacement_scen, grid))
    return terminals[:, 1:-1] - noiseless[1:-1], model
