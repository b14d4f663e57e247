"""shockld: rare-event simulation for one-dimensional stochastic viscous
conservation laws.

Pipeline: viscous shock profiles on uniform grids (grid), Godunov/Euler time
stepping (fluxes), correlated noise models (noise), the discrete
large-deviation rate function (rate), most-probable path optimization
(optimize), probability estimation by basic and importance-sampling Monte
Carlo (montecarlo), and displacement-law diagnostics (diagnostics).  The CLI
entry point lives in shockld.cli.
"""

__version__ = "0.1.0"

from .diagnostics import (analytic_center_law, analytic_exit_probability,
                          fit_scaling)
from .fluxes import cfl_number, drift, euler_step, godunov_flux
from .grid import (SpaceTimeGrid, WaveSpec, profile, rankine_hugoniot_speed,
                   sample_profile)
from .montecarlo import (EstimatorReport, epsilon_sweep, run_basic_mc,
                         run_importance_sampling)
from .noise import NoiseModel, build_noise_model, whiten
from .optimize import (OptimalPath, RareEventSpec, linear_interpolation_path,
                       linear_shift_path, midpoint_convexity_test,
                       minimize_ball, minimize_pinned)
from .rate import PathMatrix, discrete_lower_bound, forcing_from_path, rate

__all__ = [
    "SpaceTimeGrid", "WaveSpec", "profile", "rankine_hugoniot_speed",
    "sample_profile",
    "godunov_flux", "drift", "euler_step", "cfl_number",
    "NoiseModel", "build_noise_model", "whiten",
    "PathMatrix", "rate", "forcing_from_path", "discrete_lower_bound",
    "RareEventSpec", "OptimalPath", "minimize_pinned", "minimize_ball",
    "linear_shift_path", "linear_interpolation_path",
    "midpoint_convexity_test",
    "EstimatorReport", "run_basic_mc", "run_importance_sampling",
    "epsilon_sweep",
    "analytic_center_law", "analytic_exit_probability", "fit_scaling",
]
