"""Wave centers, the Gaussian displacement law, and scaling fits.

The center of a state relative to the reference profile is the mass excess
converted to a position,

    center(Q) = dx sum_m (Q_m - ref_m) / (u_minus - u_plus),

signed so that a profile rigidly shifted right by a has center +a (a
rightward-moving wave accumulates mass at rate speed * (u_minus - u_plus)).
Interior drift conserves the center up to boundary fluxes, so under the
discrete noise (per-step interior covariance (dt/dx) C) the center at time t
is Gaussian with mean (wave speed) * t and variance

    eps^2 t dx 1^T C 1 / (u_minus - u_plus)^2,

each step contributing dx^2 Var(sum_m dW_m) / jump^2 = eps^2 dt dx 1^T C 1 /
jump^2, with 1^T C 1 the noise model's covariance_sum and dx its grid's.
The exit probability of the center past a threshold follows from the exact
Gaussian tail.

A sample of centers is reduced per chunk to its size, mean, sum of squared
deviations and exceedance count (center_moments), and the chunks are merged
in index order by the pairwise update of Chan, Golub and LeVeque
(merge_moments), so no K-sized array is needed for the law's statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import SpaceTimeGrid, WaveSpec
from .noise import NoiseModel

__all__ = [
    "analytic_center_law",
    "analytic_exit_probability",
    "center_moments",
    "fit_scaling",
    "merge_moments",
    "transition_margin_ok",
]


def wave_centers(states: np.ndarray, reference: np.ndarray, wave: WaveSpec,
                 dx: float) -> np.ndarray:
    """dx sum (Q - ref) / (u_minus - u_plus) over the last axis of `states`.

    Linear in the state, and positive for a profile displaced to the right
    of the reference.
    """
    if wave.u_minus == wave.u_plus:
        raise ValueError("wave center undefined for equal end states")
    diff = np.asarray(states, dtype=float) - np.asarray(reference, dtype=float)
    return dx * diff.sum(axis=-1) / (wave.u_minus - wave.u_plus)


def center_moments(centers: np.ndarray, level: float):
    """(B, mean, M2, exceed) of a chunk of B centers, which it overwrites.

    exceed counts the centers >= level; mean is their sum over B, and M2
    the sum of their squared deviations from it, each sum numpy's pairwise
    one, taken in the chunk's own array.
    """
    B = centers.size
    exceed = int(np.count_nonzero(centers >= level))
    mean = np.sum(centers) / B
    centers -= mean
    centers *= centers
    return B, float(mean), float(np.sum(centers)), exceed


def merge_moments(chunks):
    """(n, mean, M2, exceed) of the union of center_moments chunks.

    Chan, Golub and LeVeque's pairwise update, folded over the chunks in the
    order given: with delta = mean_c - mean and n' = n + B,
    mean += delta B/n' and M2 += M2_c + delta^2 n B/n'.  A single chunk
    keeps its own bits, so it gives np.mean and n np.var of its values.
    """
    n, mean, m2, exceed = 0, 0.0, 0.0, 0
    for B, mean_c, m2_c, exceed_c in chunks:
        delta, total = mean_c - mean, n + B
        mean += delta * (B / total)
        m2 += m2_c + delta * delta * (n * B / total)
        n, exceed = total, exceed + exceed_c
    return n, mean, m2, exceed


def analytic_center_law(eps: float, t: float, model: NoiseModel,
                        wave: WaveSpec):
    """(mean, variance) of the center at time t under the discrete noise.

    Mean is the frame wave speed times t (zero in the co-moving frame).  The
    variance accumulates eps^2 dt dx 1^T C 1 / jump^2 per step, i.e.
    eps^2 t dx 1^T C 1 / jump^2 at time t, on the model's grid spacing dx.
    """
    mean = wave.wave_speed() * t
    variance = eps * eps * t * model.grid.dx * model.covariance_sum \
        / wave.jump ** 2
    return mean, variance


def analytic_exit_probability(x0: float, T: float, eps: float,
                              model: NoiseModel, wave: WaveSpec) -> float:
    """Exact Gaussian tail P(Z >= x0), Z ~ N(0, variance of the center law).

    erfc(0)/2 makes the half-probability at x0 = 0 exact; deep tails
    underflow to 0.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    _, var = analytic_center_law(eps, T, model, wave)
    if var == 0.0:
        return 1.0 if x0 <= 0 else 0.0
    return 0.5 * math.erfc(x0 / math.sqrt(2.0 * var))


_FORMS = {
    "quadratic": lambda x: np.column_stack([x * x, x, np.ones_like(x)]),
    "linear": lambda x: np.column_stack([x, np.ones_like(x)]),
}


def fit_scaling(xs, ys, form: str):
    """Least-squares fit of the named form; returns (coefficients, R^2).

    Forms: quadratic a x^2 + b x + c and linear a x + b; the leading
    (stated) coefficient comes first.  Needs at least 3 points
    and a full-rank design matrix.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown fit form: {form!r}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or x.size != y.size:
        raise ValueError("fit needs at least 3 matching points")
    A = _FORMS[form](x)
    coeffs, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise ValueError("degenerate design matrix")
    resid = y - A @ coeffs
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return coeffs, r2


def transition_margin_ok(shift: float, grid: SpaceTimeGrid,
                         wave: WaveSpec) -> bool:
    """True while a transition centered at `shift` keeps 5 diffusive lengths
    D/jump away from both domain boundaries."""
    margin = 5.0 * wave.D / wave.jump
    return grid.L + margin <= shift <= grid.R - margin
