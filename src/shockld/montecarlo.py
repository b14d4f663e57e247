"""Rare-event probability estimators: basic and importance-sampling Monte Carlo.

Both estimators evolve K independent trajectories of the stochastic Euler
scheme and score the terminal slice against the target ball

    event  <=>  dx sum_m (Q_m^N - target_m)^2 <= delta^2.

Importance sampling tilts the noise mean along a precomputed forcing h^n
(from an optimized path), evolving

    Q^{n+1} = Q^n + dt b(Q^n) + (Phi h^n) + eps dW~^n,

and reweights each sample by the exact Gaussian likelihood ratio

    w = exp( -(dx / 2 dt) sum_n [ ||Phi^{-1} dW~^n + h^n/eps||^2
                                  - ||Phi^{-1} dW~^n||^2 ] ),

so that E[indicator * w] is the original-event probability for any forcing.
_log_weights is the one implementation of this weight; run_estimators applies
it to the whitened draws Phi^{-1} dW~^n = sqrt(dt/dx) z^n, never to the
colored increments.

One trajectory kernel, _simulate, serves every caller.  It takes a sequence
of forcings (None for the untilted scheme) and works through the samples in
chunks: per chunk it draws and colors the normals once, then steps one
trajectory batch per forcing from those increments and yields its terminal
slices with the chunk's whitened draws.  It only steps: run_estimators scores
the slices (indicator times weight), sample_terminal_states stores them.  An
epsilon sweep therefore runs mc, is0 and is-delta at one eps from one set of
draws.  A helper thread draws chunk c+1 while the calling thread colors and
steps chunk c (numpy releases the GIL in both); it is joined when the run
ends or is abandoned.

Each trajectory batch is held cells-major, as an (M, B) array whose
contiguous axis runs over the samples, so each elementwise pass of a step
(drift, increments, boundary cells) is one long loop rather than B short
ones over strided row slices.  The per-element arithmetic and its order are
those of a row-major (B, M) batch, so every value is bit-identical to it.
The coloring is unwhiten's stacked z @ Phi^T, one small product per sample: a
single 2-D product over the chunk is large enough for a threaded BLAS to
spread over every core, which then starves the draw thread.  Its scaling by
sqrt(dt/dx) writes it cells-major, as (N, M-2, B), so each step adds one
contiguous slice.  The batch, the step increment and that store are
allocated once per kernel run, and the drift is written into the increment.

The chunk-sized elementwise passes (the coloring product and its scaled
transposing copy, the whitened draws' scaling and their squared norms, and
the shifted square-sums of the weights) run over blocks of _BLOCK samples,
so their temporaries are block-sized: the two draw buffers and the colored
store are the only arrays of a chunk's B x N x (M-2) values.  Each value is
computed per sample, so it keeps its bits at any block size.  Callers reduce
each chunk's terminal slices before the next is stepped, so no (K, M) array
exists unless the caller asks for the slices themselves.

Seeding contract: a 64-bit root seed expands into one independent stream per
sample index (counter-based spawn keys), so the draws of sample k never
depend on K, on chunking, or on which estimators consume them.  Statistics
reduce in deterministic index order.  sample_stream defines sample k's
stream; the kernel derives the same PCG64 states for a whole chunk in one
vectorized pass and draws each sample's normals from them.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fluxes import drift, pin_edges
from .noise import NoiseModel, unwhiten
from .optimize import RareEventSpec, boundary_edges, initial_values, target_values

__all__ = [
    "ESTIMATORS",
    "EstimatorReport",
    "run_basic_mc",
    "run_estimators",
    "run_importance_sampling",
    "epsilon_sweep",
    "sample_terminal_states",
    "sample_stream",
]

ESTIMATORS = ("mc", "is0", "is-delta")  # names of epsilon_sweep's estimators

_DOMAIN_MC = 1  # spawn-key namespace for trajectory noise

_CHUNK = 512
_BLOCK = 64  # samples per elementwise pass over a chunk

# numpy's SeedSequence entropy hash (pool size 4) and PCG64 seeding, restated
# so that _stream_states can derive a chunk of streams at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class EstimatorReport:
    """Probability estimate with the sample statistics used to judge it.

    std is the population standard deviation of the per-sample values
    p^(k); the 99% confidence interval is estimate -+ 2.6 std / sqrt(K);
    relative_error = std / estimate saturates near sqrt(K) when a single
    sample dominates, which is what flagged_saturated detects.
    """

    estimate: float
    std: float
    ci_low: float
    ci_high: float
    relative_error: float
    K: int
    epsilon: float
    hits: int
    flagged_saturated: bool


def sample_stream(seed: int, run_key: int, k: int) -> np.random.Generator:
    """The independent generator owned by sample k of run `run_key`."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_DOMAIN_MC, run_key, k)))


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence reads it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, on uint32 arrays."""
    hc = init

    def hashmix(value):
        nonlocal hc
        value = value ^ np.uint32(hc)
        hc = (hc * mult) & _MASK32
        value *= np.uint32(hc)
        value ^= value >> np.uint32(16)
        return value

    return hashmix


def _seed_pools(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mixed pool, 4 words of B lanes, from B entropy columns."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        r ^= r >> np.uint32(16)
        return r

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _stream_states(seed: int, run_key: int, start: int,
                   stop: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of sample_stream(seed, run_key, k), k = start..stop-1.

    The spawn key's last word(s) are k's, so samples whose k has the same
    number of words share everything before them; each such run of k is
    hashed as one uint32 pass.
    """
    head = _words(seed)
    head += [0] * (_POOL - len(head))
    head += _words(_DOMAIN_MC) + _words(run_key)
    states = []
    lo = start
    while lo < stop:
        n_k = len(_words(lo))
        hi = min(stop, 1 << (32 * n_k))
        k = np.arange(lo, hi, dtype=np.uint64)
        entropy = [np.full(hi - lo, w, dtype=np.uint32) for w in head]
        entropy += [((k >> np.uint64(32 * i)) & np.uint64(_MASK32))
                    .astype(np.uint32) for i in range(n_k)]
        pool = _seed_pools(entropy)
        # generate_state(4, np.uint64): 8 words cycling over the pool
        out = _hasher(_INIT_B, _MULT_B)
        words = [out(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
        seed_hi, seed_lo, seq_hi, seq_lo = (
            (words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist()
            for j in range(4))
        # PCG64 seeding: odd increment from the sequence word, then two LCG
        # steps from state 0 with the seed word added in between
        for sh, sl, qh, ql in zip(seed_hi, seed_lo, seq_hi, seq_lo):
            inc = (((qh << 64 | ql) << 1) | 1) & _MASK128
            state = ((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _MASK128
            states.append((state, inc))
        lo = hi
    return states


def _normals(z: np.ndarray, seed: int, run_key: int, start: int) -> np.ndarray:
    """Fill z[j] with the standard normals of sample start + j, from its own stream."""
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    states = _stream_states(seed, run_key, start, start + len(z))
    for j, (state, inc) in enumerate(states):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=z[j])
    return z


def _draws(seed: int, run_key: int, K: int, shape: tuple[int, ...]):
    """Yield (start, stop, z) per chunk of the K samples' normals.

    Chunk c+1 is drawn on a helper thread while the caller works on chunk c;
    an exception raised there surfaces from the next chunk's result.  The
    chunks alternate between two buffers, allocated once on the caller's
    thread (so both live in its malloc arena): chunk c+2 is drawn into
    chunk c's memory.  A consumer may overwrite a chunk in place, but must
    not keep it past its loop iteration.
    """
    size = min(K, _CHUNK)
    n_buffers = 1 if K <= _CHUNK else 2
    buffers = [np.empty((size,) + shape) for _ in range(n_buffers)]
    with ThreadPoolExecutor(max_workers=1) as helper:
        def draw(start, buf):
            z = buf[:min(start + _CHUNK, K) - start]
            return helper.submit(_normals, z, seed, run_key, start)

        pending = draw(0, buffers[0])
        for c, start in enumerate(range(0, K, _CHUNK)):
            z = pending.result()
            if start + _CHUNK < K:
                pending = draw(start + _CHUNK, buffers[(c + 1) % 2])
            yield start, start + len(z), z


def _report(p: np.ndarray, eps: float, hits: int) -> EstimatorReport:
    K = p.size
    mean = float(np.mean(p))
    var = float(np.mean(p * p)) - mean * mean
    std = float(np.sqrt(max(var, 0.0)))
    half = 2.6 * std / math.sqrt(K)
    rel = std / mean if mean > 0 else float("inf")
    return EstimatorReport(
        estimate=mean, std=std, ci_low=mean - half, ci_high=mean + half,
        relative_error=rel, K=K, epsilon=float(eps), hits=hits,
        flagged_saturated=rel >= 0.9 * math.sqrt(K))


def _square_sums(y: np.ndarray, shift=0.0) -> np.ndarray:
    """Sum of (y + shift)^2 over the last two axes of y (..., N, M-2).

    Runs over blocks of _BLOCK samples, so the only temporary is one block.
    """
    samples = y.reshape((-1,) + y.shape[-2:])
    out = np.empty(len(samples))
    for lo in range(0, len(samples), _BLOCK):
        s = samples[lo:lo + _BLOCK] + shift
        s *= s
        np.sum(s, axis=(1, 2), out=out[lo:lo + _BLOCK])
    return out.reshape(y.shape[:-2])


def _log_weights(y: np.ndarray, shift: np.ndarray, scale: float,
                 y_sq: np.ndarray) -> np.ndarray:
    """Gaussian log-likelihood ratio log dP/dQ of whitened draws.

    y holds the whitened zero-mean increments (..., N, M-2), shift the mean
    h/eps of the tilted law, scale is dx / (2 dt), and y_sq the sum of y^2
    over the last two axes, shared by every shift of the same y.
    """
    return -scale * (_square_sums(y, shift) - y_sq)


def _checked(K: int, eps: float, forcings, model: NoiseModel) -> list:
    """Forcings as (N, M-2) float arrays; refuses bad K, eps and forcings."""
    if K < 1:
        raise ValueError("K must be at least 1")
    shape = (model.grid.N, model.grid.M - 2)
    forcings = [None if h is None else np.asarray(h, dtype=float)
                for h in forcings]
    if not forcings:
        raise ValueError("forcings must be nonempty")
    for h in forcings:
        if h is None:
            continue
        if h.shape != shape:
            raise ValueError(f"forcing must have shape (N, M-2) = {shape}, "
                             f"got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("forcing entries must be finite")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    if eps <= 0 and any(h is not None for h in forcings):
        raise ValueError("importance sampling requires eps > 0")
    return forcings


def _inside(q: np.ndarray, target: np.ndarray, dx: float,
            delta_sq: float) -> np.ndarray:
    """Event indicator dx ||q - target||^2 <= delta^2 of (B, M) slices.

    q is C-ordered, so the distance sums keep the summation order of a
    row-major batch; the squared distances overwrite it.
    """
    q -= target
    q *= q
    return dx * np.sum(q, axis=1) <= delta_sq


def _simulate(scen: RareEventSpec, model: NoiseModel, eps: float, K: int,
              seed: int, run_key: int, forcings):
    """Evolve K trajectories per forcing from one set of per-sample draws.

    forcings holds checked (N, M-2) arrays h, None meaning the untilted
    scheme.  Per chunk the draws are colored once; then each forcing's batch
    is stepped and yielded as (i, start, z, q): the forcing's index, the
    chunk's first sample, its draws z (B, N, M-2), whitened when any forcing
    is tilted and valid only until the next chunk, and the terminal slices
    q, a fresh C-ordered (B, M) array the caller may overwrite.

    Every buffer is allocated once per run and viewed at each chunk's
    size B: the trajectory batch qT, stored cells-major as (M, B); the step
    increment inc, (M-2, B); and the colored increments dW of the chunk,
    (N, M-2, B), so each step adds one contiguous slice dW[n].  drift
    writes each step's drift into inc through the Fortran-ordered (B, M)
    views qT.T and inc.T.  Beyond these and the two draw buffers of _draws,
    a run allocates per chunk only block-sized temporaries (_BLOCK samples)
    and the (B, M) terminal slices of one forcing at a time.
    """
    grid, wave = model.grid, scen.wave
    N, M = grid.N, grid.M
    dt = grid.dt
    n_int = M - 2
    q0 = initial_values(scen, grid)
    edges = boundary_edges(scen, grid)
    rho = np.sqrt(dt / grid.dx)
    tilted = any(h is not None for h in forcings)
    tilts = [None if h is None else unwhiten(model, h)[:, :, None]
             for h in forcings]

    size = min(K, _CHUNK)
    q_mem, inc_mem, dW_mem = (np.empty(n * size)
                              for n in (M, n_int, N * n_int))
    for start, stop, z in _draws(seed, run_key, K, (N, n_int)):
        B = stop - start
        qT = q_mem[:M * B].reshape(M, B)
        inc = inc_mem[:n_int * B].reshape(n_int, B)
        dW = dW_mem[:N * n_int * B].reshape(N, n_int, B)
        for lo in range(0, B, _BLOCK):
            zb = z[lo:lo + _BLOCK]
            np.multiply(unwhiten(model, zb).transpose(1, 2, 0), rho,
                        out=dW[:, :, lo:lo + _BLOCK])
            if tilted:
                zb *= rho
        dW *= eps

        for i, tilt in enumerate(tilts):
            qT[...] = q0[:, None]
            for n in range(N):
                drift(qT.T, grid, wave, out=inc.T)
                inc *= dt
                inc += dW[n]
                if tilt is not None:
                    inc += tilt[n]
                qT[1:-1] += inc
                pin_edges(qT.T, edges[n + 1])
            yield i, start, z, np.ascontiguousarray(qT.T)


def run_estimators(scen: RareEventSpec, model: NoiseModel, eps: float, K: int,
                   forcings, seed: int, run_key: int = 0) -> list[EstimatorReport]:
    """One report per forcing (None: basic MC), all from the same draws.

    Each report equals what run_basic_mc or run_importance_sampling returns
    for that forcing alone with the same seed and run key.  A sample's value
    is its event indicator, times its likelihood weight under a forcing.
    Raises ValueError when scen.delta = 0: the event
    dx |Q^N - target|^2 <= 0 has probability 0.
    """
    if not scen.delta > 0:
        raise ValueError("the estimators need scenario delta > 0: the event "
                         "dx |Q^N - target|^2 <= 0 has probability 0")
    forcings = _checked(K, eps, forcings, model)
    grid = model.grid
    target = target_values(scen, grid)
    delta_sq = scen.delta ** 2
    scale = grid.dx / (2.0 * grid.dt)
    shifts = [None if h is None else h / eps for h in forcings]
    tilted = any(h is not None for h in forcings)

    p = np.empty((len(forcings), K))
    hits = [0] * len(forcings)
    for i, start, z, q in _simulate(scen, model, eps, K, seed, run_key,
                                    forcings):
        stop = start + len(q)
        if i == 0 and tilted:   # once per chunk, shared by every shift
            y_sq = _square_sums(z)
        ind = _inside(q, target, grid.dx, delta_sq)
        hits[i] += int(np.count_nonzero(ind))
        if shifts[i] is None:
            p[i, start:stop] = ind.astype(float)
        else:
            p[i, start:stop] = ind * np.exp(
                _log_weights(z, shifts[i], scale, y_sq))
    return [_report(row, eps, n) for row, n in zip(p, hits)]


def run_basic_mc(scen: RareEventSpec, model: NoiseModel, eps: float, K: int,
                 seed: int, run_key: int = 0) -> EstimatorReport:
    """Hit-fraction estimator over K independent noisy trajectories."""
    return run_estimators(scen, model, eps, K, [None], seed, run_key)[0]


def run_importance_sampling(scen: RareEventSpec, model: NoiseModel, eps: float,
                            K: int, forcing: np.ndarray, seed: int,
                            run_key: int = 0) -> EstimatorReport:
    """Tilted estimator: mean of indicator times likelihood ratio.

    With forcing = 0 this reproduces run_basic_mc sample for sample (same
    seed stream, unit weights).  On an event every sample hits, the
    per-sample values are the likelihood weights themselves, so the report
    checks the change of measure: the weights average to 1 in expectation.
    """
    return run_estimators(scen, model, eps, K, [forcing], seed, run_key)[0]


def sample_terminal_states(scen: RareEventSpec, model: NoiseModel, eps: float,
                           K: int, seed: int, run_key: int = 0,
                           forcing: np.ndarray | None = None,
                           keep=None) -> np.ndarray:
    """Terminal slices of K noisy trajectories, shape (K, M), or what keep
    makes of them.

    keep maps the terminal slices of a chunk of B samples, a C-ordered
    (B, M) array, to B rows, and the result stacks the rows of all K
    samples; without it the slices themselves are returned.  A keep that
    reduces each slice to a few numbers keeps memory at O(K) of them.
    """
    forcings = _checked(K, eps, [forcing], model)
    kept = None
    for _, start, _, q in _simulate(scen, model, eps, K, seed, run_key,
                                    forcings):
        rows = q if keep is None else keep(q)
        if kept is None:
            kept = np.empty((K,) + rows.shape[1:], rows.dtype)
        kept[start:start + len(rows)] = rows
    return kept


def epsilon_sweep(scen: RareEventSpec, model: NoiseModel, eps_list,
                  K: int, estimators, seed: int,
                  forcing_pinned: np.ndarray | None = None,
                  forcing_ball: np.ndarray | None = None):
    """Run the requested estimators at every eps; one report per pair.

    estimators is a subset of ESTIMATORS; the importance samplers need
    their forcing passed in (pinned-optimum h for is0, ball-optimum h for
    is-delta).  Each eps gets an independent run key, so
    adding grid points never perturbs existing ones.  Returns a list of
    (eps, estimator, EstimatorReport) in sweep order.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    estimators = list(estimators)
    if not estimators:
        raise ValueError("estimators must be nonempty")
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {name!r}")
    if "is0" in estimators and forcing_pinned is None:
        raise ValueError("estimator is0 requires forcing_pinned")
    if "is-delta" in estimators and forcing_ball is None:
        raise ValueError("estimator is-delta requires forcing_ball")

    forcing = {"mc": None, "is0": forcing_pinned, "is-delta": forcing_ball}
    out = []
    for i, eps in enumerate(eps_list):
        reps = run_estimators(scen, model, eps, K,
                              [forcing[name] for name in estimators], seed,
                              run_key=i)
        out.extend((eps, name, rep) for name, rep in zip(estimators, reps))
    return out
