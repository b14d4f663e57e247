"""Rare-event probability estimators: basic and importance-sampling Monte Carlo.

Both estimators evolve K independent trajectories of the stochastic Euler
scheme and score the terminal slice against the target ball

    event  <=>  dx sum_m (Q_m^N - target_m)^2 <= delta^2.

Importance sampling tilts the noise mean along a precomputed forcing h^n
(from an optimized path), evolving

    Q^{n+1} = Q^n + dt b(Q^n) + (Phi h^n) + eps dW~^n,

and reweights each sample by the exact Gaussian likelihood ratio.  With the
whitened draws Phi^{-1} dW~^n = sqrt(dt/dx) z^n, z unit normals, it is
Girsanov's form

    log w = -I(h)/eps^2 - (sqrt(dx/dt)/eps) sum_n z^n . h^n,
    I(h) = (dx / 2 dt) sum_n ||h^n||^2,

so that E[indicator * w] is the original-event probability for any forcing.
_log_weights is the one implementation of this weight: one dot product per
sample, with no difference of two large square sums to cancel digits.

One trajectory kernel, _simulate, serves every caller.  It takes a sequence
of forcings (None for the untilted scheme) and works through the samples in
chunks: per chunk it colors the normals once, weighs them under each tilted
forcing, steps one trajectory batch per forcing from those increments and
yields the terminal slices with their log-weights.  run_estimators scores
the slices (indicator times weight), sample_terminal_states stores them.
An epsilon sweep therefore runs mc, is0 and is-delta at one eps from one set
of draws.

The kernel runs in worker processes forked per call, one per usable CPU:
each draws, colors, weighs and steps its share of the chunks and hands the
results over in shared memory; the caller only scores them.  In threads,
the draws' per-sample Python would take the GIL hundreds of times a chunk.

Each trajectory batch is held cells-major, as an (M, B) array whose
contiguous axis runs over the samples, so each elementwise pass of a step
(drift, increments, boundary cells) is one long loop rather than B short
ones over strided row slices.  The per-element arithmetic and its order are
those of a row-major (B, M) batch, so every value is bit-identical to it.
The coloring is Phi's AR(1) recurrence, x_0 = sigma z_0, x_i = rho x_{i-1} +
sigma s z_i, with sqrt(dt/dx) eps folded into the per-cell factors of the one
pass that writes the draws cells-major, as (N, M-2, B), so each step adds one
contiguous slice.  Neither the coloring nor the weights call BLAS, so no
thread setting moves a bit of the output.  Every value is computed per
sample, so it keeps its bits at any chunk size, block size or worker count.
Callers reduce each chunk's terminal slices before moving to the next, so
no (K, M) array exists unless the caller asks for the slices themselves.

Seeding contract: a 64-bit root seed expands into one independent stream per
sample index (counter-based spawn keys), so the draws of sample k never
depend on K, on chunking, or on which estimators consume them.  Statistics
reduce in deterministic index order.  sample_stream defines sample k's
stream; the kernel derives the same PCG64 states for a whole chunk in one
vectorized pass and draws each sample's normals from them.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
from dataclasses import dataclass
from multiprocessing.connection import Pipe

import numpy as np

from .fluxes import drift, pin_edges
from .noise import NoiseModel, ar1_accumulate, unwhiten
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
    "kernel_workers",
]

ESTIMATORS = ("mc", "is0", "is-delta")  # names of epsilon_sweep's estimators

_DOMAIN_MC = 1  # spawn-key namespace for trajectory noise

_CHUNK = 512
_BLOCK = 64  # samples per pass of the transposing copy

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


def _shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float array in anonymous memory shared across fork."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):  # not on macOS
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def kernel_workers(K: int) -> int:
    """Worker processes the kernel forks for K samples: one per usable CPU,
    at most one per chunk."""
    return min(_cpus(), -(-K // _CHUNK))


def _worker(conn, slots, first: int, step: int, scen: RareEventSpec,
            model: NoiseModel, eps: float, K: int, seed: int, run_key: int,
            forcings) -> None:
    """Run the kernel on chunks first, first + step, ... of the K samples.

    Runs in a forked worker, in buffers of its own allocated once and viewed
    at each chunk's size B.  Per chunk, _normals draws the unit normals z
    (B, N, M-2); one transposing pass over blocks of _BLOCK samples writes
    them, scaled per cell by sqrt(dt/dx) eps diag(Phi), into dW (N, M-2, B),
    which noise.ar1_accumulate colors in place; _log_weights weighs z under
    each tilted forcing; and each forcing's batch qT (M, B) is stepped, drift
    writing into the increment inc (M-2, B) through the Fortran-ordered
    views qT.T and inc.T.  The terminal slices (F, B, M) and log-weights
    (F, B) are then copied into slots[j % 2], j counting the worker's
    chunks, and None is sent; before writing a slot the second time the
    worker waits for the caller to release it.  A failure sends the
    exception and ends the loop; a closed pipe means the caller has stopped
    listening.  The worker touches only numpy, the pipe and its slots, so no
    lock held by another thread of the caller at the fork can block it.
    """
    try:
        grid, wave = model.grid, scen.wave
        N, M, dt, n_int = grid.N, grid.M, grid.dt, grid.M - 2
        q0, edges = initial_values(scen, grid), boundary_edges(scen, grid)
        scale = (math.sqrt(dt / grid.dx) * eps) * model.Phi.diagonal()[:, None]
        tilts = [None if h is None else unwhiten(model, h)[:, :, None]
                 for h in forcings]
        size = min(K, _CHUNK)
        z_mem, dW_mem, q_mem, inc_mem = (np.empty(n * size) for n in
                                         (N * n_int, N * n_int, M, n_int))
        terms = np.empty((len(forcings), size, M))
        logw = np.empty((len(forcings), size))
        for j, start in enumerate(range(first * _CHUNK, K, step * _CHUNK)):
            B = min(K - start, _CHUNK)
            z = _normals(z_mem[:N * n_int * B].reshape(B, N, n_int), seed,
                         run_key, start)
            dW = dW_mem[:N * n_int * B].reshape(N, n_int, B)
            qT = q_mem[:M * B].reshape(M, B)
            inc = inc_mem[:n_int * B].reshape(n_int, B)
            for lo in range(0, B, _BLOCK):
                np.multiply(z[lo:lo + _BLOCK].transpose(1, 2, 0), scale,
                            out=dW[:, :, lo:lo + _BLOCK])
            ar1_accumulate(model, dW.transpose(0, 2, 1))
            for i, (h, tilt) in enumerate(zip(forcings, tilts)):
                if h is not None:
                    logw[i, :B] = _log_weights(z, h, eps, grid.dx / dt)
                qT[...] = q0[:, None]
                for n in range(N):
                    drift(qT.T, grid, wave, out=inc.T)
                    inc *= dt
                    inc += dW[n]
                    if tilt is not None:
                        inc += tilt[n]
                    qT[1:-1] += inc
                    pin_edges(qT.T, edges[n + 1])
                terms[i, :B] = qT.T
            if j >= 2:
                conn.recv()
            for slot, result in zip(slots[j % 2], (terms, logw)):
                slot[:, :B] = result[:, :B]
            conn.send(None)
    except (EOFError, ConnectionError):
        pass
    except Exception as err:
        try:
            conn.send(err)
        except Exception:  # not picklable: keep its type's name and message
            conn.send(RuntimeError(f"{type(err).__name__}: {err}"))


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


def _log_weights(z: np.ndarray, h: np.ndarray, eps: float,
                 dx_dt: float) -> np.ndarray:
    """Gaussian log-likelihood ratio log dP/dQ of tilted unit-normal draws.

    z holds the unit normals (..., N, M-2) whose whitened increments are
    sqrt(dt/dx) z, h the forcing (N, M-2) and dx_dt the ratio dx/dt.  In
    Girsanov's form, log w = -I(h)/eps^2 - (sqrt(dx/dt)/eps) sum z.h with
    I(h) = (dx/2dt) |h|^2: one dot product per sample (einsum, which calls
    no BLAS, so no thread setting changes a bit of it).
    """
    action = 0.5 * dx_dt * np.sum(h * h)
    return (-action / (eps * eps)
            - math.sqrt(dx_dt) / eps * np.einsum("...ij,ij->...", z, h))


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
    scheme.  W = kernel_workers(K) workers, forked here, run _worker: worker
    w takes chunks w, w + W, ... of _CHUNK samples.  This process takes the
    chunks in index order and yields, per forcing, (i, start, logw, q): the
    forcing's index, the chunk's first sample, its (B,) log-weights (None
    for the untilted scheme) and its C-ordered (B, M) terminal slices.  Each
    worker owns one pipe, on which it announces its chunks, and two result
    slots, shared mappings allocated before the forks; a slot is released
    once this process has moved past its chunk.  logw and q are views of
    the slot: a consumer may overwrite them, but must not keep them past its
    loop iteration.  An exception raised in a worker surfaces here with its
    type and message.  Every worker is killed and reaped whether the run
    completes, fails or is abandoned.
    """
    W = kernel_workers(K)
    n_chunks = -(-K // _CHUNK)
    shape = (len(forcings), min(K, _CHUNK))
    slots = [[(_shared_array(shape + (model.grid.M,)), _shared_array(shape))
              for _ in range(2)] for _ in range(W)]
    import numpy.random  # noqa: F401  (lazy in numpy: load it once, here)
    conns, pids = [], []
    try:
        for w in range(W):
            conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:  # worker w: never returns into the caller's code
                try:
                    for c in conns + [conn]:
                        c.close()
                    # freeing a 16 MB mapped block raises glibc's mmap and
                    # trim thresholds, so the drift's temporaries stay in the
                    # heap rather than being faulted in again at every step
                    np.empty(1 << 21)
                    _worker(child_conn, slots[w], w, W, scen, model, eps, K,
                            seed, run_key, forcings)
                finally:
                    os._exit(0)
            child_conn.close()
            conns.append(conn)
            pids.append(pid)
        for c in range(n_chunks):
            conn = conns[c % W]
            try:
                failure = conn.recv()
            except (EOFError, ConnectionError):
                raise RuntimeError("a kernel worker exited before "
                                   "finishing its chunks") from None
            if failure is not None:
                raise failure
            start = c * _CHUNK
            B = min(K - start, _CHUNK)
            terms, logw = slots[c % W][(c // W) % 2]
            for i, h in enumerate(forcings):
                yield i, start, None if h is None else logw[i, :B], terms[i, :B]
            if c + 2 * W < n_chunks:
                try:  # the slot is free for the worker's chunk after next
                    conn.send(None)
                except ConnectionError:
                    pass  # the worker has stopped; the next recv says why
    finally:
        for conn in conns:
            conn.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # done with its chunks, or abandoned
            os.waitpid(pid, 0)


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

    p = np.empty((len(forcings), K))
    hits = [0] * len(forcings)
    for i, start, logw, q in _simulate(scen, model, eps, K, seed, run_key,
                                       forcings):
        ind = _inside(q, target, grid.dx, delta_sq)
        hits[i] += int(np.count_nonzero(ind))
        p[i, start:start + len(q)] = ind if logw is None else ind * np.exp(logw)
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

    estimators lists distinct names of ESTIMATORS; the importance samplers need
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
    for i, name in enumerate(estimators):
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {name!r}")
        if name in estimators[:i]:
            raise ValueError(f"repeated estimator: {name!r}")
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
