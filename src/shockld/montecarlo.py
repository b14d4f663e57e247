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
sample, with no difference of two large square sums to cancel digits, and
that dot product does not depend on eps.

One trajectory kernel, _simulate, serves every caller.  It takes a run key,
a list of eps and forcings (None for the untilted scheme), and forks one
worker process per usable CPU, at most one per chunk.  Per chunk of the K
samples, handed out on demand, a worker draws the normals once, takes each
tilted forcing's dot products once and copies the normals cells-major once;
then per eps it colors them, steps one batch per forcing and reduces its
terminal slices and log-weights with the caller's function.  The results
come over its pipe in completion order, and consumers place each by its
chunk.  run_estimators has the workers reduce each chunk to the moments of
its values, sample_terminal_states to keep's rows; epsilon_sweep is one
call with all its eps, so mc, is0 and is-delta at every eps share the draws.
Processes, not threads: the draws' per-sample Python holds the GIL.

Each batch is held cells-major, as an (M, B) array whose contiguous axis runs
over the samples, so each elementwise pass of a step is one long loop, with
the per-element arithmetic and order of a row-major (B, M) batch.  The
coloring is Phi's AR(1) recurrence, x_0 = sigma z_0, x_i = rho x_{i-1} +
sigma s z_i, with sqrt(dt/dx) eps folded into the pass that scales the
cells-major draws.  No BLAS is called, and every value is computed per
sample, so it keeps its bits at any thread setting, chunk size, block size
or worker count.  Each chunk's terminal slices are reduced in its worker, so
no (K, M) array exists unless the caller asks for the slices themselves.
A report's moments are summed per chunk of _CHUNK samples, then over the
chunks in index order: hit counts and basic-MC reports (sums of 0 and 1 are
exact) keep their bits at any chunk size, while the tilted reports' last
bits depend on _CHUNK, and no report depends on the worker count.

Seeding contract: a 64-bit root seed expands into one independent stream per
sample index (counter-based spawn keys), so the draws of sample k never
depend on K, on chunking, on the eps, or on which estimators consume them.
Statistics reduce in deterministic index order.  sample_stream defines
sample k's stream; the kernel derives the same PCG64 states for a whole
chunk in one vectorized pass and draws each sample's normals from them.
"""

from __future__ import annotations

import math
import operator
import os
import signal
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import Pipe, wait

import numpy as np

from .fluxes import drift, pin_edges
from .noise import NoiseModel, ar1_accumulate, unwhiten
from .optimize import RareEventSpec, boundary_edges, initial_values, target_values

__all__ = ["ESTIMATORS", "EstimatorReport", "run_basic_mc", "run_estimators",
           "run_importance_sampling", "epsilon_sweep",
           "sample_terminal_states", "sample_stream", "kernel_workers"]

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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):  # not on macOS
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def kernel_workers(K: int) -> int:
    """Worker processes the kernel forks for K samples: one per usable CPU,
    at most one per chunk."""
    return min(_cpus(), -(-K // _CHUNK))


def _worker(conn, scen: RareEventSpec, model: NoiseModel, K: int, seed: int,
            run_key: int, eps_list, forcings, reduce) -> None:
    """Run the kernel on the chunks the caller sends, until it closes the pipe.

    An item is the first sample of a chunk of the K samples.  Per item, in
    buffers allocated once: _normals draws z (B, N, M-2) once, each tilted
    forcing's dot products z.h are taken once, and one transposing pass over
    blocks of _BLOCK samples copies z into zT (N, M-2, B); then per eps,
    noise.ar1_accumulate colors dW = zT sqrt(dt/dx) eps diag(Phi), in z's
    spent buffer, and each forcing's batch qT (M, B) is stepped, drift
    writing into inc (M-2, B) through the Fortran-ordered views qT.T and
    inc.T.  Per eps and forcing, reduce gets a fresh C-ordered copy (B, M)
    of the terminal slices and the log-weights.  The chunk's message is the
    list, per eps, of the lists of what it returned, or the exception on
    failure.  Touching only numpy and the pipe, the worker cannot block on a
    lock another thread of the caller held at the fork.
    """
    try:
        grid, wave = model.grid, scen.wave
        N, M, dt, n_int = grid.N, grid.M, grid.dt, grid.M - 2
        q0, edges = initial_values(scen, grid), boundary_edges(scen, grid)
        root, phi = math.sqrt(dt / grid.dx), model.Phi.diagonal()[:, None]
        tilts = [None if h is None else unwhiten(model, h)[:, :, None]
                 for h in forcings]
        size = min(K, _CHUNK)
        z_mem, dW_mem, q_mem, inc_mem = (np.empty(n * size) for n in
                                         (N * n_int, N * n_int, M, n_int))
        while True:
            start = conn.recv()
            B = min(K - start, _CHUNK)
            z = _normals(z_mem[:N * n_int * B].reshape(B, N, n_int), seed,
                         run_key, start)
            dots = [None if h is None else np.einsum("...ij,ij->...", z, h)
                    for h in forcings]
            zT = dW_mem[:N * n_int * B].reshape(N, n_int, B)
            for lo in range(0, B, _BLOCK):
                zT[:, :, lo:lo + _BLOCK] = z[lo:lo + _BLOCK].transpose(1, 2, 0)
            dW = z_mem[:N * n_int * B].reshape(N, n_int, B)  # z is spent
            qT = q_mem[:M * B].reshape(M, B)
            inc = inc_mem[:n_int * B].reshape(n_int, B)
            results = []
            for eps in eps_list:
                np.multiply(zT, (root * eps) * phi, out=dW)
                ar1_accumulate(model, dW.transpose(0, 2, 1))
                row = []
                for h, tilt, zh in zip(forcings, tilts, dots):
                    logw = (None if h is None
                            else _log_weights(zh, h, eps, grid.dx / dt))
                    qT[...] = q0[:, None]
                    for n in range(N):
                        drift(qT.T, grid, wave, out=inc.T)
                        inc *= dt
                        inc += dW[n]
                        if tilt is not None:
                            inc += tilt[n]
                        qT[1:-1] += inc
                        pin_edges(qT.T, edges[n + 1])
                    row.append(reduce(qT.T.copy(), logw))
                results.append(row)
            conn.send(results)
    except (EOFError, ConnectionError):
        pass
    except Exception as err:
        try:
            conn.send(err)
        except Exception:  # not picklable: keep its type's name and message
            conn.send(RuntimeError(f"{type(err).__name__}: {err}"))


def _report(moments, K: int, eps: float) -> EstimatorReport:
    """The report of K per-sample values p from their moments (hits, sum p,
    sum p^2)."""
    hits, total, squares = moments
    mean = float(total) / K
    var = float(squares) / K - mean * mean
    std = math.sqrt(max(var, 0.0))
    half = 2.6 * std / math.sqrt(K)
    rel = std / mean if mean > 0 else float("inf")
    return EstimatorReport(
        estimate=mean, std=std, ci_low=mean - half, ci_high=mean + half,
        relative_error=rel, K=K, epsilon=float(eps), hits=int(hits),
        flagged_saturated=rel >= 0.9 * math.sqrt(K))


def _log_weights(zh: np.ndarray, h: np.ndarray, eps: float,
                 dx_dt: float) -> np.ndarray:
    """Gaussian log-likelihood ratio log dP/dQ of tilted unit-normal draws.

    zh holds the dot products z.h, one per sample, of the unit normals z
    (..., N, M-2) whose whitened increments are sqrt(dt/dx) z with the
    forcing h (N, M-2), and dx_dt is the ratio dx/dt.  In Girsanov's form,
    log w = -I(h)/eps^2 - (sqrt(dx/dt)/eps) z.h with I(h) = (dx/2dt) |h|^2:
    one dot product per sample, shared by every eps.  The kernel takes it
    with np.einsum("...ij,ij->...", z, h), which calls no BLAS, so no
    thread setting changes a bit of it.
    """
    action = 0.5 * dx_dt * np.sum(h * h)
    return -action / (eps * eps) - math.sqrt(dx_dt) / eps * zh


def _checked(K: int, eps_list, forcings, model: NoiseModel) -> list:
    """Forcings as (N, M-2) float arrays; refuses bad K, eps and forcings."""
    if K < 1:
        raise ValueError("K must be at least 1")
    shape = (model.grid.N, model.grid.M - 2)
    forcings = [None if h is None else np.asarray(h, dtype=float)
                for h in forcings]
    if not forcings:
        raise ValueError("forcings must be nonempty")
    for h in (h for h in forcings if h is not None):
        if h.shape != shape:
            raise ValueError(f"forcing must have shape (N, M-2) = {shape}, "
                             f"got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("forcing entries must be finite")
    for eps in eps_list:
        if not 0 <= eps < np.inf:
            raise ValueError(f"eps must be nonnegative and finite, got {eps}")
        if eps <= 0 and any(h is not None for h in forcings):
            raise ValueError("importance sampling requires eps > 0")
    return forcings


def _simulate(scen: RareEventSpec, model: NoiseModel, K: int, seed: int,
              run_key: int, eps_list, forcings, reduce):
    """Evolve K trajectories per eps and forcing, from one draw per sample.

    Sample k's normals come from stream (seed, run_key, k), and every eps
    and forcing steps them.  forcings are checked (N, M-2) arrays or None
    (untilted).  reduce(q, logw) maps a forcing's (B, M) terminal slices,
    which it may overwrite, and (B,) log-weights (None if untilted) to a
    picklable result; it runs in the workers (_worker).  Chunks are dealt
    to the W = kernel_workers(K) forked workers two at a time, round-robin;
    a worker that hands one over gets the next at once.  This yields per
    chunk, in completion order, (start, results): its first sample and, per
    eps, one result per forcing.  Worker exceptions surface with type and
    message; every worker is killed and reaped however this ends.
    """
    todo = deque(range(0, K, _CHUNK))
    W = kernel_workers(K)
    import numpy.random  # noqa: F401  (lazy in numpy: load it once, here)
    pids, flight = [], {}  # flight: each worker's pipe -> its chunks, in order

    def deal(conn):  # the next chunk, if any, to conn
        if todo:
            start = todo.popleft()
            flight[conn].append(start)
            with suppress(ConnectionError):  # a stopped worker's pipe says why
                conn.send(start)

    try:
        for _ in range(W):
            conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:  # a worker: never returns into the caller's code
                try:
                    for c in [*flight, conn]:
                        c.close()
                    # freeing a 16 MB mapped block raises glibc's mmap and
                    # trim thresholds, so the drift's temporaries stay in the
                    # heap rather than being faulted in again at every step
                    np.empty(1 << 21)
                    _worker(child_conn, scen, model, K, seed, run_key,
                            eps_list, forcings, reduce)
                finally:
                    os._exit(0)
            child_conn.close()
            pids.append(pid)
            flight[conn] = deque()
            deal(conn)
        for conn in flight:
            deal(conn)
        while busy := [conn for conn, starts in flight.items() if starts]:
            for conn in wait(busy):
                try:
                    results = conn.recv()
                except (EOFError, ConnectionError):
                    raise RuntimeError("a kernel worker exited before "
                                       "finishing its chunks") from None
                if isinstance(results, Exception):
                    raise results
                start = flight[conn].popleft()
                deal(conn)
                yield start, results
    finally:
        for conn in flight:
            conn.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # done with its chunks, or abandoned
            os.waitpid(pid, 0)


def _score(scen: RareEventSpec, model: NoiseModel, K: int, seed: int,
           run_key: int, eps_list, forcings) -> list[list[EstimatorReport]]:
    """run_estimators at each eps of eps_list, in one kernel call.

    The workers reduce each chunk to moments (hits, sum p, sum p^2) per eps
    and forcing; they are filed by chunk and summed over the chunks in index
    order, so no report depends on the worker count or completion order.
    """
    if not scen.delta > 0:
        raise ValueError("the estimators need scenario delta > 0: the event "
                         "dx |Q^N - target|^2 <= 0 has probability 0")
    forcings = _checked(K, eps_list, forcings, model)
    target, dx, delta_sq = (target_values(scen, model.grid), model.grid.dx,
                            scen.delta ** 2)

    def reduce(q, logw):  # in a worker: moments of the event
        # dx |q - target|^2 <= delta^2; q is C-ordered, so the distance sums
        # keep the summation order of a row-major batch
        q -= target
        q *= q
        ind = dx * np.sum(q, axis=1) <= delta_sq
        hits = int(np.count_nonzero(ind))
        if logw is None:  # values 0 and 1: both sums are the hit count
            return hits, hits, hits
        p = ind * np.exp(logw)
        total = float(np.sum(p))
        p *= p
        return hits, total, float(np.sum(p))

    moments = np.empty((-(-K // _CHUNK), len(eps_list), len(forcings), 3))
    for start, results in _simulate(scen, model, K, seed, run_key, eps_list,
                                    forcings, reduce):
        moments[start // _CHUNK] = results
    total = np.zeros(moments.shape[1:])
    for chunk in moments:
        total += chunk
    return [[_report(m, K, eps) for m in row]
            for eps, row in zip(eps_list, total.tolist())]


def run_estimators(scen: RareEventSpec, model: NoiseModel, eps: float, K: int,
                   forcings, seed: int, run_key: int = 0) -> list[EstimatorReport]:
    """One report per forcing (None: basic MC), all from the same draws.

    Each report equals what run_basic_mc or run_importance_sampling returns
    for that forcing alone with the same seed and run key.  A sample's value
    is its event indicator, times its likelihood weight under a forcing.
    Raises ValueError when scen.delta = 0: the event
    dx |Q^N - target|^2 <= 0 has probability 0.
    """
    return _score(scen, model, K, seed, run_key, [eps], forcings)[0]


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
    samples; without it the slices themselves are returned.  keep runs in
    the worker processes, so it must depend on the slices alone, and its
    rows must be picklable; one that reduces each slice to a few numbers
    keeps memory and messages at O(K) of them.  Its exceptions surface with
    type and message, as other worker failures do.
    """
    forcings, kept = _checked(K, [eps], [forcing], model), None
    for start, [[rows]] in _simulate(
            scen, model, K, seed, run_key, [eps], forcings,
            lambda q, logw: q if keep is None else keep(q)):
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
    is-delta).  eps_list lists distinct values.  The points share their
    draws: every eps steps sample k's normals of run key 0, so point i
    equals run_estimators at its eps with the same seed and run key 0, bit
    for bit, and adding grid points never perturbs existing ones.  Each
    point's estimate is unbiased with its standalone variance, so per-point
    confidence intervals are unchanged; the errors of different points are
    positively correlated (common random numbers), which makes differences
    and slopes across eps more precise, and disjoint intervals stay
    conservative evidence of a difference.  Every eps is checked, then all
    of them run in one kernel call over the chunks of the K samples.
    Returns a list of (eps, estimator, EstimatorReport) in sweep order.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    for i, eps in enumerate(eps_list):
        # on shared draws a repeated eps would step identical batches twice
        if eps in eps_list[:i]:
            raise ValueError(f"repeated eps: {eps}")
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
    reports = _score(scen, model, K, seed, 0, eps_list,
                     [forcing[name] for name in estimators])
    return [(eps, name, rep) for eps, reps in zip(eps_list, reports)
            for name, rep in zip(estimators, reps)]
