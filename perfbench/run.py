"""shockld benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload optimal-paths --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; shockld is imported from its ``src``
directory and nowhere else.  Workloads are defined in workloads.py, the
traced run's spans in tracing.py; perfbench/README.md explains the metrics.

--trace 0 reports the end-to-end metrics: wall_s (median time of one pass of
the workload), setup_s (median over fresh processes of imports, config and
input generation, noise-model build and stored-input loading) and
peak_rss_mb (this process).  --trace 1 runs the same passes with every
shockld layer boundary traced and reports the per-layer metrics instead;
its trace.wall_s against wall_s of an untraced run is the tracing overhead.
A run repeats passes while another one fits into --seconds (at least one);
every pass is checked, and the last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# pinned before numpy is imported, here and in the set-up probes
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def import_shockld():
    """Import shockld from this checkout's src, or exit nonzero."""
    if not os.path.isfile(os.path.join(SRC, "shockld", "__init__.py")):
        sys.exit(f"perfbench: no shockld package under {SRC}")
    sys.path.insert(0, SRC)
    import shockld.cli  # noqa: F401  (pulls in every layer)
    if not os.path.abspath(shockld.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: shockld imported from {shockld.cli.__file__}")


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            **{v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def probe_setup(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("optimal-paths", "estimator-sweep", "center-law"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_shockld()
    import numpy as np
    import scipy

    sys.path.insert(0, HERE)
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, EstimatorSweep

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.setup_probe:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0

        setup = [] if args.trace else [probe_setup(args)
                                       for _ in range(SETUP_PROBES)]
        workload.setup()
        attempted = failed = 0
        notes, digests, walls, layers = [], [], [], []
        start = time.perf_counter()
        while True:
            tracer = Tracer()
            with tracer.patched() if args.trace else contextlib.nullcontext():
                if args.trace:
                    workload.setup()  # so that set-up layers show in the trace
                t = time.perf_counter()
                result = workload.run_pass()
                walls.append(time.perf_counter() - t)
            a, f, n = workload.check(result)
            attempted, failed = attempted + a, failed + f
            notes.extend(n)
            if isinstance(workload, EstimatorSweep):
                digests.append(EstimatorSweep.digest(result))
            if args.trace:
                layers.append(layer_metrics(tracer.spans,
                                            workload.model.grid.N))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        wall = (statistics.median(walls), "s")
        if args.trace:
            metrics = {k: (statistics.median(m[k][0] for m in layers), u)
                       for k, (_, u) in layers[0].items()}
            metrics["trace.wall_s"] = wall
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {"wall_s": wall,
                       "setup_s": (statistics.median(setup), "s"),
                       "peak_rss_mb": (rss / 1024.0, "MB")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it

    env = environment(np, scipy)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} passes of " + ", ".join(f"{w:.3f}" for w in walls)
          + " s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for digest in dict.fromkeys(digests):
        print(f"  reports digest (sha256, recorded only): {digest}")
    for note in notes:
        print(f"  check: {note}")
    correct = failed == 0
    if not correct:
        print(f"perfbench: {failed} of {attempted} operations failed their "
              "output checks", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
