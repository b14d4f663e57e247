"""Regenerate the stored forcings of the estimator-sweep workload.

    python3 perfbench/make_forcings.py && git diff --exit-code perfbench/inputs

Runs ``shockld optimize`` on the benchmark configuration with delta = 0 and
delta = sqrt(0.5) (BLAS pinned to one thread, as in run.py) and keeps each
run's forcing.csv, written by the CLI at 17 significant digits, together with
the I* of optimize_summary.csv.  At the commit that introduced the benchmark
this reproduces perfbench/inputs/ byte for byte; an optimizer change will
not, which is why the workload reads the stored files instead.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import (DELTA, INPUTS, config_doc, read_rows,  # noqa: E402
                       run_cli, write_config)


def generate(work: str) -> dict[str, bytes]:
    files, record = {}, {}
    for name, delta in (("pinned", 0.0), ("ball", DELTA)):
        cfg_path = os.path.join(work, f"{name}.json")
        write_config(cfg_path, config_doc(0, delta))
        out = os.path.join(work, name)
        if run_cli(["optimize", "--config", cfg_path, "--out", out]) != 0:
            sys.exit(f"make_forcings: optimize ({name}) failed")
        row = read_rows(os.path.join(out, "optimize_summary.csv"))[0]
        record[name] = {"I_star": float(row["I_star"]),
                        "iterations": int(row["iterations"]),
                        "converged": row["converged"] == "true"}
        with open(os.path.join(out, "forcing.csv"), "rb") as fh:
            files[f"forcing_{name}.csv"] = fh.read()
    files["forcings.json"] = (json.dumps(record, indent=2, sort_keys=True)
                              + "\n").encode()
    return files


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", f"make_forcings-{os.getpid()}")
    os.makedirs(work)
    try:
        files = generate(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(INPUTS, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(INPUTS, name), "wb") as fh:
            fh.write(data)
    print(f"wrote {sorted(files)} to {INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
