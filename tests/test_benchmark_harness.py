"""The benchmark harness runs against the package as it stands.

perfbench/workloads.py and perfbench/tracing.py are imported unchanged, so a
change to a name or signature they use fails here and not only in a
benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_every_traced_name_resolves():
    # a traced run (run.py --trace 1) patches each (module, attribute) of
    # TARGETS where its caller looks it up; a renamed one would fail there
    for module, attr, *_ in load("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_optimal_paths_pass_checks(workloads, tmp_path):
    workload = workloads.WORKLOADS["optimal-paths"](1, str(tmp_path))
    workload.setup()
    assert workload.check(workload.run_pass()) == (2, 0, [])


def test_estimator_sweep_pass_checks(workloads, tmp_path):
    # one pass: six eps times three estimators, every output check passing.
    # Seed 1 is fixed because the "mc saturated at eps 0.05" check is
    # statistical: at some seeds (26) basic MC gets a hit there on correct
    # code.
    workload = workloads.WORKLOADS["estimator-sweep"](1, str(tmp_path))
    workload.setup()
    assert workload.check(workload.run_pass()) == (18, 0, [])


@pytest.mark.parametrize("name", ["estimator-sweep", "center-law"])
def test_setup(workloads, tmp_path, name):
    workloads.WORKLOADS[name](1, str(tmp_path)).setup()
