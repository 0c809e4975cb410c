"""The benchmark's view of the package still resolves and runs.

``perfbench/tracing.py`` wraps package functions that it names by module
and attribute, and ``perfbench/jobs.py`` calls the package as the CLI
does.  A rename or deletion that breaks either fails here, in the unit
suite, and not first in a benchmark run.  Both files are only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_module(name: str):
    return importlib.import_module(f"toeplitz_spectra.{name}")


workloads = _load("workloads")


def test_tracing_targets_resolve():
    tracing = _load("tracing")
    for mod, fname in tracing.SPANS + tracing.COUNTS:
        assert callable(getattr(_package_module(mod), fname)), (mod, fname)
    for mod, cls, meth in tracing.METHOD_SPANS + tracing.METHOD_COUNTS:
        assert callable(getattr(getattr(_package_module(mod), cls), meth)), \
            (mod, cls, meth)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_job_runs(workload):
    jobs = _load("jobs")
    out = jobs.RUNNERS[workload](workloads.warmup_job(workload), False)
    assert isinstance(out, dict) and out
