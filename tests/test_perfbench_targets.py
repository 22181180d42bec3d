"""The benchmark still runs against the package.

``perfbench`` measures the package from outside by rebinding the functions
that ``perfbench/layers.py`` names, and it skips a name it cannot find, so
renaming a function would silently drop its per-layer metric.  Its workloads
also call the package's configuration and training API directly, so a
renamed field they reach would otherwise surface only when the benchmark
runs.  These tests resolve the trace targets without installing any wrapper,
and run each workload once, with the output checks a benchmark run applies.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import depthcrf.cli  # noqa: E402,F401  (imports every module the targets live in)
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_trace_target_resolves():
    instrumentation = spans.Instrumentation(spans.Tracer(), "depthcrf", layers.TARGETS)
    assert instrumentation.absent == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_once_and_reproduces_its_reference(tmp_path, name):
    reference = run.load_reference()
    seed = reference["default_seed"]
    workload = workloads.WORKLOADS[name](seed)
    workload.setup(tmp_path)
    assert workload.check(0, workload.op(0)) is None
    outputs, faults = workload.finish()
    assert faults == [] and outputs
    assert run.reference_faults(reference, name, seed, outputs) == []
