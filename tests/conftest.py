"""Replays the acceptance criterion lines once capture is released, and
reports the package's size in lines and the run's Python version, BLAS
thread setting, usable CPUs and numpy and scipy versions, on which
criterion 9's timings and the thread-count test of the training gradient
depend, and whether ``graph.map_scenes`` can fork here: where it cannot,
every test that needs two CPUs skips."""

import os
import platform
import sys
from pathlib import Path

import numpy
import scipy
from testutil import CAN_FORK

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "depthcrf"


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORTED", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
    counts = {path.stem: path.read_bytes().count(b"\n") for path in sorted(PACKAGE.glob("*.py"))}
    modules = ", ".join(f"{name} {count}" for name, count in counts.items())
    terminalreporter.section("size and environment")
    terminalreporter.write_line(f"src/depthcrf: {sum(counts.values())} lines ({modules})")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    terminalreporter.write_line(
        f"environment: Python {platform.python_version()}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"{cpus} usable CPUs, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"map_scenes {'can' if CAN_FORK else 'cannot'} fork")
