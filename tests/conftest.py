"""Replays the acceptance criterion lines once capture is released, and
reports the package's size in lines and the run's Python version, BLAS
thread setting, usable CPUs and numpy and scipy versions, on which
criterion 9's timings and the thread-count test of the training gradient
depend, and whether ``graph.map_scenes`` can fork here: where it cannot,
every test that needs two CPUs skips.  It also reports what ``import
depthcrf.cli`` costs a fresh interpreter: its peak RSS, its wall time and
the scipy subpackages it loads."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy
from testutil import CAN_FORK

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "depthcrf"
# Linux carries a process's high-water RSS across exec, so a child of this
# process would report pytest's peak: a bare interpreter starts the probe
# and passes on its ru_maxrss (KiB), wall time and loaded scipy subpackages.
IMPORT_PROBE = """
import os, subprocess, sys, time
probe = ("import sys, depthcrf.cli; print(*sorted({name.split('.')[1] for name in sys.modules"
         " if name.startswith('scipy.') and name[6] != '_'}))")
started = time.perf_counter()
with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True) as child:
    modules = child.stdout.read().split()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, time.perf_counter() - started, *modules)
"""


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
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        terminalreporter.write_line(f"import depthcrf.cli: probe failed: {done.stderr.strip()}")
        return
    max_rss, seconds, *modules = done.stdout.split()
    terminalreporter.write_line(
        f"import depthcrf.cli: peak RSS {int(max_rss) / 1024:.1f} MiB, {float(seconds):.3f} s "
        f"wall, scipy subpackages: {' '.join(modules) or 'none'}")
