"""Replays the acceptance criterion lines once capture is released, and
reports the package's size in lines (raw, and code lines once blank lines,
comments and docstrings are dropped) and the run's Python version, BLAS
thread setting, usable CPUs and numpy and scipy versions, on which
criterion 9's timings and the thread-count test of the training gradient
depend, and whether ``graph.map_scenes`` can fork here: where it cannot,
every test that needs two CPUs skips.  It also reports the traced memory
of ``graph.build_graph`` at 2000 superpixels (its peak, and what the built
graph still holds), and what ``import depthcrf.cli`` costs a fresh
interpreter: its peak RSS, its wall time and the scipy subpackages it
loads."""

import ast
import io
import os
import platform
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy
import scipy
from testutil import CAN_FORK, graph_memory

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "depthcrf"
# Linux carries a process's high-water RSS across exec, so a child of this
# process would report pytest's peak: a bare interpreter starts the probe
# and passes on its ru_maxrss (KiB), wall time and loaded scipy subpackages
# (a subpackage is a package: its module has __path__; scipy.version has not).
IMPORT_PROBE = """
import os, subprocess, sys, time
probe = ("import sys, depthcrf.cli; print(*sorted(name[6:] for name, module in sys.modules.items()"
         " if name.startswith('scipy.') and name.count('.') == 1 and name[6] != '_'"
         " and hasattr(module, '__path__')))")
started = time.perf_counter()
with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True) as child:
    modules = child.stdout.read().split()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, time.perf_counter() - started, *modules)
"""


def code_lines(source: str) -> int:
    """Lines holding a token of code: blank lines, comment lines and the lines
    of module, class and function docstrings are not counted."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORTED", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    terminalreporter.section("size and environment")
    for kind, count in (("lines", lambda text: text.count("\n")), ("code lines", code_lines)):
        counts = {name: count(text) for name, text in sources.items()}
        modules = ", ".join(f"{name} {n}" for name, n in counts.items())
        terminalreporter.write_line(f"src/depthcrf: {sum(counts.values())} {kind} ({modules})")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    terminalreporter.write_line(
        f"environment: Python {platform.python_version()}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"{cpus} usable CPUs, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"map_scenes {'can' if CAN_FORK else 'cannot'} fork")
    _, held, peak = graph_memory()
    terminalreporter.write_line(
        f"graph.build_graph at 2000 superpixels (128x128 synth scene, tracemalloc): "
        f"peak {peak / 2**20:.1f} MiB, {held / 2**20:.1f} MiB held after return")
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
