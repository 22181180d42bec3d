"""Every function the benchmark traces still exists under its traced name.

``perfbench`` measures the package from outside by rebinding the functions
that ``perfbench/layers.py`` names, and it skips a name it cannot find, so
renaming a function would silently drop its per-layer metric.  This test
resolves the names without installing any wrapper.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import depthcrf.cli  # noqa: E402,F401  (imports every module the targets live in)
import layers  # noqa: E402
import spans  # noqa: E402


def test_every_trace_target_resolves():
    instrumentation = spans.Instrumentation(spans.Tracer(), "depthcrf", layers.TARGETS)
    assert instrumentation.absent == []
