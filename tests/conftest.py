"""Replays the acceptance criterion lines once capture is released, and
reports the package's size in lines."""

import sys
from pathlib import Path

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
    terminalreporter.section("size")
    terminalreporter.write_line(f"src/depthcrf: {sum(counts.values())} lines ({modules})")
