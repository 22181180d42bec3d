"""Spans recorded from outside the program.

The benchmark never edits the package it measures.  Instead it rebinds each
measured public function, in every module namespace of the package that holds
it, to a wrapper that records a span (name, start, end, parent span, phase,
operation index) around the real call.  Rebinding every holder matters
because modules import functions by name: ``cli`` holds its own references to
the ``formats`` readers and writers, ``training`` and ``metrics`` hold
``build_graph``.  A method such as ``crf.Precision.solve`` is rebound on its
class.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

PHASES = ("timed", "check", "setup")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    op: int | None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One measured function, named ``module.function`` or ``module.Class.method``.

    ``counter`` maps (args, kwargs, result) of a successful call to a dict of
    the count metrics named in ``counts``; it runs after the span has ended.
    """

    name: str
    counts: tuple[str, ...] = ()
    counter: Callable | None = None


class Tracer:
    """Collects nested spans from a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op: int | None = None
        self._open: list[int] = []

    def call(self, target: Target, fn, args, kwargs):
        span = Span(
            name=target.name,
            start=self.clock(),
            end=float("nan"),
            parent=self._open[-1] if self._open else None,
            phase=self.phase,
            op=self.op,
        )
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if target.counter is not None:
            try:
                span.counts = dict(target.counter(args, kwargs, result))
            except Exception:  # a count must never break the measured call
                span.counts = {}
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _union_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


class Instrumentation:
    """Installs and removes wrappers for a list of targets in one package.

    A target whose module, class or function does not exist is recorded in
    ``absent`` and skipped, so renaming a function never fails the benchmark.
    """

    def __init__(self, tracer: Tracer, package: str, targets):
        self.tracer = tracer
        self.package = package
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for target in self.targets:
            found = self._locate(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, attr, original = found
            wrapper = self._wrapper(target, original)
            holders = [(owner, attr)] if isinstance(owner, type) else self._holders(original)
            self._patches.extend((obj, name, original, wrapper) for obj, name in holders)

    def _locate(self, target: Target):
        module_name, *path = target.name.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        for part in path[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = vars(owner).get(path[-1]) if path else None
        if not callable(original):
            return None
        return owner, path[-1], original

    def _holders(self, original):
        """Every (module, attribute) pair of the package bound to ``original``."""
        prefix = self.package + "."
        holders = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(prefix)):
                continue
            holders.extend(
                (module, attr) for attr, value in vars(module).items() if value is original
            )
        return holders

    def _wrapper(self, target: Target, original):
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(target, original, args, kwargs)

        return traced

    def install(self) -> None:
        for obj, name, _original, wrapper in self._patches:
            setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original, _wrapper in reversed(self._patches):
            setattr(obj, name, original)

    def absent_metrics(self) -> list[str]:
        """Per-layer metric names that no existing target produces."""
        produced = {c for t in self.targets if t.name not in self.absent for c in t.counts}
        names = []
        for target in self.targets:
            if target.name in self.absent:
                names.append(f"{target.name}.self_ms")
                names.extend(c for c in target.counts if c not in produced | set(names))
        return names


def layer_metrics(spans, targets, units: dict, first_pass: int) -> dict:
    """Per-layer self times (ms) and counts, normalized per unit of work.

    Each function is reported from the first phase, in the order timed,
    check, setup, in which it ran, per unit of that phase: ``units`` gives
    the number of traced operations, checks and set-ups.  Counts in the
    timed phase come from its first ``first_pass`` operations, which cover
    the workload's inputs once, so they repeat exactly.
    """
    selfs = self_times(spans)
    out = {}
    for target in targets:
        mine = [(s, t) for s, t in zip(spans, selfs) if s.name == target.name]
        for phase in PHASES:
            chosen = [(s, t) for s, t in mine if s.phase == phase]
            if chosen and units.get(phase):
                out[f"{target.name}.self_ms"] = 1e3 * sum(t for _, t in chosen) / units[phase]
                break
    count_names = []
    for target in targets:
        count_names.extend(c for c in target.counts if c not in count_names)
    for name in count_names:
        carriers = [s for s in spans if name in s.counts]
        for phase in PHASES:
            chosen = [s for s in carriers if s.phase == phase]
            per = units.get(phase)
            if phase == "timed":
                chosen = [s for s in chosen if s.op is not None and s.op < first_pass]
                per = min(first_pass, units.get(phase, 0))
            if chosen and per:
                out[name] = sum(s.counts[name] for s in chosen) / per
                break
    return out
