"""Tests of the benchmark harness itself: spans, wrappers and output checks.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
from spans import Instrumentation, Target, Tracer, layer_metrics, self_times  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from workloads import Predict700, Train150, nll_fault, parse_raster, raster_fault  # noqa: E402


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def _span(name, start, end, parent=None, phase="timed", op=0, counts=None):
    return spans.Span(name, start, end, parent, phase, op, counts or {})


def test_self_time_subtracts_nested_children_with_a_fake_clock():
    # outer [0, 10] holds mid [1, 5] and leaf2 [6, 7]; mid holds leaf1 [2, 3]
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0))
    leaf1, leaf2 = Target("m.leaf1"), Target("m.leaf2")

    def mid():
        return tracer.call(leaf1, lambda: None, (), {})

    def outer():
        tracer.call(Target("m.mid"), mid, (), {})
        tracer.call(leaf2, lambda: None, (), {})

    tracer.call(Target("m.outer"), outer, (), {})
    names = [s.name for s in tracer.spans]
    assert names == ["m.outer", "m.mid", "m.leaf1", "m.leaf2"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == [10.0 - 4.0 - 1.0, 4.0 - 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        _span("p", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans_)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_ends_when_the_call_raises():
    tracer = Tracer(clock=FakeClock(1.0, 2.5))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call(Target("m.f"), boom, (), {})
    assert (tracer.spans[0].start, tracer.spans[0].end) == (1.0, 2.5)
    assert tracer._open == []


def test_layer_metrics_take_the_first_phase_that_ran_per_unit():
    spans_ = [
        _span("m.f", 0.0, 0.004, op=0),
        _span("m.f", 1.0, 1.002, op=1),
        _span("m.f", 2.0, 2.100, phase="setup", op=None),
        _span("m.g", 3.0, 3.030, phase="setup", op=None),
        _span("m.g", 4.0, 4.030, phase="setup", op=None),
    ]
    targets = [Target("m.f"), Target("m.g")]
    out = layer_metrics(spans_, targets, {"timed": 2, "check": 1, "setup": 3}, 2)
    assert out["m.f.self_ms"] == pytest.approx(3.0)  # (4 + 2) ms over 2 operations
    assert out["m.g.self_ms"] == pytest.approx(20.0)  # 60 ms over 3 set-ups


def test_counts_in_the_timed_phase_come_from_the_first_pass():
    spans_ = [
        _span("m.f", 0.0, 1.0, op=0, counts={"m.rows": 10}),
        _span("m.f", 1.0, 2.0, op=1, counts={"m.rows": 30}),
        _span("m.f", 2.0, 3.0, op=2, counts={"m.rows": 10}),
    ]
    targets = [Target("m.f", ("m.rows",))]
    out = layer_metrics(spans_, targets, {"timed": 3, "check": 1, "setup": 3}, 2)
    assert out["m.rows"] == 20.0


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines f and C.m; ``fakepkg.b`` imports f by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class C:
        def m(self, x):
            return 2 * x

    a.f, a.C = f, C
    b.f = f
    for module in (pkg, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b


def test_wrappers_rebind_every_holder_and_restore_the_originals(fake_package):
    a, b = fake_package
    f, m = a.f, a.C.m
    tracer = Tracer()
    counter = Target("a.f", ("a.calls",), lambda args, kwargs, result: {"a.calls": 1})
    instr = Instrumentation(tracer, "fakepkg", [counter, Target("a.C.m")])
    instr.install()
    assert a.f is not f and b.f is a.f
    assert b.f(1) == 2 and a.C().m(3) == 6
    assert [s.name for s in tracer.spans] == ["a.f", "a.C.m"]
    assert tracer.spans[0].counts == {"a.calls": 1}
    instr.uninstall()
    assert a.f is f and b.f is f and a.C.__dict__["m"] is m
    b.f(1)
    assert len(tracer.spans) == 2


def test_missing_names_are_reported_absent(fake_package):
    instr = Instrumentation(
        Tracer(),
        "fakepkg",
        [
            Target("a.f"),
            Target("a.gone", ("a.gone_count",)),
            Target("a.C.gone"),
            Target("nomodule.f"),
        ],
    )
    assert instr.absent == ["a.gone", "a.C.gone", "nomodule.f"]
    assert instr.absent_metrics() == [
        "a.gone.self_ms", "a.gone_count", "a.C.gone.self_ms", "nomodule.f.self_ms"
    ]
    instr.install()
    instr.uninstall()


def test_speed_probe_scales_by_the_median_of_the_nearest_samples(monkeypatch):
    # kernel samples of 2, 4 and 6 ms, around times 1, 3 and 10
    clock = FakeClock(1.0, 1.002, 3.0, 3.004, 10.0, 10.006)
    probe = speed.SpeedProbe(lambda: None, clock=clock)
    for _ in range(3):
        probe.sample()
    reference = speed.REFERENCE_MS / 1e3
    assert probe.kernel_ms() == pytest.approx(4.0)
    assert probe.scale(0.0) == pytest.approx(reference / 0.004)
    monkeypatch.setattr(speed, "NEAREST", 1)
    assert probe.scale(0.0) == pytest.approx(reference / 0.002)
    assert probe.scale(2.5) == pytest.approx(reference / 0.004)
    assert probe.scale(20.0) == pytest.approx(reference / 0.006)


def test_speed_probe_samples_only_when_due():
    clock = FakeClock(0.0, 0.1, 0.2, 0.4, 0.9, 1.0, 1.1)
    probe = speed.SpeedProbe(lambda: None, clock=clock)
    probe.sample_if_due()  # the first sample, around 0.05
    probe.sample_if_due()  # at 0.2, too soon
    probe.sample_if_due()  # at 0.4, too soon
    probe.sample_if_due()  # at 0.9, due: sampled around 1.05
    assert [at for at, _ in probe.samples] == pytest.approx([0.05, 1.05])
    assert clock.readings == []


def test_raster_check_rejects_corrupted_rasters():
    good = np.full((4, 5), 2.0)
    assert raster_fault(good, (4, 5)) is None
    assert "shape" in raster_fault(good, (5, 4))
    for bad in (np.nan, np.inf, 0.0, -1.0):
        corrupted = good.copy()
        corrupted[1, 2] = bad
        assert raster_fault(corrupted, (4, 5)) is not None


def test_epoch_check_rejects_a_non_finite_nll():
    assert nll_fault(-12.5) is None
    assert nll_fault(math.nan) is not None
    assert nll_fault(math.inf) is not None
    assert Train150(seed=0).check(0, math.nan) is not None


def test_outputs_are_compared_with_the_recorded_references():
    reference = run.load_reference()
    seed = reference["default_seed"]
    want = reference["outputs"][str(seed)]["train-150"]["train_nll"]

    def faults(seed, outputs):
        return run.reference_faults(reference, "train-150", seed, outputs)

    assert faults(seed, {"train_nll": want}) == []
    assert faults(seed, {"train_nll": want * (1 + 1e-4)})
    assert faults(seed, {})
    assert faults(seed + 1000, {}) == []


def test_parse_raster_rejects_truncated_files(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("DEPTH 2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError):
        parse_raster(path)
    path.write_text("DEPTH 2 2\n1.0 2.0\n3.0 4.0\n")
    assert parse_raster(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_predict_check_rejects_a_corrupted_or_changed_output(tmp_path):
    workload = Predict700(seed=0)
    workload.truths = [np.ones((2, 2))] * workload.HELDOUT
    workload.outputs = [tmp_path / f"p{i}.txt" for i in range(workload.HELDOUT)]
    workload.outputs[0].write_text("DEPTH 2 2\n1.0 2.0\n3.0 4.0\n")
    assert workload.check(0, 0) is None
    assert workload.check(0, 3) == "predict exited 3"
    workload.outputs[0].write_text("DEPTH 2 2\n1.0 2.0\n3.0 nan\n")
    assert "non-finite" in workload.check(0, 0)
    workload.outputs[0].write_text("DEPTH 2 2\n1.0 2.0\n3.0 5.0\n")
    assert "differs" in workload.check(workload.HELDOUT, 0)
    workload.outputs[1].write_text("DEPTH 1 2\n1.0 2.0\n")
    assert "shape" in workload.check(1, 0)
