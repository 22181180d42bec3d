"""depthcrf benchmark: end-to-end metrics, or per-layer spans with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict-700 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

The package is imported from the checkout's ``src/``.  Each run sets up its
workload three times (``setup_s`` is the median), then runs operations
closed loop for ``--seconds`` and checks every output.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when untraced, the
per-layer metrics when traced.  End-to-end numbers never come from a traced
run, and their times are scaled to a reference speed (see ``speed.py``);
the raw ones are printed as ``raw`` lines.  A traced run alternates an
untraced and a traced operation on the same input and reports the median
difference as ``trace.overhead_ms``.

Spans, results and the environment go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("predict-700", "train-2000", "train-150")
# One caller on a machine that may be shared: BLAS gets one thread, which is
# never more than nproc.
BLAS_THREADS = 1
SETUPS = 3
SAMPLES_AROUND_SETUP = 3  # kernel samples before and after each set-up
TAIL_PERCENTILE = 60
TAIL_MIN_SAMPLES = 25  # at least ten samples above the 60th percentile


def load_reference() -> dict:
    """Recorded seeds and the outputs expected at them."""
    return json.loads((HERE / "reference.json").read_text())


def _arguments(reference, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import depthcrf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "depthcrf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no depthcrf package under {src}")
    # BLAS reads these once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))  # also under PYTHONSAFEPATH
    import depthcrf.cli  # noqa: F401  (imports every module the targets live in)

    if Path(depthcrf.__file__).resolve().parent != (src / "depthcrf").resolve():
        raise SystemExit(f"benchmark: depthcrf imported from {depthcrf.__file__}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def _attempt(workload, k):
    """Run and check one operation; returns (seconds of the operation alone, fault or None)."""
    start = time.perf_counter()
    try:
        result = workload.op(k)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        return seconds, workload.check(k, result)
    except Exception as exc:
        return seconds, f"output check raised {type(exc).__name__}: {exc}"


def reference_faults(reference, name, seed, outputs) -> list[str]:
    """Outputs that differ from the values recorded for this seed."""
    expected = reference["outputs"].get(str(seed), {}).get(name, {})
    tol = reference["rel_tol"]
    faults = []
    for key, want in expected.items():
        got = outputs.get(key)
        if got is None or abs(got - want) > tol * abs(want):
            faults.append(f"{key} = {got!r}, reference {want!r} at seed {seed}")
    return faults


def end_to_end(samples, setup_times) -> dict:
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (1e3 * statistics.median(samples), "ms"),
        "op_ms_p60": (
            1e3 * statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
            "ms",
        ),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from layers import TARGETS
    from speed import SpeedProbe
    from workloads import WORKLOADS

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer, "depthcrf", TARGETS)
    workload = None
    probe = SpeedProbe(WORKLOADS[name].speed_kernel)
    probe.work()  # the first call pays for page faults and lazy imports
    # timings as (midpoint, seconds), scaled by the kernel samples near them
    setups, timed = [], []
    samples, overheads, faults = [], [], []
    attempted = 0
    try:
        # the program's own prints go to stderr; stdout carries the result
        with redirect_stdout(sys.stderr):
            if trace:
                instrumentation.install()
            for k in range(SETUPS):
                # a fresh workload each time, so no earlier set-up's arrays
                # are alive to raise the peak resident set
                workload = None
                gc.collect()
                tracer.phase = "setup"
                workload = WORKLOADS[name](seed)
                for _ in range(SAMPLES_AROUND_SETUP):
                    probe.sample()
                start = time.perf_counter()
                workload.setup(work / f"setup{k}")
                took = time.perf_counter() - start
                setups.append((start + took / 2, took))
                for _ in range(SAMPLES_AROUND_SETUP):
                    probe.sample()
            tracer.phase = "check"
            start = time.perf_counter()
            k = 0
            while time.perf_counter() - start < seconds:
                if trace:
                    # the two sides of a pair take turns at running first
                    for traced in (k % 2 == 1, k % 2 == 0):
                        if traced:
                            instrumentation.install()
                            tracer.phase, tracer.op = "timed", k
                            took, fault = _attempt(workload, k)
                            tracer.phase, tracer.op = "check", None
                        else:
                            instrumentation.uninstall()
                            plain, plain_fault = _attempt(workload, k)
                    attempted += 2
                    faults.extend(f for f in (plain_fault, fault) if f)
                    if not (plain_fault or fault):
                        samples.append(took)
                        overheads.append(took - plain)
                else:
                    probe.sample_if_due()
                    began = time.perf_counter()
                    took, fault = _attempt(workload, k)
                    attempted += 1
                    if fault:
                        faults.append(fault)
                    else:
                        samples.append(took)
                        timed.append((began + took / 2, took))
                k += 1
            traced_ops = k
            probe.sample()  # so that the last operations have a sample after them
            if trace:
                instrumentation.install()
            try:
                outputs, finish_faults = workload.finish()
            except Exception as exc:
                outputs, finish_faults = {}, [f"{type(exc).__name__}: {exc}"]
            instrumentation.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mismatches = reference_faults(load_reference(), name, seed, outputs)

    raw_metrics = {}
    if trace:
        metrics = {
            key: {"value": value, "unit": "ms" if key.endswith("_ms") else "count"}
            for key, value in spans.layer_metrics(
                tracer.spans,
                TARGETS,
                {"timed": traced_ops, "check": 1, "setup": SETUPS},
                min(workload.first_pass, traced_ops),
            ).items()
        }
        if overheads:
            metrics["trace.overhead_ms"] = {
                "value": 1e3 * statistics.median(overheads),
                "unit": "ms",
            }
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{name}-seed{seed}.jsonl")
    else:
        metrics = {}
        if len(samples) >= 2:
            metrics = end_to_end(
                [t * probe.scale(at) for at, t in timed],
                [t * probe.scale(at) for at, t in setups],
            )
            raw_metrics = end_to_end(samples, [t for _, t in setups])
        if len(samples) < TAIL_MIN_SAMPLES:
            print(
                f"warning: {len(samples)} samples, fewer than {TAIL_MIN_SAMPLES}; "
                f"op_ms_p{TAIL_PERCENTILE} has under ten samples above it",
                file=sys.stderr,
            )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_times_s": [t for _, t in setups],
        "op_seconds": samples,
        "kernel_ms": probe.kernel_ms(),
        "kernel_samples": len(probe.samples),
        "raw_metrics": raw_metrics,
        "outputs": outputs,
        "faults": faults + finish_faults,
        "reference_faults": mismatches,
        "absent": instrumentation.absent_metrics() if trace else [],
        "shares": _module_shares(tracer, traced_ops, samples) if trace else {},
        "attempted": attempted,
        "failed": len(faults),
        "correct": not (faults or finish_faults or mismatches) and bool(metrics),
        "metrics": metrics,
    }


def _module_shares(tracer, traced_ops, samples) -> dict:
    """Share of the mean traced operation's wall time held by each module's spans."""
    import spans

    if not traced_ops or not samples:
        return {}
    total = sum(samples) / len(samples)
    shares = {}
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        if span.phase == "timed":
            module = span.name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + own / traced_ops / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    print("env " + json.dumps(record["environment"]))
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"outputs {json.dumps(record['outputs'])}")
    error_rate = record["failed"] / record["attempted"] if record["attempted"] else float("nan")
    print(f"error_rate {error_rate!r} fraction ({record['failed']}/{record['attempted']})")
    for fault in record["faults"] + record["reference_faults"]:
        print(f"fault {fault}")
    for module, share in record["shares"].items():
        print(f"share {module} {share:.3f}")
    for name in record["absent"]:
        print(f"absent {name}")
    for name, metric in record["raw_metrics"].items():
        print(f"raw {name} {metric['value']!r} {metric['unit']}")
    print(f"kernel_ms {record['kernel_ms']!r} ms over {record['kernel_samples']} samples")
    for name, metric in record["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _arguments(load_reference(), argv)
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    _import_package()
    if args.workload == "all":
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / tag).write_text(json.dumps(record, indent=1) + "\n")
    _report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
