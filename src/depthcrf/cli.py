"""Command-line surface tying the pipeline together.

Commands:

* ``synth``             write a synthetic dataset (manifest + PPM/depth files)
* ``train``             fit the regressor and coupling coefficients on a dataset
* ``predict``           run a checkpoint on one image, write a depth raster
* ``eval``              pooled error metrics of a checkpoint over a dataset
* ``gradcheck``         finite-difference check of every analytic gradient
* ``verify``            randomized cross-checks against the brute-force oracles
* ``sweep-superpixels`` accuracy/cost trade-off over superpixel counts

Configuration comes from an optional ``--config`` file (``key = value``
lines) plus repeatable ``--set key=value`` overrides; every key is
validated before any file is touched.  Exit codes: 0 success, 1 failed
check (gradcheck/verify), 2 configuration error, 3 I/O or file-format
error, 4 numerical failure (Cholesky, a diverged training run, or a regressor
output or depth that overflows).  Numeric flags use ``config``'s number grammar.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import metrics, oracle, synth, training
from .config import ConfigError, config_from_mapping, parse_config_file, parse_float, parse_int
from .crf import FactorizationError
from .formats import (
    Checkpoint,
    FormatError,
    read_checkpoint,
    read_depth_raster,
    read_history,
    read_manifest,
    read_ppm,
    utf8_path,
    write_checkpoint,
    write_depth_raster,
    write_history,
    write_manifest,
    write_ppm,
    write_table,
)
from .graph import SceneSample, map_scenes

CHECKPOINT_EVERY = 10

EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _collect_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _load_samples(dataset_dir):
    """Every (image, ground-truth depth) pair a dataset's manifest lists."""
    root = Path(dataset_dir)
    samples = []
    for img_rel, dep_rel, _seed in read_manifest(root / "manifest.txt"):
        image, depth = read_ppm(root / img_rel), read_depth_raster(root / dep_rel)
        if depth.shape != image.shape[:2]:
            raise FormatError(f"{root / dep_rel}: a {depth.shape[0]}x{depth.shape[1]} depth "
                              f"raster for the {image.shape[0]}x{image.shape[1]} image {img_rel}")
        samples.append(SceneSample(image=image, depth=depth))
    if not samples:
        raise FormatError(f"{root / 'manifest.txt'}: the manifest lists no samples")
    return samples


def _check_superpixels(count: int, images) -> None:
    """A graph cannot have more superpixels than its image has pixels."""
    for image in images:
        height, width = image.shape[:2]
        if count > height * width:
            raise ConfigError(f"target_superpixels={count} exceeds the {height * width} "
                              f"pixels of a {height}x{width} image")


def _checkpoint_of(config, state, input_mean, input_std) -> Checkpoint:
    gammas = np.asarray(config.graph_config().gammas)
    return Checkpoint(config, state.model, state.beta, gammas, input_mean, input_std)


def _out_dir(args, config) -> Path:
    """``--out``, else the directory the ``out_dir`` key names."""
    return Path(args.out if args.out is not None else utf8_path(config.out_dir))


def _write_sample(idx, spec, seed, out) -> tuple:
    """Generate sample ``idx`` of dataset ``seed``, write its two files; its manifest row."""
    sample = synth.generate_sample(spec, seed, idx)
    img_name, dep_name = f"img_{idx:04d}.ppm", f"depth_{idx:04d}.txt"
    write_ppm(out / img_name, sample.image)
    write_depth_raster(out / dep_name, sample.depth)
    return img_name, dep_name, synth.sample_seed(seed, idx)


def cmd_synth(args) -> int:
    """Write the samples, spread over the usable CPUs by ``map_scenes``, then the manifest."""
    config = config_from_mapping(_collect_overrides(args))
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    rows = map_scenes(_write_sample, range(config.count), config.scene_spec(), config.seed, out)
    write_manifest(out / "manifest.txt", rows)
    print(f"wrote {len(rows)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    overrides = _collect_overrides(args)
    base_ckpt = read_checkpoint(args.resume) if args.resume is not None else None
    config = config_from_mapping(overrides, base=base_ckpt.config if base_ckpt else None)
    train_cfg = config.train_config()
    state = training.init_state(config.layer_dims(), train_cfg)
    out = _out_dir(args, config)
    if base_ckpt is None:
        additional, stats = config.epochs, None
    else:
        if config.layer_dims() != base_ckpt.config.layer_dims():
            raise ConfigError(f"resume cannot change the regressor's widths: the checkpoint "
                              f"has {base_ckpt.config.layer_dims()}, the configuration "
                              f"{config.layer_dims()} (hidden_dims and patch_dim are fixed)")
        # on resume the epochs key means ADDITIONAL epochs, default none;
        # standardization stats are part of the model, never recomputed
        additional = config.epochs if "epochs" in overrides else 0
        stats = (base_ckpt.input_mean, base_ckpt.input_std)
        state.model, state.beta = base_ckpt.model, base_ckpt.beta
        state.epoch = base_ckpt.config.epochs
        # resuming in place keeps the history of the epochs the checkpoint holds
        if Path(args.resume).resolve().parent == out.resolve() and (out / "history.csv").exists():
            state.history = [h for h in read_history(out / "history.csv") if h.epoch < state.epoch]
    samples = _load_samples(args.dataset)
    _check_superpixels(config.target_superpixels, [s.image for s in samples])
    scenes, input_mean, input_std = training.prepare_dataset(samples, config.graph_config(), stats)
    out.mkdir(parents=True, exist_ok=True)
    # one call at least, so that unary-only training pins beta even for 0 epochs
    for start in range(0, max(additional, 1), CHECKPOINT_EVERY):
        chunk = min(CHECKPOINT_EVERY, additional - start)
        state = training.train(scenes, dataclasses.replace(train_cfg, epochs=chunk),
                               state=state, unary_only=args.unary_only)
        last = start + chunk >= additional
        name = "checkpoint.txt" if last else f"checkpoint_epoch_{state.epoch:04d}.txt"
        snap = dataclasses.replace(config, epochs=state.epoch)
        write_checkpoint(out / name, _checkpoint_of(snap, state, input_mean, input_std))
    write_history(out / "history.csv", state.history)
    print(f"trained {additional} epochs ({state.epoch} total); "
          f"checkpoint at {out / 'checkpoint.txt'}")
    return 0


def cmd_predict(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    image = read_ppm(args.image)
    _check_superpixels(ckpt.config.target_superpixels, [image])
    depth = metrics.predict_image(SceneSample(image=image), ckpt)
    write_depth_raster(args.out, depth)
    print(f"wrote depth raster {args.out}")
    return 0


_EVAL_COLUMNS = ("mask", "rel", "rms", "log10", "delta1", "delta2", "delta3", "pixels")


def cmd_eval(args) -> int:
    """Pooled metrics over a dataset; its images are predicted one at a time."""
    ckpt = read_checkpoint(args.checkpoint)
    samples = _load_samples(args.dataset)
    _check_superpixels(ckpt.config.target_superpixels, [s.image for s in samples])
    truths = [s.depth for s in samples]
    if args.c1_cap is not None and not any(np.any(gt < args.c1_cap) for gt in truths):
        raise ConfigError(f"C1 selection is empty: no ground truth below {args.c1_cap!r}")
    predictions = [metrics.predict_image(s, ckpt) for s in samples]
    reports = metrics.evaluate(predictions, truths, args.c1_cap)
    if args.out is not None:  # report fields are in column order
        write_table(args.out, _EVAL_COLUMNS,
                    ([name, *dataclasses.astuple(r)] for name, r in reports.items()))
    header = "".join(f"{c:>9}" for c in _EVAL_COLUMNS)
    print(header)
    for name, r in reports.items():
        print(
            f"{name:>9}"
            f"{r.rel:>9.4f}{r.rms:>9.4f}{r.log10:>9.4f}"
            f"{r.delta1:>9.2f}{r.delta2:>9.2f}{r.delta3:>9.2f}"
            f"{r.pixel_count:>9d}"
        )
    return 0


def _report_checks(checks, command: str, scope: str) -> int:
    """One PASS/FAIL line per check with its real unit, then a summary line."""
    for check in checks:
        print(
            f"{'PASS' if check.ok else 'FAIL'} {check.name}: "
            f"{check.error:.3g} {check.unit} (must be < {check.tol:.3g})"
        )
    ok = all(check.ok for check in checks)
    print(f"{command} {'passed' if ok else 'FAILED'} {scope}")
    return 0 if ok else EXIT_CHECK_FAILED


def cmd_gradcheck(args) -> int:
    if args.nodes < 1 or args.channels < 1:
        raise ConfigError("--nodes and --channels must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    checks = oracle.check_gradients(rng, 1, nodes=args.nodes, channels=args.channels)
    return _report_checks(checks, "gradcheck", f"on n={args.nodes}, channels={args.channels}")


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    checks = [
        oracle.check_log_partition(rng, args.trials),
        *oracle.check_map(rng, args.trials),
        oracle.check_zero_coupling(rng, args.trials),
        oracle.check_moments(rng, args.trials),
        *oracle.check_factorization(rng, args.trials),
        oracle.check_map_solve(rng, args.trials),  # last: the draws above stay as they were
    ]
    return _report_checks(checks, "verify", f"over {args.trials} trials")


def sweep_point(config, train_samples, test_samples) -> tuple[float, float]:
    """Train a fresh model under ``config`` and score it on the test samples.

    Returns the pooled test rms and the seconds that preparing the training
    scenes and training took.
    """
    started = time.perf_counter()
    scenes, input_mean, input_std = training.prepare_dataset(train_samples, config.graph_config())
    train_cfg = config.train_config()
    state = training.train(scenes, train_cfg, training.init_state(config.layer_dims(), train_cfg))
    seconds = time.perf_counter() - started
    ckpt = _checkpoint_of(config, state, input_mean, input_std)
    predictions = [metrics.predict_image(s, ckpt) for s in test_samples]
    return metrics.evaluate(predictions, [s.depth for s in test_samples])["all"].rms, seconds


def cmd_sweep(args) -> int:
    config = config_from_mapping(_collect_overrides(args))
    try:
        counts = [parse_int(t) for t in args.counts.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--counts expects integers, got {args.counts!r}")
    if not counts:
        raise ConfigError("--counts must name at least one superpixel count")
    if len(set(counts)) != len(counts):
        raise ConfigError(f"duplicate superpixel counts: {args.counts!r}")
    if any(c < 1 for c in counts):
        raise ConfigError("superpixel counts must be positive")
    train_samples = _load_samples(args.train_dataset)
    test_samples = _load_samples(args.test_dataset)
    _check_superpixels(max(counts), [s.image for s in train_samples + test_samples])
    rows = []
    for count in counts:
        rms, seconds = sweep_point(dataclasses.replace(config, target_superpixels=count),
                                   train_samples, test_samples)
        rows.append((count, rms, seconds))
        print(f"count {count:>5d}: rms {rms:.4f}, train {seconds:.2f} s")
    write_table(args.out, ["count", "rms", "train_seconds"], rows)
    print(f"wrote sweep results to {args.out}")
    return 0


def _add_config_flags(parser) -> None:
    parser.add_argument("--config", help="configuration file of key = value lines")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthcrf",
        description="Depth regression with a continuous CRF over superpixel graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic scene dataset")
    _add_config_flags(p)
    p.add_argument("--out", help="dataset directory (default: out_dir key)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    _add_config_flags(p)
    p.add_argument("--dataset", required=True, help="dataset directory with manifest.txt")
    p.add_argument("--out", help="output directory (default: out_dir key)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--unary-only", action="store_true",
                   help="pin all coupling coefficients to zero (regressor-only baseline)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a depth raster for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input image (binary PPM)")
    p.add_argument("--out", required=True, help="output depth raster path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="metrics CSV path (table always printed)")
    p.add_argument("--c1-cap", type=parse_float, default=None,
                   help="also report metrics restricted to ground truth below this depth")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--nodes", type=parse_int, default=12, help="graph size of the test instance")
    p.add_argument("--channels", type=parse_int, default=3, help="similarity channels")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("verify", help="randomized cross-checks against the oracles")
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--trials", type=parse_int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sweep-superpixels", aliases=["sweep_superpixels"],
        help="train/evaluate across superpixel counts, write count,rms,train_seconds")
    _add_config_flags(p)
    p.add_argument("--train-dataset", required=True)
    p.add_argument("--test-dataset", required=True)
    p.add_argument("--counts", required=True, help="comma-separated superpixel counts")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FactorizationError, ArithmeticError) as exc:  # DivergenceError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
