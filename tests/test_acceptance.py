"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Criteria 1-6 run the ``oracle`` checkers that ``gradcheck`` and ``verify``
also run; criterion 10 checks hand-derived metric values.  Criteria 7-9 run
a scaled experiment on synthetic scenes (30 train / 10 test, 128x128, about
150 superpixels): the jointly trained model must beat the coupling-free
baseline on pooled test rms (median over 3 seeds), training NLL must fall,
and a superpixel-count sweep must trade accuracy against training time in
the expected direction.  The experiment is one run configuration written in
the keys ``depthcrf --set`` takes, and it goes through the CLI's own code:
criteria 7-8 train from ``init_state`` and predict from the checkpoint that
``train`` would write, and criterion 9 runs each count through the routine
behind ``sweep-superpixels``.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from depthcrf import cli, metrics, oracle, synth, training
from depthcrf.config import config_from_mapping
from depthcrf.graph import build_graph

from testutil import rel_err

# experiment configuration shared by criteria 7-9, as --set key=value pairs
EXPERIMENT_KEYS = dict(noise_sigma="0.06", gamma_color="40", gamma_hist="40", gamma_lbp="40",
                       target_superpixels="150", dropout_keep="1.0")
TRAIN_SEEDS = (0, 1, 2)
BASELINE_KEYS = dict(lr0="5e-4", epochs="150")
SWEEP_KEYS = dict(lr0="1e-4", epochs="20", train_seed="0")
SWEEP_COUNTS = (50, 200, 700)


def experiment(**keys):
    """The experiment's RunConfig with further ``--set``-style overrides."""
    return config_from_mapping({**EXPERIMENT_KEYS, **keys})


# conftest.py replays these in the terminal summary, past pytest's capture
REPORTED: list[str] = []


def report(number: int, passed: bool, detail: str) -> bool:
    """One line per criterion; recorded for the end-of-run summary."""
    line = f"CRITERION {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    REPORTED.append(line)
    return passed


def test_criterion_1_partition_function_matches_quadrature():
    started = time.perf_counter()
    check = oracle.check_log_partition(np.random.default_rng(11), 50)
    elapsed = time.perf_counter() - started
    assert report(
        1, check.ok and elapsed < 10.0, f"log-partition vs quadrature, 50 instances: "
        f"max rel err {check.error:.2e} (tol {check.tol:g}), {elapsed:.1f}s (budget 10s)"
    )


def test_criterion_2_gradients_match_finite_differences():
    started = time.perf_counter()
    checks = oracle.check_gradients(np.random.default_rng(23), 50)
    elapsed = time.perf_counter() - started
    z, theta, beta = (check.error for check in checks)
    assert report(
        2, all(check.ok for check in checks) and elapsed < 60.0,
        f"analytic vs central differences, 50 networks: z {z:.2e}, "
        f"theta {theta:.2e}, beta {beta:.2e} (tol {oracle.GRADIENT_TOL:g}), "
        f"{elapsed:.1f}s (budget 60s)"
    )


def test_criterion_3_map_agrees_with_grid_search_and_is_the_mode():
    grid, mode = oracle.check_map(np.random.default_rng(37), 50)
    assert report(
        3, grid.ok and mode.ok, f"MAP within {grid.error:.2f} grid cells of a 400x400 "
        f"search (tol {grid.tol:.3g}), and beats {oracle.PERTURBATIONS} perturbations on 50 "
        f"instances: {mode.ok}"
    )


def test_criterion_4_zero_coupling_returns_the_regression():
    check = oracle.check_zero_coupling(np.random.default_rng(41), 50)
    assert report(
        4, check.ok, f"beta=0 MAP equals z: max rel deviation {check.error:.2e} "
        f"(tol {check.tol:g})"
    )


def test_criterion_5_monte_carlo_reproduces_the_gaussian_moments():
    check = oracle.check_moments(np.random.default_rng(53), 10)
    assert report(
        5, check.ok, f"posterior mean/covariance vs {oracle.MC_DRAWS} Monte Carlo "
        f"draws on 10 instances: max {check.error:.2f} standard errors (tol {check.tol:g})"
    )


def test_criterion_6_precision_is_positive_definite_and_corruption_raises():
    valid, corrupt = oracle.check_factorization(np.random.default_rng(67), 100)
    assert report(
        6, valid.ok and corrupt.ok, f"Cholesky on 100 valid instances: "
        f"{100 - valid.error}/100 factored; negative coupling raises the "
        f"numerical-failure error: {corrupt.ok}"
    )


@pytest.fixture(scope="module")
def scene_sets():
    """The training and test scenes, drawn as ``depthcrf synth`` draws them."""
    return tuple(
        synth.generate_dataset(config.scene_spec(), config.count, config.seed)
        for config in (experiment(count="30", seed="100"), experiment(count="10", seed="200"))
    )


def _pooled_rms(ckpt, test_graphs, truths) -> float:
    """Pooled test rms of a checkpoint on graphs already built with its graph recipe."""
    predictions = [metrics.predict_graph(data, ckpt) for data in test_graphs]
    return metrics.evaluate(predictions, truths)["all"].rms


@pytest.fixture(scope="module")
def baseline_runs(scene_sets):
    """Three seed trials of full vs unary-only training on shared scenes."""
    train_samples, test_samples = scene_sets
    graph_cfg = experiment(**BASELINE_KEYS).graph_config()
    started = time.perf_counter()
    scenes, input_mean, input_std = training.prepare_dataset(train_samples, graph_cfg)
    test_graphs = [build_graph(s, graph_cfg) for s in test_samples]
    truths = [s.depth for s in test_samples]
    trials = []
    for seed in TRAIN_SEEDS:
        config = experiment(train_seed=str(seed), **BASELINE_KEYS)
        train_cfg = config.train_config()
        full, unary_only = (
            training.train(scenes, train_cfg, training.init_state(config.layer_dims(), train_cfg),
                           unary_only=flag)
            for flag in (False, True)
        )
        full_rms, unary_rms = (
            _pooled_rms(cli._checkpoint_of(config, state, input_mean, input_std), test_graphs,
                        truths)
            for state in (full, unary_only)
        )
        trials.append((full_rms, unary_rms, full.history))
    return SimpleNamespace(trials=trials, elapsed=time.perf_counter() - started)


def test_criterion_7_joint_training_beats_the_unary_baseline(baseline_runs):
    full_median = float(np.median([t[0] for t in baseline_runs.trials]))
    unary_median = float(np.median([t[1] for t in baseline_runs.trials]))
    ok = full_median < unary_median and baseline_runs.elapsed < 900.0
    assert report(
        7, ok, f"median pooled test rms over 3 seeds: full {full_median:.4f} < "
        f"unary-only {unary_median:.4f}; {baseline_runs.elapsed:.0f}s (budget 900s)"
    )


def test_criterion_8_training_nll_decreases(baseline_runs):
    firsts = [t[2][0].mean_nll for t in baseline_runs.trials]
    finals = [t[2][-1].mean_nll for t in baseline_runs.trials]
    ok = all(final < first for first, final in zip(firsts, finals))
    assert report(
        8, ok, f"final-epoch mean NLL below first-epoch in all 3 trials: "
        f"{firsts[0]:.1f} -> {finals[0]:.1f}, {firsts[1]:.1f} -> {finals[1]:.1f}, "
        f"{firsts[2]:.1f} -> {finals[2]:.1f}"
    )


def test_criterion_9_superpixel_sweep_trades_time_for_accuracy(scene_sets):
    train_samples, test_samples = scene_sets
    results = [
        (count, *cli.sweep_point(experiment(target_superpixels=str(count), **SWEEP_KEYS),
                                 train_samples, test_samples))
        for count in SWEEP_COUNTS
    ]
    by_count = {count: (rms, seconds) for count, rms, seconds in results}
    rms_ok = by_count[700][0] <= by_count[50][0]
    times = [seconds for _, _, seconds in results]
    time_ok = all(a <= b for a, b in zip(times, times[1:]))
    detail = ", ".join(f"{c}: rms {r:.4f} in {s:.0f}s" for c, r, s in results)
    assert report(
        9, rms_ok and time_ok,
        f"rms(700) <= rms(50) and nondecreasing training time -- {detail}"
    )


def test_criterion_10_metrics_reproduce_hand_examples():
    pair = metrics.DepthPair(
        predicted=np.array([2.2, 3.6]),
        ground_truth=np.array([2.0, 4.0]),
        mask=np.array([True, True]),
    )
    got = metrics.metrics([pair])
    expected_log10 = (np.log10(1.1) + np.log10(4.0 / 3.6)) / 2.0
    exact = (
        abs(got.rel - 0.1) < 1e-12
        and abs(got.rms - np.sqrt(0.1)) < 1e-12
        and abs(got.log10 - expected_log10) < 1e-12
        and got.delta1 == got.delta2 == got.delta3 == 100.0
        and got.pixel_count == 2
    )
    off = metrics.metrics(
        [
            metrics.DepthPair(
                predicted=np.array([1.0]),
                ground_truth=np.array([10.0]),
                mask=np.array([True]),
            )
        ]
    )
    exact = exact and off.log10 == 1.0 and off.delta1 == off.delta2 == off.delta3 == 0.0
    rng = np.random.default_rng(71)
    gt = np.exp(rng.normal(size=40)) + 0.5
    pred = gt * np.exp(rng.normal(scale=0.2, size=40))
    ones = np.ones(40, dtype=bool)
    base = metrics.metrics([metrics.DepthPair(pred, gt, ones)])
    scaled = metrics.metrics([metrics.DepthPair(3.0 * pred, 3.0 * gt, ones)])
    invariant = (
        abs(scaled.rel - base.rel) < 1e-12
        and abs(scaled.log10 - base.log10) < 1e-12
        and scaled.delta1 == base.delta1
        and scaled.delta2 == base.delta2
        and scaled.delta3 == base.delta3
        and rel_err(scaled.rms, 3.0 * base.rms) < 1e-12
    )
    ok = exact and invariant
    assert report(
        10, ok, f"hand-derived metric values exact: {exact}; "
        f"scale invariance (rms linear, rest invariant): {invariant}"
    )
