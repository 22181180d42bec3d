"""Error metrics against hand-derived values; prediction painting."""

import numpy as np
import pytest

from depthcrf import graph, metrics, synth, unary
from depthcrf.config import RunConfig
from depthcrf.formats import Checkpoint
from depthcrf.metrics import DepthPair
from depthcrf.synth import SceneSpec


def pair(pred, gt, mask=None):
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if mask is None:
        mask = np.ones_like(gt, dtype=bool)
    return DepthPair(predicted=pred, ground_truth=gt, mask=mask)


class TestMetrics:
    def test_hand_example(self):
        report = metrics.metrics([pair([2.2, 3.6], [2.0, 4.0])])
        assert abs(report.rel - 0.1) < 1e-12
        assert abs(report.rms - np.sqrt(0.1)) < 1e-12
        expected_log = 0.5 * (abs(np.log10(2.0) - np.log10(2.2))
                              + abs(np.log10(4.0) - np.log10(3.6)))
        assert abs(report.log10 - expected_log) < 1e-12
        # ratios 1.1 and 1.1111 are both under 1.25
        assert report.delta1 == 100.0
        assert report.pixel_count == 2

    def test_order_of_magnitude_miss(self):
        report = metrics.metrics([pair([10.0], [1.0])])
        assert abs(report.log10 - 1.0) < 1e-12
        assert report.delta1 == report.delta2 == report.delta3 == 0.0

    def test_deltas_are_monotone(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(1.0, 10.0, size=100)
        pred = gt * rng.uniform(0.5, 2.0, size=100)
        report = metrics.metrics([pair(pred, gt)])
        assert report.delta1 <= report.delta2 <= report.delta3

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(1.0, 10.0, size=50)
        pred = gt * rng.uniform(0.6, 1.6, size=50)
        base = metrics.metrics([pair(pred, gt)])
        scaled = metrics.metrics([pair(3.0 * pred, 3.0 * gt)])
        assert abs(scaled.rel - base.rel) < 1e-12
        assert abs(scaled.log10 - base.log10) < 1e-12
        assert scaled.delta1 == base.delta1
        assert abs(scaled.rms - 3.0 * base.rms) < 1e-9

    def test_pooling_matches_concatenation(self):
        rng = np.random.default_rng(2)
        gt1, gt2 = rng.uniform(1, 5, 30), rng.uniform(1, 5, 70)
        p1, p2 = gt1 * 1.2, gt2 * 0.9
        split = metrics.metrics([pair(p1, gt1), pair(p2, gt2)])
        pooled = metrics.metrics([pair(np.r_[p1, p2], np.r_[gt1, gt2])])
        assert split == pooled

    def test_mask_respected(self):
        pred = np.array([2.0, -1.0])
        gt = np.array([2.0, 0.0])
        mask = np.array([True, False])
        report = metrics.metrics([pair(pred, gt, mask)])
        assert report.pixel_count == 1
        assert report.rel == 0.0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            metrics.metrics([pair([1.0], [1.0], np.array([False]))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a shape"):
            pair([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="share a shape"):
            pair([1.0, 2.0], [1.0, 2.0], np.array([True]))

    def test_nonpositive_masked_values_rejected(self):
        with pytest.raises(ValueError):
            pair([0.0], [1.0])
        with pytest.raises(ValueError):
            pair([1.0], [-2.0])


class TestEvaluate:
    def test_cap_splits_pixels(self):
        gt = np.array([[1.0, 80.0], [50.0, 70.0]])
        pred = np.array([[2.0, 60.0], [40.0, 70.0]])
        below = np.array([[True, False], [True, False]])
        capped = metrics.evaluate([pred, gt], [gt, gt], cap=70.0)
        assert list(capped) == ["C1", "C2"]
        assert capped["C1"] == metrics.metrics([pair(pred, gt, below), pair(gt, gt, below)])
        assert capped["C2"] == metrics.metrics([pair(pred, gt), pair(gt, gt)])
        assert capped["C1"].pixel_count == 4
        assert metrics.evaluate([pred, gt], [gt, gt]) == {"all": capped["C2"]}

    def test_cap_below_everything_gives_empty_mask(self):
        gt = np.full((2, 2), 5.0)
        with pytest.raises(ValueError):
            metrics.evaluate([gt], [gt], cap=1.0)


def make_checkpoint(beta, seed=0, **keys):
    """An affine regressor (no hidden layers) with identity input scaling."""
    keys = dict(target_superpixels=9, box_size=6, patch_dim=3) | keys
    config = RunConfig(hidden_dims=(), **keys)
    dim = config.layer_dims()[0]
    return Checkpoint(
        config=config,
        model=unary.build_model(config.layer_dims(), seed=seed),
        beta=np.asarray(beta, dtype=float),
        gammas=np.asarray(config.graph_config().gammas),
        input_mean=np.zeros(dim),
        input_std=np.ones(dim),
    )


class TestPrediction:
    def test_zero_beta_paints_unary_regression(self):
        sample = synth.generate(SceneSpec(height=24, width=24, seed=4))
        ckpt = make_checkpoint(np.zeros(3), seed=3)
        raster = metrics.predict_image(sample, ckpt)
        data = graph.build_graph(sample, ckpt.config.graph_config())
        z, _ = unary.forward(ckpt.model, data.features.patch)
        assert np.allclose(raster, np.exp(z)[data.labels])
        assert np.array_equal(metrics.predict_graph(data, ckpt), raster)

    def test_constant_scene_constant_prediction(self):
        image = np.full((24, 24, 3), 0.5)
        sample = graph.SceneSample(image=image)
        raster = metrics.predict_image(sample, make_checkpoint(np.full(3, 2.0), seed=5))
        assert raster.shape == (24, 24)
        assert np.allclose(raster, raster[0, 0])
        assert np.all(raster > 0.0)

    def test_strong_coupling_reduces_within_region_variance(self):
        spec = SceneSpec(height=48, width=48, num_planes=2, seed=6)
        sample, regions = synth.generate_with_regions(spec)
        keys = dict(target_superpixels=36, box_size=8, patch_dim=4)
        rough = make_checkpoint(np.zeros(3), seed=7, **keys)
        smooth = make_checkpoint(np.full(3, 50.0), seed=7, **keys)
        rough_raster = metrics.predict_image(sample, rough)
        smooth_raster = metrics.predict_image(sample, smooth)
        for rid in range(regions.max() + 1):
            mask = regions == rid
            assert smooth_raster[mask].var() <= rough_raster[mask].var() + 1e-12
