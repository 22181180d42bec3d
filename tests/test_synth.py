"""Synthetic scene generation: determinism, geometry, appearance coupling."""

import numpy as np
import pytest
import scipy.stats

from depthcrf import graph, synth
from depthcrf.synth import SceneSpec


class TestSpecValidation:
    def test_rejects_bad_depth_range(self):
        with pytest.raises(ValueError):
            SceneSpec(depth_min=5.0, depth_max=1.0)
        with pytest.raises(ValueError):
            SceneSpec(depth_min=0.0, depth_max=2.0)

    def test_rejects_unknown_texture(self):
        with pytest.raises(ValueError):
            SceneSpec(texture="plaid")

    def test_rejects_tiny_raster(self):
        with pytest.raises(ValueError):
            SceneSpec(height=4, width=4)


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = SceneSpec(height=32, width=32, seed=11)
        a = synth.generate(spec)
        b = synth.generate(spec)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.depth, b.depth)

    def test_different_seeds_differ(self):
        a = synth.generate(SceneSpec(height=32, width=32, seed=1))
        b = synth.generate(SceneSpec(height=32, width=32, seed=2))
        assert not np.array_equal(a.depth, b.depth)

    def test_depth_stays_in_range(self):
        for seed in range(5):
            spec = SceneSpec(height=40, width=48, num_planes=6, seed=seed)
            sample = synth.generate(spec)
            assert sample.depth.min() >= spec.depth_min
            assert sample.depth.max() <= spec.depth_max

    def test_region_count(self):
        for planes in (1, 3, 7):
            _, regions = synth.generate_with_regions(
                SceneSpec(height=48, width=48, num_planes=planes, seed=3)
            )
            assert regions.max() + 1 == planes

    def test_single_flat_plane(self):
        spec = SceneSpec(
            height=24, width=24, num_planes=1, texture="flat", noise_sigma=0.0, seed=5
        )
        sample = synth.generate(spec)
        assert np.allclose(sample.image, sample.image[0, 0])
        # planar depth: both second differences vanish
        assert np.allclose(np.diff(sample.depth, n=2, axis=0), 0.0, atol=1e-9)
        assert np.allclose(np.diff(sample.depth, n=2, axis=1), 0.0, atol=1e-9)

    def test_depth_jumps_only_on_region_boundaries(self):
        spec = SceneSpec(height=48, width=48, num_planes=5, seed=7)
        sample, regions = synth.generate_with_regions(spec)
        span = spec.depth_max - spec.depth_min
        tol = 1e-9
        col_bound = synth.SLOPE_BUDGET * span / spec.width + tol
        row_bound = synth.SLOPE_BUDGET * span / spec.height + tol
        col_jumps = np.abs(np.diff(sample.depth, axis=1))
        col_same = regions[:, :-1] == regions[:, 1:]
        assert np.all(col_jumps[col_same] <= col_bound)
        row_jumps = np.abs(np.diff(sample.depth, axis=0))
        row_same = regions[:-1, :] == regions[1:, :]
        assert np.all(row_jumps[row_same] <= row_bound)

    def test_appearance_predicts_depth(self):
        # across superpixel edges, color distance and log-depth distance
        # must be positively rank-correlated
        spec = SceneSpec(height=64, width=64, num_planes=5, seed=9)
        sample = synth.generate(spec)
        cfg = graph.GraphConfig(target_superpixels=49, box_size=8, patch_dim=4)
        labels, centroids = graph.segment(sample.image, cfg)
        feats = graph.extract_features(sample, labels, centroids, cfg)
        p, q = graph.adjacency(labels).T
        color_dist = np.linalg.norm(feats.mean_color[p] - feats.mean_color[q], axis=1)
        depth_dist = np.abs(feats.gt_logdepth[p] - feats.gt_logdepth[q])
        rho = scipy.stats.spearmanr(color_dist, depth_dist).statistic
        assert rho > 0.2


class TestDataset:
    def test_deterministic(self):
        spec = SceneSpec(height=24, width=24)
        first = synth.generate_dataset(spec, count=3, seed=4)
        second = synth.generate_dataset(spec, count=3, seed=4)
        for a, b in zip(first, second):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.depth, b.depth)

    def test_samples_are_distinct(self):
        samples = synth.generate_dataset(SceneSpec(height=24, width=24), count=4, seed=0)
        rasters = {s.depth.tobytes() for s in samples}
        assert len(rasters) == 4

    def test_disjoint_seeds_give_disjoint_samples(self):
        train = synth.generate_dataset(SceneSpec(height=24, width=24), count=4, seed=0)
        test = synth.generate_dataset(SceneSpec(height=24, width=24), count=4, seed=1)
        train_hashes = {s.depth.tobytes() for s in train}
        test_hashes = {s.depth.tobytes() for s in test}
        assert not (train_hashes & test_hashes)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synth.generate_dataset(SceneSpec(), count=0, seed=0)
