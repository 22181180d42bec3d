"""Segmentation, adjacency, per-superpixel features and similarity kernels."""

import os
import signal
import threading
import tracemalloc

import graph_reference
import numpy as np
import pytest
import scipy.ndimage

from depthcrf import graph, synth
from depthcrf.crf import CrfInstance
from depthcrf.graph import GraphConfig, SceneSample
from testutil import assert_no_children, open_fds, use_cpus


def flat_scene(height=12, width=12, color=(0.4, 0.6, 0.2), depth=2.0):
    image = np.broadcast_to(np.asarray(color), (height, width, 3)).copy()
    return SceneSample(image=image, depth=np.full((height, width), depth))


def config(target, **fields):
    """A ``GraphConfig`` for ``target`` superpixels."""
    return GraphConfig(target_superpixels=target, **fields)


def grid_segment(image, target):
    """(labels, centroids) of the near-equal blocks that ``graph.segment``
    seeds SLIC from: superpixels whose features can be worked out by hand."""
    height, width = image.shape[:2]
    labels = graph._grid_labels(height, width, np.sqrt(height * width / target))
    coords = np.indices((height, width)).reshape(2, -1).T
    return labels, graph._label_means(labels, coords, labels.max() + 1)


def pixel_table(image):
    """The (row, col, r, g, b) table ``graph.segment`` hands its sweeps."""
    rows, cols = np.indices(image.shape[:2])
    return np.column_stack([rows.ravel(), cols.ravel(), image.reshape(-1, 3)])


def cell_distances(image, centres, spatial_scale, reach):
    """(count, H * W) distance of every pixel to every (row, col, r, g, b)
    centre, summed as ``graph_reference.assign`` sums it; +inf outside the
    centre's window."""
    height, width = image.shape[:2]
    rows, cols = np.indices((height, width))
    out = np.empty((len(centres), height * width))
    for k, (row, col, *colour) in enumerate(centres):
        d_color = ((image - colour) ** 2).sum(axis=2)
        d_space = (rows - row) ** 2 + (cols - col) ** 2
        covered = np.maximum(np.abs(rows - int(row)), np.abs(cols - int(col))) <= reach
        out[k] = np.where(covered, d_color + spatial_scale * d_space, np.inf).ravel()
    return out


def brute_force_adjacency(labels):
    found = set()
    h, w = labels.shape
    for r in range(h):
        for c in range(w):
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < h and cc < w and labels[r, c] != labels[rr, cc]:
                    found.add((min(labels[r, c], labels[rr, cc]),
                               max(labels[r, c], labels[rr, cc])))
    return sorted(found)


class TestSceneSample:
    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError):
            SceneSample(image=np.full((4, 4, 3), 1.5))

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            SceneSample(image=np.zeros((4, 4, 3)), depth=np.zeros((4, 4)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            SceneSample(image=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="match the image size"):
            SceneSample(image=np.zeros((4, 4, 3)), depth=np.ones((4, 5)))


class TestGridSegmentation:
    def test_four_blocks_on_ten_by_ten(self):
        image = np.zeros((10, 10, 3))
        labels, centroids = grid_segment(image, 4)
        expected = np.zeros((10, 10), dtype=int)
        expected[:5, 5:] = 1
        expected[5:, :5] = 2
        expected[5:, 5:] = 3
        assert np.array_equal(labels, expected)
        assert np.allclose(centroids, [[2, 2], [2, 7], [7, 2], [7, 7]])

    def test_labels_are_contiguous_ids(self):
        labels, _ = grid_segment(np.zeros((13, 17, 3)), 7)
        ids = np.unique(labels)
        assert np.array_equal(ids, np.arange(ids.size))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            graph.segment(np.zeros((4, 4, 3)), config(17))


class TestSlicSegmentation:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        image = rng.random((40, 40, 3))
        first, _ = graph.segment(image, config(16))
        second, _ = graph.segment(image, config(16))
        assert np.array_equal(first, second)

    def test_count_near_target(self):
        rng = np.random.default_rng(1)
        image = np.clip(rng.normal(0.5, 0.15, (64, 64, 3)), 0, 1)
        labels, centroids = graph.segment(image, config(36))
        count = labels.max() + 1
        assert 0.8 * 36 <= count <= 1.2 * 36
        assert centroids.shape == (count, 2)

    def test_superpixels_are_connected(self):
        rng = np.random.default_rng(2)
        image = np.clip(rng.normal(0.5, 0.2, (48, 48, 3)), 0, 1)
        labels, _ = graph.segment(image, config(25))
        for i in range(labels.max() + 1):
            _, pieces = scipy.ndimage.label(labels == i, structure=graph_reference.FOUR_CONNECTED)
            assert pieces == 1

    @pytest.mark.parametrize("compactness", [1e200, np.inf, np.nan])
    def test_rejects_compactness_without_a_finite_spatial_scale(self, compactness):
        # (1e200 / pitch)^2 overflows: every spatial term would be inf or nan
        with pytest.raises(ValueError):
            graph.segment(np.full((8, 8, 3), 0.5), config(4, compactness=compactness))

    def test_two_tone_boundary_respected(self):
        image = np.full((60, 60, 3), 0.05)
        image[:, 30:] = 0.95
        labels, _ = graph.segment(image, config(36, compactness=0.2))
        for i in range(labels.max() + 1):
            cols = np.nonzero(labels == i)[1]
            # entirely on one side of the tone edge, up to a 1-px wiggle
            assert cols.max() <= 30 or cols.min() >= 29


class TestAdjacency:
    def test_grid_two_by_two(self):
        labels, _ = grid_segment(np.zeros((10, 10, 3)), 4)
        edges = graph.adjacency(labels)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        image = np.clip(rng.normal(0.5, 0.2, (32, 32, 3)), 0, 1)
        labels, _ = graph.segment(image, config(12))
        assert graph.adjacency(labels).tolist() == [
            list(e) for e in brute_force_adjacency(labels)
        ]

    def test_single_superpixel_has_no_edges(self):
        labels = np.zeros((6, 6), dtype=int)
        assert graph.adjacency(labels).shape == (0, 2)

    def test_one_pixel_raster_has_no_edges(self):
        edges = graph.adjacency(np.zeros((1, 1), dtype=int))
        assert edges.shape == (0, 2) and edges.dtype == np.intp

    def test_single_row(self):
        labels = np.array([[0, 0, 2, 1, 1, 2, 3]])
        assert graph.adjacency(labels).tolist() == [[0, 2], [1, 2], [2, 3]]
        assert graph.adjacency(labels.T).tolist() == [[0, 2], [1, 2], [2, 3]]


class TestLbp:
    def test_uniform_image_single_code(self):
        codes = graph.lbp_codes(np.full((8, 8, 3), 0.37))
        assert np.all(codes == 255)

    def test_hand_computed_center_code(self):
        gray = np.arange(0.1, 1.0, 0.1).reshape(3, 3)
        image = np.repeat(gray[:, :, None], 3, axis=2)
        codes = graph.lbp_codes(image)
        # center 0.5; only the four neighbors 0.6, 0.9, 0.8, 0.7 are >=
        assert codes[1, 1] == 8 + 16 + 32 + 64

    def test_corner_uses_edge_replication(self):
        gray = np.arange(0.1, 1.0, 0.1).reshape(3, 3)
        image = np.repeat(gray[:, :, None], 3, axis=2)
        # all replicated/real neighbors of the corner are >= its value
        assert graph.lbp_codes(image)[0, 0] == 255


class TestFeatures:
    def test_constant_scene_features(self):
        sample = flat_scene(depth=3.0)
        labels, centroids = grid_segment(sample.image, 4)
        feats = graph.extract_features(sample, labels, centroids,
                                       GraphConfig(box_size=4, patch_dim=2))
        assert np.allclose(feats.mean_color, [0.4, 0.6, 0.2])
        assert np.allclose(feats.color_hist.sum(axis=1), 1.0)
        assert np.allclose(feats.lbp_hist.sum(axis=1), 1.0)
        # uniform image: all LBP mass on one bin
        assert np.allclose(feats.lbp_hist[:, 255], 1.0)
        assert np.allclose(feats.patch, np.tile([0.4, 0.6, 0.2], 4))
        assert np.allclose(feats.gt_logdepth, np.log(3.0))

    def test_color_histogram_hand_count(self):
        image = np.zeros((2, 2, 3))
        image[..., 0] = [[0.0, 0.05], [0.95, 1.0]]
        image[..., 1] = 0.55
        feats = graph.extract_features(
            SceneSample(image=image), np.zeros((2, 2), dtype=int), np.array([[0.5, 0.5]]),
            GraphConfig(box_size=2, patch_dim=1),
        )
        hist = feats.color_hist[0]
        red, green, blue = hist[:10], hist[10:20], hist[20:30]
        assert np.allclose(red, np.r_[2, 0, 0, 0, 0, 0, 0, 0, 0, 2] / 12)
        assert np.allclose(green, np.r_[0, 0, 0, 0, 0, 4, 0, 0, 0, 0] / 12)
        assert np.allclose(blue, np.r_[4, 0, 0, 0, 0, 0, 0, 0, 0, 0] / 12)
        assert abs(hist.sum() - 1.0) < 1e-9

    def test_patch_area_average_with_fractional_overlap(self):
        weights = graph._area_average_weights(3, 2)
        assert np.allclose(weights, [[2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3]])
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_area_average_weights_match_the_loop_bit_for_bit(self):
        for src in range(1, 33):
            # dst > src too, and pairs such as (25, 11) whose last cell ends a
            # rounding error past the last pixel
            for dst in range(1, 33):
                expected = graph_reference.area_average_weights(src, dst)
                assert np.array_equal(graph._area_average_weights(src, dst), expected), (src, dst)

    def test_patch_block_average(self):
        image = np.zeros((4, 4, 3))
        image[..., 0] = np.arange(16).reshape(4, 4) / 16.0
        feats = graph.extract_features(
            SceneSample(image=image), np.zeros((4, 4), dtype=int), np.array([[1.5, 1.5]]),
            GraphConfig(box_size=4, patch_dim=2),
        )
        patch = feats.patch[0].reshape(2, 2, 3)
        blocks = image[..., 0].reshape(2, 2, 2, 2).mean(axis=(1, 3))
        assert np.allclose(patch[..., 0], blocks)

    def test_patch_replicates_at_borders(self):
        image = np.zeros((6, 6, 3))
        image[..., 2] = np.linspace(0, 1, 36).reshape(6, 6)
        feats = graph.extract_features(
            SceneSample(image=image), np.zeros((6, 6), dtype=int), np.array([[0.0, 0.0]]),
            GraphConfig(box_size=4, patch_dim=4),
        )
        patch = feats.patch[0].reshape(4, 4, 3)
        rows = np.clip(np.arange(-2, 2), 0, 5)
        expected = image[np.ix_(rows, rows)][..., 2]
        assert np.allclose(patch[..., 2], expected)

    @pytest.mark.parametrize("centroid", [[-0.51, 2.0], [2.0, -0.6], [4.5, 2.0], [2.0, 6.5],
                                          [np.nan, 2.0]])
    def test_patches_reject_centroids_off_the_image(self, centroid):
        with pytest.raises(ValueError, match="centroids"):
            graph.extract_features(flat_scene(5, 7), np.zeros((5, 7), dtype=int),
                                   np.array([centroid]), GraphConfig(box_size=24, patch_dim=8))

    def test_centroid_depth_option(self):
        sample = flat_scene(height=8, width=8)
        sample.depth = np.linspace(1.0, 3.0, 64).reshape(8, 8)
        labels, centroids = grid_segment(sample.image, 1)
        mean_route = graph.extract_features(sample, labels, centroids,
                                            GraphConfig(box_size=4, patch_dim=2))
        at_centre = GraphConfig(box_size=4, patch_dim=2, use_centroid_depth=True)
        center_route = graph.extract_features(sample, labels, centroids, at_centre)
        assert np.allclose(mean_route.gt_logdepth, np.log(sample.depth.mean()))
        center = sample.depth[4, 4]  # centroid (3.5, 3.5) rounds to pixel (4, 4)
        assert np.allclose(center_route.gt_logdepth, np.log(center))
        # (2.5, 2.5) is a tie: the depth is read where the patch is centred,
        # at floor(2.5 + 0.5) = 3, not at rint(2.5) = 2
        sample = flat_scene(height=6, width=6)
        sample.depth = np.arange(1.0, 37.0).reshape(6, 6)
        labels, centroids = grid_segment(sample.image, 1)
        assert np.array_equal(centroids, [[2.5, 2.5]])
        center_route = graph.extract_features(sample, labels, centroids, at_centre)
        assert np.array_equal(center_route.gt_logdepth, np.log([sample.depth[3, 3]]))

    def test_missing_depth_gives_no_targets(self):
        sample = flat_scene()
        sample.depth = None
        labels, centroids = grid_segment(sample.image, 4)
        feats = graph.extract_features(sample, labels, centroids,
                                       GraphConfig(box_size=4, patch_dim=2))
        assert feats.gt_logdepth is None


class TestSimilarities:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        image = np.clip(rng.normal(0.5, 0.2, (24, 24, 3)), 0, 1)
        sample = SceneSample(image=image, depth=np.full((24, 24), 2.0))
        labels, centroids = grid_segment(image, 9)
        feats = graph.extract_features(sample, labels, centroids,
                                       GraphConfig(box_size=6, patch_dim=3))
        edges = graph.adjacency(labels)
        return feats, edges

    def test_structure(self):
        feats, edges = self.build()
        sims = graph.similarities(feats, GraphConfig(), edges)
        assert sims.shape == (3, len(edges))
        assert np.all(sims > 0) and np.all(sims <= 1)
        # the (E, 2) list plus its (3, E) columns is a valid CRF graph
        CrfInstance(n=int(edges.max()) + 1, similarities=sims, edges=edges)

    def test_identical_features_give_unit_similarity(self):
        sample = flat_scene()
        labels, centroids = grid_segment(sample.image, 4)
        feats = graph.extract_features(sample, labels, centroids,
                                       GraphConfig(box_size=4, patch_dim=2))
        edges = graph.adjacency(labels)
        sims = graph.similarities(feats, GraphConfig(), edges)
        assert np.allclose(sims, 1.0)

    def test_kernel_value_matches_distance(self):
        feats, edges = self.build(seed=5)
        gamma = 1.7
        cfg = GraphConfig(gamma_color=gamma, gamma_hist=gamma, gamma_lbp=gamma)
        sims = graph.similarities(feats, cfg, edges)
        p, q = edges[0]
        expected = np.exp(-gamma * np.linalg.norm(feats.mean_color[p] - feats.mean_color[q]))
        assert abs(sims[0, 0] - expected) < 1e-12


@pytest.mark.parametrize(
    "bad",
    [dict(target_superpixels=0), dict(box_size=0), dict(patch_dim=-1), dict(compactness=-1.0),
     dict(gamma_hist=0.0), dict(gamma_hist=np.inf), dict(gamma_color=np.nan),
     dict(gamma_lbp=-1.0), dict(compactness=1e200), dict(compactness=np.inf),
     dict(compactness=np.nan)],
)
def test_graph_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        GraphConfig(**bad)


class TestBuildGraph:
    def test_shapes_line_up(self):
        rng = np.random.default_rng(7)
        image = np.clip(rng.normal(0.5, 0.2, (32, 32, 3)), 0, 1)
        sample = SceneSample(image=image, depth=np.full((32, 32), 2.5))
        cfg = GraphConfig(target_superpixels=12, box_size=8, patch_dim=4)
        data = graph.build_graph(sample, cfg)
        count = data.labels.max() + 1
        assert data.instance.n == count
        assert data.features.patch.shape == (count, 4 * 4 * 3)
        assert data.features.gt_logdepth.shape == (count,)
        assert data.instance.similarities.shape == (3, len(data.edges))
        assert data.edges is data.instance.edges
        assert np.all(data.edges < count)

    def test_instance_holds_the_ground_truth(self):
        sample = synth.generate(synth.SceneSpec(height=32, width=32, seed=3))
        cfg = GraphConfig(target_superpixels=12, box_size=8, patch_dim=4)
        data = graph.build_graph(sample, cfg)
        y, truth = data.instance.y, data.features.gt_logdepth
        assert y.dtype == truth.dtype and y.tobytes() == truth.tobytes()
        sample.depth = None
        assert graph.build_graph(sample, cfg).instance.y is None

    def test_periodic_shift_permutes_features(self):
        rng = np.random.default_rng(9)
        tile_img = rng.random((3, 3, 3))
        tile_depth = rng.uniform(1.0, 5.0, (3, 3))
        image = np.tile(tile_img, (5, 5, 1))
        depth = np.tile(tile_depth, (5, 5))
        rolled_img = np.roll(image, (3, 3), axis=(0, 1))
        rolled_depth = np.roll(depth, (3, 3), axis=(0, 1))

        def features_of(img, dep):
            sample = SceneSample(image=img, depth=dep)
            labels, centroids = grid_segment(img, 25)
            return graph.extract_features(sample, labels, centroids,
                                          GraphConfig(box_size=3, patch_dim=3))

        base = features_of(image, depth)
        moved = features_of(rolled_img, rolled_depth)
        # content of interior cell (i, j) lands in cell (i+1, j+1); compare
        # cells whose 1-px halo stays interior in both rasters
        for i in (1, 2):
            for j in (1, 2):
                src, dst = i * 5 + j, (i + 1) * 5 + (j + 1)
                for name in ("mean_color", "color_hist", "lbp_hist", "patch"):
                    a = getattr(base, name)[src]
                    b = getattr(moved, name)[dst]
                    assert np.allclose(a, b, atol=1e-12), name
                assert abs(base.gt_logdepth[src] - moved.gt_logdepth[dst]) < 1e-12


REFERENCE_CORPUS = [
    synth.SceneSpec(texture=texture, seed=seed)
    for texture, seed in (("noise", 11), ("gradient", 12), ("flat", 13))
]


class TestAgainstReferenceLoops:
    """The blocked front end against the loop-per-item versions it replaced."""

    @pytest.mark.parametrize("target", [150, 700, 2000], ids="{}-slic".format)
    def test_graph_matches_reference(self, target):
        cfg = GraphConfig(target_superpixels=target)
        for spec in REFERENCE_CORPUS:
            sample = synth.generate(spec)
            fast = graph.build_graph(sample, cfg)
            slow = graph_reference.build_graph(sample, cfg)
            for name in ("labels", "edges"):
                assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
            for name in ("n", "similarities", "y"):
                assert np.array_equal(getattr(fast.instance, name),
                                      getattr(slow.instance, name)), name
            # graph_reference.segment returns the centroids of its final labels
            centroids = graph_reference.centroids(slow.labels, slow.instance.n)
            assert np.array_equal(graph.segment(sample.image, cfg)[1], centroids), "centroids"
            for name in ("mean_color", "color_hist", "lbp_hist", "patch", "gt_logdepth"):
                assert np.array_equal(
                    getattr(fast.features, name), getattr(slow.features, name)
                ), name

    @pytest.mark.parametrize("block_cells", [1, 50, 10**6])
    def test_assignment_independent_of_block_size(self, monkeypatch, block_cells):
        rng = np.random.default_rng(4)
        image = rng.random((23, 31, 3))
        fallback = graph._grid_labels(23, 31, np.sqrt(23 * 31 / 20))
        centers = graph_reference.centroids(fallback, fallback.max() + 1)
        centers += rng.uniform(-1.5, 1.5, centers.shape)
        centers = np.clip(centers, 0, [22, 30])
        colors = rng.random((len(centers), 3))
        args = (image, centers, colors, 0.01, 5, fallback)
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        centres = np.hstack([centers, colors])
        labels, _ = graph._assign(pixel_table(image), centres, *args[3:], fallback)
        assert np.array_equal(labels, graph_reference.assign(*args))

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_assignment_with_windows_overhanging_every_border(self, monkeypatch, block_cells):
        rng = np.random.default_rng(8)
        image = rng.random((3, 4, 3))
        centers = rng.uniform(0, [2, 3], (5, 2))
        colors = rng.random((5, 3))
        # reach 4: every 9x9 window sticks out past all four borders
        fallback = graph._grid_labels(3, 4, np.sqrt(3 * 4 / 5))
        args = (image, centers, colors, 0.3, 4, fallback)
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        centres = np.hstack([centers, colors])
        # the 2 x 3 grid holds id 5, which names none of the 5 centres
        hint = np.minimum(fallback, len(centres) - 1)
        labels, _ = graph._assign(pixel_table(image), centres, *args[3:], hint)
        assert np.array_equal(labels, graph_reference.assign(*args))

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_assignment_matches_reference_for_any_hint(self, monkeypatch, block_cells):
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(12)
        for case in range(150):
            height, width = rng.integers(1, 14, 2)
            count = int(rng.integers(1, 12))
            # few colour levels and half-pixel centres force exact ties
            levels = int(rng.integers(2, 5))
            image = rng.integers(0, levels, (height, width, 3)) / (levels - 1)
            colors = rng.integers(0, levels, (count, 3)) / (levels - 1)
            centers = np.round(rng.uniform(0, [height - 1, width - 1], (count, 2)) * 2) / 2
            if case % 2:
                centers += rng.uniform(0, 0.5, centers.shape)
            spatial_scale = float(rng.choice([0.0, 0.02, 0.3, 1.0]))
            reach = int(rng.integers(0, 15))  # up to windows past every border
            fallback = rng.integers(0, count, (height, width))
            args = (image, centers, colors, spatial_scale, reach, fallback)
            expected = graph_reference.assign(*args)
            # any centre ids, the exact answer and a sweep-like hint
            hints = [
                rng.integers(0, count, (height, width)),
                expected,
                np.where(rng.random((height, width)) < 0.3, fallback, expected),
            ]
            table, centres = pixel_table(image), np.hstack([centers, colors])
            for hint in hints:
                labels, _ = graph._assign(table, centres, *args[3:], hint)
                assert np.array_equal(labels, expected), case

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_sweep_after_a_move_matches_reference(self, monkeypatch, block_cells):
        # given the labels and distances of a sweep before some centres
        # moved, a sweep re-decides only what the moved ones can change; its
        # labels must be the reference's for the new centres, and its
        # distances a full sweep's, since the next such sweep starts from them
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(25)
        seen = dict.fromkeys(["closer", "away", "anchor", "uncovered", "unmoved tie"], 0)
        for case in range(150):
            height, width = rng.integers(1, 14, 2)
            count = int(rng.integers(1, 12))
            # few colour levels and half-pixel centres force exact ties
            levels = int(rng.integers(2, 5))
            image = rng.integers(0, levels, (height, width, 3)) / (levels - 1)
            last_pixel = [height - 1, width - 1]
            before = np.hstack([np.round(rng.uniform(0, last_pixel, (count, 2)) * 2) / 2,
                                rng.integers(0, levels, (count, 3)) / (levels - 1)])
            spatial_scale = float(rng.choice([0.0, 0.02, 0.3, 1.0]))
            reach = int(rng.integers(0, 15))  # up to windows past every border
            fallback = rng.integers(0, count, (height, width))
            table = pixel_table(image)
            hint, last = graph._assign(table, before, spatial_scale, reach, fallback, fallback)
            # centres step by half or whole pixels or jump, some change
            # colour, and a random share keeps its row
            after = before.copy()
            step = rng.choice([0.5, 1.0, 3.0, 20.0], (count, 1)) * rng.integers(-1, 2, (count, 2))
            after[:, :2] = np.clip(after[:, :2] + step, 0, last_pixel)
            recolour = rng.random(count) < 0.3
            after[recolour, 2:] = rng.integers(0, levels, (recolour.sum(), 3)) / (levels - 1)
            keep = rng.random(count) < rng.choice([0.0, 0.5, 0.8])
            after[keep] = before[keep]
            moved = np.any(after != before, axis=1)

            args = (spatial_scale, reach, fallback, hint)
            labels, best = graph._assign(table, after, *args, moved, last)
            expected = graph_reference.assign(image, after[:, :2], after[:, 2:], *args[:3])
            assert np.array_equal(labels, expected), case
            assert np.array_equal(best, graph._assign(table, after, *args)[1]), case

            dists = cell_distances(image, after, spatial_scale, reach)
            own = dists[hint.ravel(), np.arange(height * width)]
            seen["closer"] += np.sum(moved[hint.ravel()] & (own < last))
            seen["away"] += np.sum(moved[hint.ravel()] & (own > last))
            seen["anchor"] += np.sum(np.any(after[:, :2].astype(int) != before[:, :2].astype(int),
                                            axis=1))
            seen["uncovered"] += np.sum((last < np.inf) & (best == np.inf))
            # an unmoved centre at a pixel's best distance beside another centre
            at_best = (dists == best) & (best < np.inf)
            seen["unmoved tie"] += np.sum(at_best[~moved].any(axis=0) & (at_best.sum(axis=0) > 1))
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("target, compactness, steps", [
        (700, 0.2, 3), (150, 1.0, None), (50, 5.0, 2),
    ])
    def test_segment_matches_reference_after_moves(self, monkeypatch, target, compactness,
                                                   steps):
        # tie-heavy scenes quantized to steps + 1 levels, and compactness
        # values at which the centres settle sooner; each takes at least one
        # sweep that re-decides only what the moved centres can change
        image = synth.generate(REFERENCE_CORPUS[0]).image
        if steps is not None:
            image = np.round(image * steps) / steps
        flags = []
        assign = graph._assign

        def counted(*args):
            flags.append(args[6])
            return assign(*args)

        monkeypatch.setattr(graph, "_assign", counted)
        labels, centroids = graph.segment(image, config(target, compactness=compactness))
        slow_labels, slow_centroids = graph_reference.segment(image, target, compactness)
        assert np.array_equal(labels, slow_labels)
        assert np.array_equal(centroids, slow_centroids)
        assert flags[0] is None and any(flag is not None for flag in flags)

    def test_late_sweeps_scan_only_some_centres(self, monkeypatch):
        # one centre per block: each scanned window makes one _distance call,
        # and each sweep's U(p) one more; a silent fall back to full sweeps
        # would scan every centre's window in every sweep
        monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        sweeps = []
        distance, assign = graph._distance, graph._assign

        def counted_distance(*args):
            sweeps[-1][1] += 1
            return distance(*args)

        def counted_assign(*args):
            sweeps.append([len(args[1]), -1])
            return assign(*args)

        monkeypatch.setattr(graph, "_distance", counted_distance)
        monkeypatch.setattr(graph, "_assign", counted_assign)
        # test_graph_matches_reference[700-slic] checks this scene's labels
        graph.segment(synth.generate(REFERENCE_CORPUS[0]).image, config(700))
        (count, first), (_, last) = sweeps[0], sweeps[-1]
        assert first == count
        assert last < count // 4, sweeps

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    @pytest.mark.parametrize("height, width, box_size, patch_dim",
                             [(5, 7, 24, 8), (5, 7, 7, 3), (16, 13, 6, 4), (30, 40, 9, 9)])
    def test_patches_match_reference_at_every_border(self, monkeypatch, block_cells,
                                                     height, width, box_size, patch_dim):
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(height * width + box_size)
        image = rng.random((height, width, 3))
        last_r, last_c = height - 1, width - 1
        # corners, every edge, centroids rounding onto a border, the interior
        centroids = np.array([
            [0, 0], [0, last_c], [last_r, 0], [last_r, last_c],
            [0, width / 2], [last_r, width / 3], [height / 2, 0], [height / 3, last_c],
            [-0.5, -0.5], [last_r + 0.49, last_c + 0.49], [height / 2, width / 2],
        ])
        centroids = np.vstack([centroids, rng.uniform(-0.5, [last_r + 0.49, last_c + 0.49],
                                                      (9, 2))])
        labels = np.arange(height * width).reshape(height, width) % len(centroids)
        feats = graph.extract_features(SceneSample(image=image), labels, centroids,
                                       GraphConfig(box_size=box_size, patch_dim=patch_dim))
        expected = graph_reference.patches(image, centroids, box_size, patch_dim)
        assert np.array_equal(feats.patch, expected)

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_similarities_match_reference(self, monkeypatch, block_cells):
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(14)
        count = 40
        feats = graph.SuperpixelFeatures(
            mean_color=rng.random((count, 3)),
            color_hist=rng.dirichlet(np.ones(3 * graph.COLOR_BINS), count),
            lbp_hist=rng.dirichlet(np.ones(graph.LBP_BINS), count),
            patch=np.zeros((count, 0)), gt_logdepth=None,
        )
        edges = np.array(sorted({tuple(sorted(pair)) for pair in rng.integers(0, count, (300, 2))
                                 if pair[0] != pair[1]}))
        cfg = GraphConfig(gamma_color=0.7, gamma_hist=2.0, gamma_lbp=3.5)
        assert np.array_equal(graph.similarities(feats, cfg, edges),
                              graph_reference.similarities(feats, cfg.gammas, edges))

    def test_hint_bound_is_the_reference_cell_distance(self):
        # _assign drops a surviving cell of the hinted centre because its
        # distance is U(p) to the bit; U(p) must therefore be the reference's
        # per-cell distance wherever the hinted window covers p, else +inf
        rng = np.random.default_rng(18)
        at_reach = beyond_reach = 0
        for case in range(200):
            height, width = rng.integers(1, 15, 2)
            count = int(rng.integers(1, 10))
            image = rng.random((height, width, 3))
            colors = rng.random((count, 3))
            # centres anywhere on the raster, a third of their coordinates
            # on or within half a pixel of a border
            last = np.array([height - 1, width - 1], dtype=float)
            centers = rng.uniform(0, last, (count, 2))
            near = rng.choice([0.0, 0.4], (count, 2))
            near = np.clip(np.where(rng.random((count, 2)) < 0.5, last - near, near), 0, None)
            centers = np.where(rng.random((count, 2)) < 1 / 3, near, centers)
            spatial_scale = float(rng.choice([0.0, 0.02, 0.3, 1.0, rng.random()]))
            reach = int(rng.integers(0, 6))
            hint = rng.integers(0, count, (height, width))

            rows, cols = np.indices((height, width))
            d_color = ((image - colors[hint]) ** 2).sum(axis=2)
            d_space = (rows - centers[hint, 0]) ** 2 + (cols - centers[hint, 1]) ** 2
            offsets = np.maximum(np.abs(rows - centers[hint, 0].astype(int)),
                                 np.abs(cols - centers[hint, 1].astype(int)))
            covered = offsets <= reach
            expected = np.where(covered, d_color + spatial_scale * d_space, np.inf)
            at_reach += np.sum(offsets == reach)
            beyond_reach += np.sum(offsets == reach + 1)

            args = (np.hstack([centers, colors]).T.copy(), centers.T.astype(np.intp),
                    spatial_scale, reach, hint)
            for table in (pixel_table(image), np.asfortranarray(pixel_table(image))):
                bound = graph._hint_bound(table, slice(None), *args)
                assert np.array_equal(bound, expected.ravel()), case
                # a sweep after a move recomputes U(p) at some pixels only
                slot = np.arange(case % 3, height * width, 3)
                part = graph._hint_bound(table, slot, *args[:-1], hint.ravel()[slot])
                assert np.array_equal(part, expected.ravel()[slot]), case
        assert at_reach > 100 and beyond_reach > 100

    @pytest.mark.parametrize("height, width, target", [
        (1, 1, 1), (1, 5, 2), (5, 1, 3), (2, 2, 4), (3, 7, 21), (1, 40, 7), (9, 2, 5),
    ])
    def test_degenerate_shapes_match_reference(self, height, width, target):
        rng = np.random.default_rng(height * 100 + width)
        for image in (rng.random((height, width, 3)), np.full((height, width, 3), 0.5)):
            labels, centroids = graph.segment(image, config(target))
            slow_labels, slow_centroids = graph_reference.segment(image, target)
            assert np.array_equal(labels, slow_labels)
            assert np.array_equal(centroids, slow_centroids)

    def test_connectivity_repair_on_fragmented_labels(self):
        rng = np.random.default_rng(5)
        shapes = [(1, 1), (1, 13), (13, 1)]
        shapes += [tuple(rng.integers(1, 25, 2)) for _ in range(187)]
        rasters = [rng.integers(0, rng.integers(1, 40), shape) for shape in shapes]
        for shape in shapes[3:8]:  # blocks with speckle: large components and orphans
            blocks = np.kron(rng.integers(0, 6, (9, 9)), np.ones((3, 3), dtype=int))
            blocks = blocks[: shape[0], : shape[1]]
            rasters.append(np.where(rng.random(shape) < 0.2, rng.integers(0, 6, shape), blocks))
        # every pixel its own component, so orphans merge over several rounds
        rasters.append(np.indices((8, 9)).sum(axis=0) % 2)
        rasters += [5 * labels + 3 for labels in rasters[3:8]]  # ids with gaps
        for labels in rasters:
            fast, fast_count = graph._enforce_connectivity(labels)
            slow, slow_count = graph_reference.enforce_connectivity(labels, labels.max() + 1)
            assert fast_count == slow_count
            assert np.array_equal(fast, slow)

    def test_slic_stops_at_a_fixed_point(self, monkeypatch):
        calls = []
        assign = graph._assign

        def counted(*args, **kwargs):
            calls.append(args)
            return assign(*args, **kwargs)

        monkeypatch.setattr(graph, "_assign", counted)
        # test_graph_matches_reference[2000-slic] checks this scene's labels
        graph.segment(synth.generate(REFERENCE_CORPUS[0]).image, config(2000))
        assert len(calls) < 10

    def test_fixed_point_needs_unchanged_colours_too(self):
        # the first update leaves both centres in place but moves their
        # colours from one sampled pixel to the cell mean, and the sweep
        # after it regroups the pixels by grey level
        grey = np.array([[0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 1]])
        image = np.repeat(grey[:, :, None], 3, axis=2).astype(float)
        labels, _ = graph.segment(image, config(2))
        assert np.array_equal(labels, graph_reference.segment(image, 2)[0])

    def test_component_numbering_matches_a_doubled_grid_labelling(self):
        # scipy.ndimage.label on a (2H-1, 2W-1) grid whose cell between two
        # 4-neighbours is on where they share a label numbers each component
        # by its first pixel in raster order, as the repair's queue needs
        rng = np.random.default_rng(6)
        interlocked = np.zeros((128, 128), dtype=int)
        interlocked[:-1, 1::2] = 1
        interlocked[0] = 1  # two combs: long chains of one-pixel runs
        rasters = [np.zeros((1, 1), int), rng.integers(0, 3, (1, 13)), rng.integers(0, 3, (13, 1)),
                   np.full((6, 7), 4), np.indices((8, 9)).sum(axis=0) % 2, spiral_corridor(128),
                   interlocked]
        for count in np.repeat([2, 3, 7, 40, 700], 40):
            shape = tuple(rng.integers(1, 40, 2))
            rasters.append(5 * rng.integers(0, count, shape) + 3)  # ids with gaps
        for labels in rasters:
            same_row, same_col = labels[:, :-1] == labels[:, 1:], labels[:-1] == labels[1:]
            grid = np.ones(2 * np.array(labels.shape) - 1, dtype=bool)
            grid[1::2, 1::2] = False
            grid[::2, 1::2], grid[1::2, ::2] = same_row, same_col
            expected = scipy.ndimage.label(grid)[0][::2, ::2].ravel() - 1
            assert np.array_equal(graph._components(same_row, same_col), expected)


def spiral_corridor(side):
    """Label 0 on a one-pixel corridor spiralling inwards from the top-left
    corner of a ``side`` square, label 1 on the wall between its turns."""
    raster = np.ones((side, side), dtype=int)
    row, col, d_row, d_col = 0, 0, 0, 1
    raster[0, 0] = 0
    while True:
        for _ in range(2):  # straight on, else a clockwise turn
            row1, col1, row2, col2 = row + d_row, col + d_col, row + 2 * d_row, col + 2 * d_col
            fresh = 0 <= row1 < side and 0 <= col1 < side and raster[row1, col1] == 1
            if fresh and not (0 <= row2 < side and 0 <= col2 < side and raster[row2, col2] == 0):
                row, col = row1, col1
                raster[row, col] = 0
                break
            d_row, d_col = d_col, -d_row
        else:
            return raster


class TestAssignmentSemantics:
    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_exact_ties_go_to_the_lowest_centre_index(self, monkeypatch, block_cells):
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        image = np.full((7, 7, 3), 0.3)
        # symmetric centres, deliberately not listed in raster order
        centers = np.array([[5.0, 5.0], [1.0, 5.0], [5.0, 1.0], [1.0, 1.0]])
        colors = np.full((4, 3), 0.3)
        fallback = np.zeros((7, 7), int)
        centres = np.hstack([centers, colors])
        labels, _ = graph._assign(pixel_table(image), centres, 1.0, 6, fallback, fallback)
        rows, cols = np.indices((7, 7))
        dists = np.stack(
            [(rows - r) ** 2 + (cols - c) ** 2 for r, c in centers]
        ).astype(float)
        # np.argmin returns the first of equal minima
        assert np.array_equal(labels, np.argmin(dists, axis=0))
        assert labels[3, 3] == 0  # equidistant from all four centres
        assert labels[3, 0] == 2 and labels[0, 3] == 1

    def test_pixel_outside_every_window_keeps_seed_label(self):
        image = np.full((1, 9, 3), 0.5)
        centers = np.array([[0.0, 0.0], [0.0, 8.0]])
        colors = np.full((2, 3), 0.5)
        fallback = np.array([[1, 1, 1, 1, 1, 0, 0, 0, 0]])
        args = (image, centers, colors, 1.0, 2, fallback)
        labels, _ = graph._assign(pixel_table(image), np.hstack([centers, colors]), *args[3:],
                               fallback)
        assert labels.tolist() == [[0, 0, 0, 1, 1, 0, 1, 1, 1]]
        assert np.array_equal(labels, graph_reference.assign(*args))

    def test_centre_without_pixels_keeps_position_and_colour(self):
        image = np.zeros((2, 4, 3))
        image[:, 2:] = 0.8
        labels = np.array([[0, 0, 2, 2], [0, 0, 2, 2]])
        centers = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
        colors = np.array([[0.1, 0.1, 0.1], [0.4, 0.5, 0.6], [0.9, 0.9, 0.9]])
        centres = np.hstack([centers, colors])
        moved = graph._update_centers(pixel_table(image), labels, centres)
        assert moved.tolist() == [True, False, True]
        assert np.array_equal(centres[:, :2], [[0.5, 0.5], [1.0, 1.0], [0.5, 2.5]])
        assert np.allclose(centres[:, 2:], [[0, 0, 0], [0.4, 0.5, 0.6], [0.8, 0.8, 0.8]])

    def test_size_tie_keeps_first_component_in_raster_order(self):
        labels = np.array([[0, 0, 1, 0, 0], [2, 2, 1, 2, 2]])
        final, count = graph._enforce_connectivity(labels)
        # labels 0 and 2 each split into two equal pieces: the left piece
        # (first in raster order) stays and the right one merges into 1
        assert count == 3
        assert final.tolist() == [[0, 0, 1, 1, 1], [2, 2, 1, 1, 1]]

    def test_orphans_merge_in_label_then_raster_order(self):
        labels = np.array([[0, 0, 1, 2, 1, 1, 1, 2, 2, 2]])
        final, _ = graph._enforce_connectivity(labels)
        # label 1's orphan merges first (into 0), so label 2's orphan then
        # sees 0 and 1 equally and takes 0; the reverse order would give 1
        assert final.tolist() == [[0, 0, 0, 0, 1, 1, 1, 2, 2, 2]]
        slow, _ = graph_reference.enforce_connectivity(labels, 3)
        assert np.array_equal(final, slow)

    def test_orphans_count_each_adjacent_pixel_once(self):
        labels = np.array([[2, 2, 2, 2, 2, 2], [2, 3, 3, 3, 2, 2], [1, 3, 0, 3, 1, 1],
                           [0, 0, 0, 0, 0, 0], [3, 3, 3, 3, 3, 3]])
        final, _ = graph._enforce_connectivity(labels)
        # label 3's orphan touches five 2-pixels and four 0-pixels, one of
        # them (0's merged orphan) from three sides: counting pixels gives 2,
        # counting adjacencies would give 0
        assert final.tolist() == [[2, 2, 2, 2, 2, 2], [2, 2, 2, 2, 2, 2], [0, 2, 0, 2, 1, 1],
                                  [0, 0, 0, 0, 0, 0], [3, 3, 3, 3, 3, 3]]
        slow, _ = graph_reference.enforce_connectivity(labels, 4)
        assert np.array_equal(final, slow)

    def test_strays_merge_where_components_times_pixels_passes_2_pow_31(self):
        # 128 x 128 blocks of 4 x 4 pixels: 16384 components over 262144
        # pixels, so a component id times the pixel count needs 64 bits
        blocks = graph._grid_labels(512, 512, 4)
        labels = blocks.copy()
        expected = blocks.copy()
        # single stray pixels inside late blocks merge into the block around them
        for row, col in [(505, 501), (509, 17), (501, 510)]:
            labels[row, col] = blocks[0, 0]
        # a stray pair across a block border sees 3 pixels of each block: the lower wins
        labels[509, 491:493] = blocks[0, 8]
        expected[509, 491:493] = min(blocks[509, 491], blocks[509, 492])
        final, count = graph._enforce_connectivity(labels)
        assert count == blocks.max() + 1
        assert np.array_equal(final, expected)


def front_end_peak(target):
    """tracemalloc peak of segmenting and describing the seed-3 synth scene."""
    sample = synth.generate(synth.SceneSpec(seed=3))
    tracemalloc.start()
    try:
        cfg = GraphConfig(target_superpixels=target, box_size=24, patch_dim=8)
        labels, centroids = graph.segment(sample.image, cfg)
        graph.extract_features(sample, labels, centroids, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_front_end_working_set_stays_small():
    assert front_end_peak(700) < 8 * 2**20


def test_front_end_working_set_stays_small_at_150_superpixels():
    # reach 21 here, so windows overhang the 128x128 image far more than at
    # 700; sweeps over the fully padded image peaked at 4.29 MB
    assert front_end_peak(150) < 3.5 * 2**20


def test_graph_working_set_stays_small_at_2000_superpixels():
    # the LBP channel's (E, 256) differences, taken over all edges at once,
    # peaked at 27.3 MiB here
    sample = synth.generate(synth.SceneSpec(seed=3))
    tracemalloc.start()
    try:
        graph.build_graph(sample, GraphConfig(target_superpixels=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _square(item, offset=0):
    return item * item + offset


def _fail_at(failing):
    def fn(item):
        if item in failing:
            raise ValueError(f"item {item}")
        return item
    return fn


class _ExitWhilePickled:
    def __reduce__(self):
        os._exit(0)


def _die_in_children(how):
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(0)
            if how == "mid-stream":  # after about 1 MB of results went down the pipe
                return bytes(2**20), _ExitWhilePickled()
            raise {"system-exit": SystemExit(0), "interrupt": KeyboardInterrupt()}[how]
        return item
    return fn


class TestMapScenes:
    DEADLINE_S = 60  # a map that blocks fails the test instead of hanging the suite

    @pytest.fixture(autouse=True)
    def _leaves_no_child_and_no_descriptor(self):
        def expire(signum, frame):
            raise TimeoutError(f"map_scenes took more than {self.DEADLINE_S} s")
        before = open_fds()
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, self.DEADLINE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert open_fds() == before
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_results_are_the_serial_loops(self, monkeypatch, cpus, count):
        use_cpus(monkeypatch, cpus)
        assert graph.map_scenes(_square, range(count), 3) == [i * i + 3 for i in range(count)]

    def test_one_item_never_forks(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", None)  # calling it would raise TypeError
        assert graph.map_scenes(_square, [4]) == [16]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("failing", [{1, 2}, {0, 1}, {2, 3}, {1, 3}, {3}, {4}, {3, 4}],
                             ids=str)
    def test_the_first_failing_item_raises(self, monkeypatch, cpus, failing):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"^item {min(failing)}$"):
            graph.map_scenes(_fail_at(failing), list(range(5)))

    @pytest.mark.parametrize("how", ["exit", "system-exit", "interrupt", "mid-stream"])
    def test_a_child_that_returns_nothing_is_an_error(self, monkeypatch, how):
        use_cpus(monkeypatch, 2)
        with pytest.raises(OSError, match="exited without returning its results"):
            graph.map_scenes(_die_in_children(how), list(range(4)))

    def test_an_error_in_the_callers_half_leaves_no_child_blocked_on_a_full_pipe(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="^item 0$"):  # the child's 1 MB outgrows the pipe
            graph.map_scenes(lambda item: bytes(2**20) if item else _fail_at({0})(item), range(2))

    def test_the_child_takes_the_second_half(self, monkeypatch):
        use_cpus(monkeypatch, 16)
        pids = graph.map_scenes(lambda item: os.getpid(), range(5))
        assert pids[:3] == [os.getpid()] * 3
        assert pids[3] == pids[4] != os.getpid()

    def test_no_fork_where_it_would_warn_about_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # runs on 3.12 too
        monkeypatch.setattr(graph, "FORK_WARNS_WITH_THREADS", True)
        monkeypatch.setattr(os, "fork", None)  # calling it would raise TypeError
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert graph.map_scenes(_square, range(4)) == [0, 1, 4, 9]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

        def unlistable(path):
            raise OSError("no such directory")
        monkeypatch.setattr(os, "listdir", unlistable)  # so the thread count is unknown
        assert graph.map_scenes(_square, range(4)) == [0, 1, 4, 9]

    def test_a_failed_fork_leaves_no_child_and_no_descriptor(self, monkeypatch):
        use_cpus(monkeypatch, 3)

        def fork():
            raise BlockingIOError("fork refused")
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(BlockingIOError, match="fork refused"):
            graph.map_scenes(_square, range(6))
