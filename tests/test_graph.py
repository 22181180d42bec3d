"""Segmentation, adjacency, per-superpixel features and similarity kernels."""

import tracemalloc

import graph_reference
import numpy as np
import pytest
import scipy.ndimage

from depthcrf import graph, synth
from depthcrf.crf import CrfInstance
from depthcrf.graph import GraphConfig, SceneSample


def flat_scene(height=12, width=12, color=(0.4, 0.6, 0.2), depth=2.0):
    image = np.broadcast_to(np.asarray(color), (height, width, 3)).copy()
    return SceneSample(image=image, depth=np.full((height, width), depth))


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


class TestGridSegmentation:
    def test_four_blocks_on_ten_by_ten(self):
        image = np.zeros((10, 10, 3))
        labels, centroids = graph.segment(image, 4, mode="grid")
        expected = np.zeros((10, 10), dtype=int)
        expected[:5, 5:] = 1
        expected[5:, :5] = 2
        expected[5:, 5:] = 3
        assert np.array_equal(labels, expected)
        assert np.allclose(centroids, [[2, 2], [2, 7], [7, 2], [7, 7]])

    def test_labels_are_contiguous_ids(self):
        labels, _ = graph.segment(np.zeros((13, 17, 3)), 7, mode="grid")
        ids = np.unique(labels)
        assert np.array_equal(ids, np.arange(ids.size))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            graph.segment(np.zeros((4, 4, 3)), 17, mode="grid")
        with pytest.raises(ValueError):
            graph.segment(np.zeros((4, 4, 3)), 0, mode="grid")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            graph.segment(np.zeros((4, 4, 3)), 2, mode="watershed")


class TestSlicSegmentation:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        image = rng.random((40, 40, 3))
        first, _ = graph.segment(image, 16)
        second, _ = graph.segment(image, 16)
        assert np.array_equal(first, second)

    def test_count_near_target(self):
        rng = np.random.default_rng(1)
        image = np.clip(rng.normal(0.5, 0.15, (64, 64, 3)), 0, 1)
        labels, centroids = graph.segment(image, 36)
        count = labels.max() + 1
        assert 0.8 * 36 <= count <= 1.2 * 36
        assert centroids.shape == (count, 2)

    def test_superpixels_are_connected(self):
        rng = np.random.default_rng(2)
        image = np.clip(rng.normal(0.5, 0.2, (48, 48, 3)), 0, 1)
        labels, _ = graph.segment(image, 25)
        for i in range(labels.max() + 1):
            _, pieces = scipy.ndimage.label(labels == i, structure=graph.FOUR_CONNECTED)
            assert pieces == 1

    def test_two_tone_boundary_respected(self):
        image = np.full((60, 60, 3), 0.05)
        image[:, 30:] = 0.95
        labels, _ = graph.segment(image, 36, compactness=0.2)
        for i in range(labels.max() + 1):
            cols = np.nonzero(labels == i)[1]
            # entirely on one side of the tone edge, up to a 1-px wiggle
            assert cols.max() <= 30 or cols.min() >= 29


class TestAdjacency:
    def test_grid_two_by_two(self):
        labels, _ = graph.segment(np.zeros((10, 10, 3)), 4, mode="grid")
        edges = graph.adjacency(labels)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        image = np.clip(rng.normal(0.5, 0.2, (32, 32, 3)), 0, 1)
        labels, _ = graph.segment(image, 12)
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
        labels, centroids = graph.segment(sample.image, 4, mode="grid")
        feats = graph.extract_features(sample, labels, centroids, box_size=4, patch_dim=2)
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
            box_size=2, patch_dim=1,
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

    def test_patch_block_average(self):
        image = np.zeros((4, 4, 3))
        image[..., 0] = np.arange(16).reshape(4, 4) / 16.0
        feats = graph.extract_features(
            SceneSample(image=image), np.zeros((4, 4), dtype=int), np.array([[1.5, 1.5]]),
            box_size=4, patch_dim=2,
        )
        patch = feats.patch[0].reshape(2, 2, 3)
        blocks = image[..., 0].reshape(2, 2, 2, 2).mean(axis=(1, 3))
        assert np.allclose(patch[..., 0], blocks)

    def test_patch_replicates_at_borders(self):
        image = np.zeros((6, 6, 3))
        image[..., 2] = np.linspace(0, 1, 36).reshape(6, 6)
        feats = graph.extract_features(
            SceneSample(image=image), np.zeros((6, 6), dtype=int), np.array([[0.0, 0.0]]),
            box_size=4, patch_dim=4,
        )
        patch = feats.patch[0].reshape(4, 4, 3)
        rows = np.clip(np.arange(-2, 2), 0, 5)
        expected = image[np.ix_(rows, rows)][..., 2]
        assert np.allclose(patch[..., 2], expected)

    def test_centroid_depth_option(self):
        sample = flat_scene(height=8, width=8)
        sample.depth = np.linspace(1.0, 3.0, 64).reshape(8, 8)
        labels, centroids = graph.segment(sample.image, 1, mode="grid")
        mean_route = graph.extract_features(sample, labels, centroids, 4, 2)
        center_route = graph.extract_features(
            sample, labels, centroids, 4, 2, use_centroid_depth=True
        )
        assert np.allclose(mean_route.gt_logdepth, np.log(sample.depth.mean()))
        center = sample.depth[4, 4]  # centroid (3.5, 3.5) rounds to pixel (4, 4)
        assert np.allclose(center_route.gt_logdepth, np.log(center))

    def test_missing_depth_gives_no_targets(self):
        sample = flat_scene()
        sample.depth = None
        labels, centroids = graph.segment(sample.image, 4, mode="grid")
        feats = graph.extract_features(sample, labels, centroids, 4, 2)
        assert feats.gt_logdepth is None


class TestSimilarities:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        image = np.clip(rng.normal(0.5, 0.2, (24, 24, 3)), 0, 1)
        sample = SceneSample(image=image, depth=np.full((24, 24), 2.0))
        labels, centroids = graph.segment(image, 9, mode="grid")
        feats = graph.extract_features(sample, labels, centroids, 6, 3)
        edges = graph.adjacency(labels)
        return feats, edges

    def test_structure(self):
        feats, edges = self.build()
        sims = graph.similarities(feats, (2.0, 2.0, 2.0), edges)
        assert sims.shape == (3, len(edges))
        assert np.all(sims > 0) and np.all(sims <= 1)
        # the (E, 2) list plus its (3, E) columns is a valid CRF graph
        CrfInstance(n=int(edges.max()) + 1, similarities=sims, edges=edges)

    def test_identical_features_give_unit_similarity(self):
        sample = flat_scene()
        labels, centroids = graph.segment(sample.image, 4, mode="grid")
        feats = graph.extract_features(sample, labels, centroids, 4, 2)
        edges = graph.adjacency(labels)
        sims = graph.similarities(feats, (2.0, 2.0, 2.0), edges)
        assert np.allclose(sims, 1.0)

    def test_kernel_value_matches_distance(self):
        feats, edges = self.build(seed=5)
        gamma = 1.7
        sims = graph.similarities(feats, (gamma, gamma, gamma), edges)
        p, q = edges[0]
        expected = np.exp(-gamma * np.linalg.norm(feats.mean_color[p] - feats.mean_color[q]))
        assert abs(sims[0, 0] - expected) < 1e-12

    def test_rejects_bad_gammas(self):
        feats, edges = self.build()
        with pytest.raises(ValueError):
            graph.similarities(feats, (1.0, -1.0, 1.0), edges)


@pytest.mark.parametrize(
    "bad",
    [dict(target_superpixels=0), dict(box_size=0), dict(patch_dim=-1), dict(seg_mode="watershed"),
     dict(gammas=(2.0, 0.0, 2.0)), dict(gammas=(2.0, np.inf, 2.0)),
     dict(gammas=(np.nan, 2.0, 2.0)), dict(gammas=(2.0, 2.0))],
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
        assert data.centroids.shape == (count, 2)
        assert data.features.patch.shape == (count, 4 * 4 * 3)
        assert data.features.gt_logdepth.shape == (count,)
        assert data.similarities.shape == (3, len(data.edges))
        assert np.all(data.edges < count)

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
            labels, centroids = graph.segment(img, 25, mode="grid")
            return graph.extract_features(sample, labels, centroids, box_size=3, patch_dim=3)

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

    @pytest.mark.parametrize("mode", ["slic", "grid"])
    @pytest.mark.parametrize("target", [150, 700, 2000])
    def test_graph_matches_reference(self, target, mode):
        cfg = GraphConfig(target_superpixels=target, seg_mode=mode)
        for spec in REFERENCE_CORPUS:
            sample = synth.generate(spec)
            fast = graph.build_graph(sample, cfg)
            slow = graph_reference.build_graph(sample, cfg)
            for name in ("labels", "centroids", "edges", "similarities"):
                assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
            for name in ("mean_color", "color_hist", "lbp_hist", "gt_logdepth"):
                assert np.array_equal(
                    getattr(fast.features, name), getattr(slow.features, name)
                ), name
            assert np.max(np.abs(fast.features.patch - slow.features.patch)) <= 1e-12

    @pytest.mark.parametrize("block_cells", [1, 50, 10**6])
    def test_assignment_independent_of_block_size(self, monkeypatch, block_cells):
        rng = np.random.default_rng(4)
        image = rng.random((23, 31, 3))
        fallback = graph._grid_labels(23, 31, 20)
        centers = graph._centroids(fallback, fallback.max() + 1)
        centers += rng.uniform(-1.5, 1.5, centers.shape)
        centers = np.clip(centers, 0, [22, 30])
        colors = rng.random((len(centers), 3))
        args = (image, centers, colors, 0.01, 5, fallback)
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        assert np.array_equal(graph._assign(*args), graph_reference.assign(*args))

    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_assignment_with_windows_overhanging_every_border(self, monkeypatch, block_cells):
        rng = np.random.default_rng(8)
        image = rng.random((3, 4, 3))
        centers = rng.uniform(0, [2, 3], (5, 2))
        colors = rng.random((5, 3))
        # reach 4: every 9x9 window sticks out past all four borders
        args = (image, centers, colors, 0.3, 4, graph._grid_labels(3, 4, 5))
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        assert np.array_equal(graph._assign(*args), graph_reference.assign(*args))

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
            # ids without a centre, the exact answer and a sweep-like hint
            hints = [
                rng.integers(-2, count + 3, (height, width)),
                expected,
                np.where(rng.random((height, width)) < 0.3, fallback, expected),
            ]
            for hint in hints:
                labels = graph._assign(*args, hint)
                assert np.array_equal(labels, expected), case

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
        graph.segment(synth.generate(REFERENCE_CORPUS[0]).image, 2000)
        assert len(calls) < 10

    def test_fixed_point_needs_unchanged_colours_too(self):
        # the first update leaves both centres in place but moves their
        # colours from one sampled pixel to the cell mean, and the sweep
        # after it regroups the pixels by grey level
        grey = np.array([[0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 1]])
        image = np.repeat(grey[:, :, None], 3, axis=2).astype(float)
        labels, _ = graph.segment(image, 2)
        assert np.array_equal(labels, graph_reference.segment(image, 2)[0])

    def test_connectivity_repair_labels_components_once(self, monkeypatch):
        calls = []
        label = scipy.ndimage.label

        def counted(*args, **kwargs):
            calls.append(args)
            return label(*args, **kwargs)

        monkeypatch.setattr(scipy.ndimage, "label", counted)
        rng = np.random.default_rng(6)
        for count in (1, 40, 700):
            calls.clear()
            graph._enforce_connectivity(rng.integers(0, count, (30, 40)))
            assert len(calls) == 1, count


class TestAssignmentSemantics:
    @pytest.mark.parametrize("block_cells", [1, 10**6])
    def test_exact_ties_go_to_the_lowest_centre_index(self, monkeypatch, block_cells):
        monkeypatch.setattr(graph, "BLOCK_CELLS", block_cells)
        image = np.full((7, 7, 3), 0.3)
        # symmetric centres, deliberately not listed in raster order
        centers = np.array([[5.0, 5.0], [1.0, 5.0], [5.0, 1.0], [1.0, 1.0]])
        colors = np.full((4, 3), 0.3)
        labels = graph._assign(image, centers, colors, 1.0, 6, np.zeros((7, 7), int))
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
        labels = graph._assign(*args)
        assert labels.tolist() == [[0, 0, 0, 1, 1, 0, 1, 1, 1]]
        assert np.array_equal(labels, graph_reference.assign(*args))

    def test_centre_without_pixels_keeps_position_and_colour(self):
        image = np.zeros((2, 4, 3))
        image[:, 2:] = 0.8
        labels = np.array([[0, 0, 2, 2], [0, 0, 2, 2]])
        centers = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
        colors = np.array([[0.1, 0.1, 0.1], [0.4, 0.5, 0.6], [0.9, 0.9, 0.9]])
        graph._update_centers(image, labels, centers, colors)
        assert np.array_equal(centers, [[0.5, 0.5], [1.0, 1.0], [0.5, 2.5]])
        assert np.allclose(colors, [[0, 0, 0], [0.4, 0.5, 0.6], [0.8, 0.8, 0.8]])

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


def front_end_peak(target):
    """tracemalloc peak of segmenting and describing the seed-3 synth scene."""
    sample = synth.generate(synth.SceneSpec(seed=3))
    tracemalloc.start()
    try:
        labels, centroids = graph.segment(sample.image, target)
        graph.extract_features(sample, labels, centroids, box_size=24, patch_dim=8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_front_end_working_set_stays_small():
    assert front_end_peak(700) < 8 * 2**20


def test_front_end_working_set_stays_small_at_150_superpixels():
    # reach 21 here, so windows overhang the 128x128 image far more than at
    # 700; sweeps over the fully padded image peaked at 4.29 MB
    assert front_end_peak(150) < 3.5 * 2**20
