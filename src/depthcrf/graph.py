"""From rasters to a superpixel graph with appearance features.

Segmentation comes in two modes.  ``grid`` tiles the raster into near-equal
rectangular blocks and is fully deterministic, which makes downstream tests
exact.  ``slic`` runs a simplified local k-means in a 5-D color+position
space: seeds on a regular grid, at most ten assignment/update sweeps,
distance

    d^2 = |rgb_p - rgb_c|^2 + (m / s)^2 |xy_p - xy_c|^2

with cell pitch s = sqrt(H W / target) and compactness m.  Each centre
competes for the pixels within 2s of it.  A sweep gives every pixel to the
strictly closest centre, the lowest centre index winning an exact tie; a
pixel no window covers keeps its seed-grid label.  It bounds each pixel's
distance by its distance to the centre that won it in the previous sweep,
and skips every window cell whose spatial term alone exceeds that bound: a
rounded sum of non-negative terms is never below either term, so a skipped
cell is strictly farther than a covering centre and the labels are exactly
those of a full sweep.  Only the surviving cells (about 8% at 700
superpixels) have their colour read.  Sweeps stop early once an update
leaves every centre and colour unchanged.  Afterwards every
superpixel is reduced to its largest 4-connected component (the first in
raster order among equally large ones), all components being found by one
labelling pass over a doubled grid, and stray pieces are merged into an
adjacent surviving superpixel in label order, so labels are connected;
beyond that no connectivity enforcement happens.  Label ids are compacted
to 0..n-1 and both modes are deterministic functions of their inputs.

Per superpixel the feature extractor computes mean RGB, an L1-normalized
color histogram (10 bins x 3 channels), an L1-normalized 256-bin local
binary pattern histogram over luminance (8 neighbors, radius 1, edge rows
and columns replicated), a square patch around the centroid (edge-replicated
at borders, area-averaged down to a fixed resolution) and the log of the
mean ground-truth depth.  Pairwise similarities between adjacent superpixels
are exp(-gamma_k * ||f_p - f_q||_2) per feature channel, stored per edge: a
(3, E) array whose column e belongs to row e of the (E, 2) edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage

LBP_BINS = 256
COLOR_BINS = 10
LUMA = np.array([0.299, 0.587, 0.114])

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# window cells (SLIC) or crop pixels (patches) evaluated per block; bounds
# the working set to a few MB whatever the image size or superpixel count
BLOCK_CELLS = 32768


@dataclass
class SceneSample:
    """One scene as its files hold it: image in [0, 1], optional positive
    depth in meters.  Segmentation output travels beside it, not in it."""

    image: np.ndarray
    depth: np.ndarray | None = None

    def __post_init__(self):
        img = np.asarray(self.image, dtype=float)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ValueError("image must have shape (H, W, 3)")
        if np.any(img < 0.0) or np.any(img > 1.0) or not np.all(np.isfinite(img)):
            raise ValueError("image values must lie in [0, 1]")
        self.image = img
        if self.depth is not None:
            depth = np.asarray(self.depth, dtype=float)
            if depth.shape != img.shape[:2]:
                raise ValueError("depth raster must match the image size")
            if not np.all(np.isfinite(depth)) or np.any(depth <= 0.0):
                raise ValueError("depth values must be finite and positive")
            self.depth = depth

    @property
    def shape(self):
        return self.image.shape[:2]


@dataclass(frozen=True)
class GraphConfig:
    """Everything needed to turn a scene into a CRF-ready graph."""

    target_superpixels: int = 150
    compactness: float = 0.2
    seg_mode: str = "slic"
    box_size: int = 24
    patch_dim: int = 8
    gammas: tuple[float, float, float] = (2.0, 2.0, 2.0)
    use_centroid_depth: bool = False

    def __post_init__(self):
        if min(self.target_superpixels, self.box_size, self.patch_dim) < 1:
            raise ValueError("target_superpixels, box_size and patch_dim must be positive")
        if not self.compactness >= 0.0:
            raise ValueError("compactness must be nonnegative")
        if self.seg_mode not in ("grid", "slic"):
            raise ValueError(f"seg_mode must be 'grid' or 'slic', not {self.seg_mode!r}")
        if len(self.gammas) != 3 or not all(0.0 < g < np.inf for g in self.gammas):
            raise ValueError("gammas must be three positive finite reals")


@dataclass
class SuperpixelFeatures:
    """Per-superpixel descriptors, stacked over the n superpixels of a scene."""

    mean_color: np.ndarray
    color_hist: np.ndarray
    lbp_hist: np.ndarray
    patch: np.ndarray
    gt_logdepth: np.ndarray | None


@dataclass
class GraphData:
    """A segmented scene: edges in canonical order, similarities (3, E) per edge."""

    labels: np.ndarray
    centroids: np.ndarray
    features: SuperpixelFeatures
    edges: np.ndarray
    similarities: np.ndarray


def _grid_counts(height, width, target_n):
    pitch = np.sqrt(height * width / target_n)
    rows = max(1, round(height / pitch))
    cols = max(1, round(width / pitch))
    return rows, cols


def _grid_labels(height, width, target_n):
    rows, cols = _grid_counts(height, width, target_n)
    row_ids = np.minimum(np.arange(height) * rows // height, rows - 1)
    col_ids = np.minimum(np.arange(width) * cols // width, cols - 1)
    return row_ids[:, None] * cols + col_ids[None, :]


def _centroids(labels, count):
    rows, cols = np.indices(labels.shape)
    sums_r = np.bincount(labels.ravel(), weights=rows.ravel(), minlength=count)
    sums_c = np.bincount(labels.ravel(), weights=cols.ravel(), minlength=count)
    sizes = np.maximum(np.bincount(labels.ravel(), minlength=count), 1)
    return np.stack([sums_r / sizes, sums_c / sizes], axis=1)


def _compact(labels):
    ids, compacted = np.unique(labels, return_inverse=True)
    return compacted.reshape(labels.shape), ids.size


def _enforce_connectivity(labels):
    """Keep each label's largest component; merge strays into neighbors.

    One ``ndimage.label`` on a (2H-1, 2W-1) grid finds every component:
    pixel cells are on, and the cell between two 4-neighbours is on when
    they share a label.  A component's first cell is a pixel cell, so ids
    follow the raster order of first pixels: the lowest id is the first of
    equally large components, and orphans queue in (label, id) order.  An
    orphan dilates only inside its bounding box grown by one pixel.
    """
    grid = np.ones(2 * np.array(labels.shape) - 1, dtype=bool)
    grid[1::2, 1::2] = False
    grid[::2, 1::2] = labels[:, :-1] == labels[:, 1:]
    grid[1::2, ::2] = labels[:-1, :] == labels[1:, :]
    comps = scipy.ndimage.label(grid, structure=FOUR_CONNECTED)[0][::2, ::2]
    flat = comps.ravel() - 1
    sizes = np.bincount(flat)
    owner = np.empty(sizes.size, dtype=np.intp)
    owner[flat] = labels.ravel()
    order = np.lexsort((-sizes, owner))  # stable: the lower id wins a size tie
    main = np.zeros(sizes.size, dtype=bool)
    main[order[np.r_[True, np.diff(owner[order]) != 0]]] = True
    final = np.where(main[flat], labels.ravel(), -1).reshape(labels.shape)
    boxes = scipy.ndimage.find_objects(comps)
    orphans = [c for c in np.argsort(owner, kind="stable") if not main[c]]
    while orphans:
        remaining = []
        for c in orphans:
            box = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in boxes[c])
            mask = comps[box] == c + 1
            grown = scipy.ndimage.binary_dilation(mask, structure=FOUR_CONNECTED)
            neighbor_ids = final[box][grown & ~mask]
            neighbor_ids = neighbor_ids[neighbor_ids >= 0]
            if neighbor_ids.size == 0:
                remaining.append(c)
                continue
            final[box][mask] = np.bincount(neighbor_ids).argmax()
        if len(remaining) == len(orphans):
            raise RuntimeError("orphan components have no assigned neighbor")
        orphans = remaining
    return _compact(final)


def _distance(pixel_colors, center_colors, s_space):
    """SLIC distance from (3, k) pixel and centre colours and the scaled
    spatial term, summed (c0 + c1) + c2 + s so that every caller rounds alike."""
    diff = (pixel_colors - center_colors) ** 2
    return diff[0] + diff[1] + diff[2] + s_space


def _hint_bound(planes, c_rows, c_cols, c_colors, spatial_scale, reach, hint):
    """Distance of each pixel to its hinted centre, +inf where that centre
    has no window over the pixel or the id names no centre."""
    height, width = hint.shape
    known = ((hint >= 0) & (hint < len(c_rows))).ravel()
    ref = np.where(known, hint.ravel(), 0)
    rows, cols = np.divmod(np.arange(height * width), width)
    ref_rows, ref_cols = c_rows[ref], c_cols[ref]
    covered = known & (np.abs(rows - ref_rows.astype(np.intp)) <= reach)
    covered &= np.abs(cols - ref_cols.astype(np.intp)) <= reach
    s_space = spatial_scale * ((rows - ref_rows) ** 2 + (cols - ref_cols) ** 2)
    dist = _distance(planes, np.take(c_colors, ref, axis=1), s_space)
    return np.where(covered, dist, np.inf).reshape(height, width)


def _assign(image, centers, colors, spatial_scale, reach, fallback, hint=None):
    """Label every pixel with the nearest centre whose window covers it.

    A centre's window spans ``reach`` pixels on each side of its truncated
    position.  Ties go to the lowest centre index, and pixels no window
    covers take their ``fallback`` label.

    Most window cells cannot win, and are skipped exactly.  ``hint`` (the
    previous sweep's labels; ``fallback`` if omitted) names one centre per
    pixel, and U(p) is p's distance to it, computed as a window cell's
    distance is: +inf where that centre's window misses p or the id names
    no centre.  Since rounding a sum of non-negative terms never falls below
    either term, a cell's distance is at least its spatial term
    ``spatial_scale * d_space``; a cell whose spatial term exceeds U(p)
    is strictly farther than the hinted centre, so it can neither win nor
    tie and is dropped before its colour is read.  The bound raster is
    padded with -inf and read through a ``sliding_window_view``, so cells
    off the image never survive.  Blocks of about ``BLOCK_CELLS`` cells are
    pruned at a time, and one ``np.minimum.at`` pass over all survivors
    finds each pixel's best distance, a second the lowest centre index at it.
    Any hint raster gives the same labels; a better one only prunes more.
    """
    height, width = fallback.shape
    count = len(centers)
    side = 2 * reach + 1
    planes = np.moveaxis(image, 2, 0).reshape(3, -1)
    c_rows, c_cols = np.ascontiguousarray(centers.T)
    c_colors = np.ascontiguousarray(colors.T)
    bound = np.full((height + 2 * reach, width + 2 * reach), -np.inf)
    bound[reach : reach + height, reach : reach + width] = _hint_bound(
        planes, c_rows, c_cols, c_colors, spatial_scale, reach,
        fallback if hint is None else hint,
    )
    bounds = np.lib.stride_tricks.sliding_window_view(bound, (side, side))
    a_rows, a_cols = c_rows.astype(np.intp), c_cols.astype(np.intp)
    offsets = np.arange(-reach, reach + 1)
    anchor_slots = a_rows * width + a_cols
    cell_slots = (offsets[:, None] * width + offsets).ravel()  # from the anchor
    slots, owners, dists = [], [], []
    step = max(1, BLOCK_CELLS // side**2)
    for start in range(0, count, step):
        block = slice(start, start + step)
        s_space = spatial_scale * (
            ((a_rows[block, None] + offsets - c_rows[block, None]) ** 2)[:, :, None]
            + ((a_cols[block, None] + offsets - c_cols[block, None]) ** 2)[:, None, :]
        )
        kept = np.flatnonzero(s_space <= bounds[a_rows[block], a_cols[block]])
        k, cell = np.divmod(kept, side * side)
        slot, owner = anchor_slots[block][k] + cell_slots[cell], start + k
        pixel_colors = np.take(planes, slot, axis=1)
        center_colors = np.take(c_colors, owner, axis=1)
        slots.append(slot)
        owners.append(owner)
        dists.append(_distance(pixel_colors, center_colors, s_space.ravel()[kept]))
    slots, owners, dists = map(np.concatenate, (slots, owners, dists))
    best = np.full(height * width, np.inf)
    np.minimum.at(best, slots, dists)
    hit = dists == best[slots]
    labels = np.full(height * width, count, dtype=np.intp)
    np.minimum.at(labels, slots[hit], owners[hit])
    labels = labels.reshape(height, width)
    # a drifted center can leave a pixel outside every window
    return np.where(labels == count, fallback, labels)


def _update_centers(image, labels, centers, colors):
    """Move centres to their pixels' centroid and mean colour, in place.

    A centre that won no pixel keeps its previous position and colour.
    """
    count = len(centers)
    flat = labels.ravel()
    sizes = np.bincount(flat, minlength=count)
    occupied = sizes > 0
    centers[occupied] = _centroids(labels, count)[occupied]
    for ch in range(3):
        acc = np.bincount(flat, weights=image[..., ch].ravel(), minlength=count)
        colors[occupied, ch] = acc[occupied] / sizes[occupied]


def segment(image, target_n, compactness=0.2, mode="slic", iters=10):
    """Partition an image into superpixels; returns (labels, centroids)."""
    image = np.asarray(image, dtype=float)
    height, width = image.shape[:2]
    if not 1 <= target_n <= height * width:
        raise ValueError("target superpixel count must be in [1, pixel count]")
    if mode == "grid":
        labels = _grid_labels(height, width, target_n)
        count = labels.max() + 1
        return labels, _centroids(labels, count)
    if mode != "slic":
        raise ValueError("mode must be 'grid' or 'slic'")

    pitch = np.sqrt(height * width / target_n)
    seed_labels = _grid_labels(height, width, target_n)
    count = seed_labels.max() + 1
    centers = _centroids(seed_labels, count)
    colors = image[
        np.clip(np.rint(centers[:, 0]).astype(int), 0, height - 1),
        np.clip(np.rint(centers[:, 1]).astype(int), 0, width - 1),
    ]
    spatial_scale = (compactness / pitch) ** 2
    reach = int(np.ceil(2 * pitch))
    labels = seed_labels
    for _ in range(iters):
        labels = _assign(image, centers, colors, spatial_scale, reach, seed_labels, labels)
        before = centers.copy(), colors.copy()
        _update_centers(image, labels, centers, colors)
        if np.array_equal(before[0], centers) and np.array_equal(before[1], colors):
            break  # every later sweep would repeat this one's inputs and labels
    labels, count = _enforce_connectivity(labels)
    return labels, _centroids(labels, count)


def adjacency(labels) -> np.ndarray:
    """Edges between 4-connected superpixels, as an (E, 2) array.

    ``labels`` holds superpixel ids >= 0.  Rows are (p, q) with p < q in
    increasing order, the canonical order ``crf.CrfInstance`` requires.
    """
    labels = np.asarray(labels, dtype=np.intp)
    count = int(labels.max(initial=0)) + 1
    first = np.concatenate([labels[:-1, :].ravel(), labels[:, :-1].ravel()])
    second = np.concatenate([labels[1:, :].ravel(), labels[:, 1:].ravel()])
    differ = first != second
    low, high = np.minimum(first, second)[differ], np.maximum(first, second)[differ]
    return np.stack(divmod(np.unique(low * count + high), count), axis=1)


def lbp_codes(image) -> np.ndarray:
    """8-neighbor radius-1 binary codes of the luminance raster.

    Bits run clockwise from the top-left neighbor; a bit is set when the
    neighbor is >= the center.  Border neighbors replicate the edge pixel.
    """
    luma = np.asarray(image, dtype=float) @ LUMA
    padded = np.pad(luma, 1, mode="edge")
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]
    codes = np.zeros(luma.shape, dtype=np.intp)
    for bit, (dr, dc) in enumerate(offsets):
        neighbor = padded[1 + dr : 1 + dr + luma.shape[0], 1 + dc : 1 + dc + luma.shape[1]]
        codes |= (neighbor >= luma) << bit
    return codes


def _label_histograms(labels, values, bins, count):
    hist = np.bincount(
        labels.ravel() * bins + values.ravel(), minlength=count * bins
    ).reshape(count, bins)
    return hist


def _area_average_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) matrix averaging equal real-length source spans per cell."""
    ratio = src / dst
    weights = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), int(np.ceil(hi))):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                weights[i, j] = overlap / ratio
    return weights


def extract_features(sample: SceneSample, labels, centroids, box_size: int, patch_dim: int,
                     use_centroid_depth: bool = False) -> SuperpixelFeatures:
    """Per-superpixel descriptors of a scene segmented into ``labels`` (ids
    0..n-1, row v of every output describing id v) and their ``centroids``,
    as ``segment`` returns them."""
    if box_size < 1 or patch_dim < 1:
        raise ValueError("box size and patch resolution must be positive")
    image = sample.image
    height, width = sample.shape
    count = int(labels.max()) + 1
    sizes = np.bincount(labels.ravel(), minlength=count).astype(float)

    mean_color = np.stack(
        [
            np.bincount(labels.ravel(), weights=image[..., c].ravel(), minlength=count)
            / sizes
            for c in range(3)
        ],
        axis=1,
    )

    bin_idx = np.minimum((image * COLOR_BINS).astype(np.intp), COLOR_BINS - 1)
    color_hist = np.concatenate(
        [_label_histograms(labels, bin_idx[..., c], COLOR_BINS, count) for c in range(3)],
        axis=1,
    ).astype(float)
    color_hist /= color_hist.sum(axis=1, keepdims=True)

    lbp_hist = _label_histograms(labels, lbp_codes(image), LBP_BINS, count).astype(float)
    lbp_hist /= lbp_hist.sum(axis=1, keepdims=True)

    shrink = _area_average_weights(box_size, patch_dim)
    corners = np.floor(centroids + 0.5).astype(np.intp) - box_size // 2
    span = np.arange(box_size)
    rows = np.clip(corners[:, :1] + span, 0, height - 1)
    cols = np.clip(corners[:, 1:] + span, 0, width - 1)
    patches = np.empty((count, patch_dim, patch_dim, 3))
    step = max(1, BLOCK_CELLS // box_size**2)
    for start in range(0, count, step):
        block = slice(start, start + step)
        crops = image[rows[block, :, None], cols[block, None, :]]
        reduced = shrink @ crops.reshape(len(crops), box_size, box_size * 3)
        patches[block] = shrink @ reduced.reshape(len(crops), patch_dim, box_size, 3)
    patch = patches.reshape(count, -1)

    gt_logdepth = None
    if sample.depth is not None:
        if use_centroid_depth:
            rr = np.clip(np.rint(centroids[:, 0]).astype(int), 0, height - 1)
            cc = np.clip(np.rint(centroids[:, 1]).astype(int), 0, width - 1)
            gt_logdepth = np.log(sample.depth[rr, cc])
        else:
            mean_depth = (
                np.bincount(labels.ravel(), weights=sample.depth.ravel(), minlength=count)
                / sizes
            )
            gt_logdepth = np.log(mean_depth)

    return SuperpixelFeatures(
        mean_color=mean_color,
        color_hist=color_hist,
        lbp_hist=lbp_hist,
        patch=patch,
        gt_logdepth=gt_logdepth,
    )


def similarities(features: SuperpixelFeatures, gammas, edges) -> np.ndarray:
    """exp(-gamma_k ||f_p - f_q||) per channel and edge, shape (3, E)."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (3,) or np.any(gammas <= 0):
        raise ValueError("gammas must be three positive reals")
    channels = (features.mean_color, features.color_hist, features.lbp_hist)
    p, q = edges[:, 0], edges[:, 1]
    return np.stack(
        [
            np.exp(-gamma * np.linalg.norm(feats[p] - feats[q], axis=1))
            for gamma, feats in zip(gammas, channels)
        ]
    )


def build_graph(sample: SceneSample, cfg: GraphConfig) -> GraphData:
    """Segment, describe and connect a scene in one call."""
    labels, centroids = segment(
        sample.image, cfg.target_superpixels, cfg.compactness, cfg.seg_mode
    )
    features = extract_features(
        sample, labels, centroids, cfg.box_size, cfg.patch_dim, cfg.use_centroid_depth
    )
    edges = adjacency(labels)
    sims = similarities(features, cfg.gammas, edges)
    return GraphData(
        labels=labels,
        centroids=centroids,
        features=features,
        edges=edges,
        similarities=sims,
    )
