"""From rasters to a superpixel graph with appearance features.

``segment`` reads the ``GraphConfig`` fields ``target_superpixels``,
``compactness`` and ``seg_mode``, one of two modes.  ``grid`` tiles the
raster into near-equal rectangular blocks and is fully deterministic, which
makes downstream tests exact.  ``slic`` runs a simplified local k-means in a
5-D color+position space: seeds on a regular grid, at most ten
assignment/update sweeps, distance

    d^2 = |rgb_p - rgb_c|^2 + (m / s)^2 |xy_p - xy_c|^2

with cell pitch s = sqrt(H W / target) and compactness m.  Each centre
competes for the pixels within 2s of it.  A sweep gives every pixel to the
strictly closest centre, the lowest centre index winning an exact tie; a
pixel no window covers keeps its seed-grid label.  It bounds each pixel's
distance by its distance to the centre that won it in the previous sweep,
and skips every window cell whose spatial term alone exceeds that bound: a
rounded sum of non-negative terms is never below either term, so a skipped
cell is strictly farther than a covering centre and the labels are exactly
those of a full sweep.  About 8% of the cells survive at 700 superpixels,
and 72% of those belong to the pixel's previous winner, whose distance the
bound already holds; only the other 2% of the cells have their colour read.
Sweeps stop early once an update leaves every centre and colour unchanged.
Afterwards every superpixel is reduced to its largest 4-connected component
(the first in raster order among equally large ones), all components being
found by one labelling pass over a doubled grid, and stray pieces are merged
into an adjacent surviving superpixel in label order, so labels are
connected; beyond that no connectivity enforcement happens.  Label ids are
compacted to 0..n-1 and both modes are deterministic functions of their
inputs.

Per superpixel ``extract_features`` computes mean RGB, an L1-normalized
color histogram (10 bins x 3 channels), an L1-normalized 256-bin local
binary pattern histogram over luminance (8 neighbors, radius 1, edge rows
and columns replicated), a ``box_size`` square patch around the centroid
(edge-replicated at borders, area-averaged down to ``patch_dim`` a side) and
the log of the ground-truth depth: its mean, or with ``use_centroid_depth``
the depth at the centroid.  Pairwise ``similarities`` between adjacent
superpixels are exp(-gamma_k * ||f_p - f_q||_2) per feature channel, with
``gammas``, stored per edge: a (3, E) array whose column e belongs to row e
of the (E, 2) edge list.  Patches and similarities are taken in blocks of
about ``BLOCK_CELLS`` values, so their working set stays in cache whatever
the superpixel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage

LBP_BINS = 256
NUM_CHANNELS = 3  # similarity channels: mean color, color histogram, LBP histogram
COLOR_BINS = 10
LUMA = np.array([0.299, 0.587, 0.114])
SLIC_SWEEPS = 10  # at most: sweeps stop early at a fixed point

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# window cells (SLIC), crop pixels (patches) or feature values (similarities)
# evaluated per block; bounds the working set whatever the image size or
# superpixel count
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
    """Everything needed to turn a scene into a CRF-ready graph; each field is
    the run key of its name, with its default."""

    target_superpixels: int = 150
    compactness: float = 0.2
    seg_mode: str = "slic"
    box_size: int = 24
    patch_dim: int = 8
    gamma_color: float = 2.0
    gamma_hist: float = 2.0
    gamma_lbp: float = 2.0
    use_centroid_depth: bool = False

    def __post_init__(self):
        if min(self.target_superpixels, self.box_size, self.patch_dim) < 1:
            raise ValueError("target_superpixels, box_size and patch_dim must be positive")
        # segment squares compactness / pitch, and its target <= H W keeps the pitch >= 1
        if not (self.compactness >= 0.0 and self.compactness * self.compactness < np.inf):
            raise ValueError("compactness must be nonnegative with a finite square")
        if self.seg_mode not in ("grid", "slic"):
            raise ValueError(f"seg_mode must be 'grid' or 'slic', not {self.seg_mode!r}")
        if not all(0.0 < g < np.inf for g in self.gammas):
            raise ValueError("gammas must be three positive finite reals")

    @property
    def gammas(self) -> tuple[float, float, float]:  # in ``similarities``' channel order
        return (self.gamma_color, self.gamma_hist, self.gamma_lbp)


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


def _grid_labels(height, width, pitch):
    rows = max(1, round(height / pitch))
    cols = max(1, round(width / pitch))
    row_ids = np.minimum(np.arange(height) * rows // height, rows - 1)
    col_ids = np.minimum(np.arange(width) * cols // width, cols - 1)
    return row_ids[:, None] * cols + col_ids[None, :]


def _label_means(labels, values, count, sizes=None):
    """Mean of each column of ``values`` (one row per pixel, in raster order)
    over the pixels of each label 0..count-1; 0 for a label with none.
    ``sizes``, each label's pixel count, is counted here unless given."""
    flat = labels.ravel()
    if sizes is None:
        sizes = np.bincount(flat, minlength=count)
    sums = [np.bincount(flat, weights=column, minlength=count) for column in values.T]
    return np.stack(sums, axis=1) / np.maximum(sizes, 1)[:, None]


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


def _distance(table, slot, colors, owner, s_space):
    """SLIC distance from pixels ``slot`` of the (row, col, r, g, b) pixel
    ``table`` to centres ``owner`` of the (3, count) ``colors``, plus the
    scaled spatial term ``s_space``.  Channel c is gathered from column
    2 + c of the table, one contiguous column of the column-major table
    ``segment`` builds, and from row c of ``colors``; the differences are
    squared in place and summed (c0 + c1) + c2 + s, so that every caller
    rounds alike."""
    d0, d1, d2 = (table[:, 2 + ch][slot] - colors[ch][owner] for ch in range(3))
    for term in (d0, d1, d2):
        term *= term
    for term in (d1, d2, s_space):
        d0 += term
    return d0


def _hint_bound(table, centers, anchors, colors, spatial_scale, reach, hint):
    """Distance of each pixel to its hinted centre, +inf where that centre
    has no window over the pixel or the id names no centre; flat, in the
    raster order of the (row, col, r, g, b) pixel ``table``.

    ``centers``, ``anchors`` (their truncated positions) and ``colors`` hold
    one row per coordinate or channel, and the table one column per pixel
    coordinate or channel, so every read is one contiguous run.  The
    spatial term is built in place over the whole raster, the distance
    summed in ``_distance``'s order, and +inf written in place over the
    pixels no hinted window covers.
    """
    hint = hint.ravel()
    far = (hint < 0) | (hint >= centers.shape[1])
    ref = np.where(far, 0, hint)
    for axis in range(2):
        offset = table[:, axis] - anchors[axis][ref]
        np.abs(offset, out=offset)
        far |= offset > reach
    d_rows, d_cols = (table[:, axis] - centers[axis][ref] for axis in range(2))
    d_rows *= d_rows
    d_cols *= d_cols
    d_rows += d_cols
    d_rows *= spatial_scale
    dist = _distance(table, slice(None), colors, ref, d_rows)
    dist[far] = np.inf
    return dist


def _assign(table, centers, colors, spatial_scale, reach, fallback, hint):
    """Label every pixel with the nearest centre whose window covers it.

    ``table`` is the image's (row, col, r, g, b) pixel table, built once per
    ``segment``.  A centre's window spans ``reach`` pixels on each side of
    its truncated position, its anchor, taken once per sweep.  Ties go to
    the lowest centre index, and pixels no window covers take their
    ``fallback`` label.  Centres and their colours are read as one row per
    coordinate or channel and pixels as one table column per channel, and
    every distance is summed in ``_distance``'s fixed order.

    Most window cells cannot win, and are skipped exactly.  ``hint`` (the
    previous sweep's labels) names one centre per pixel, and U(p) is p's
    distance to it, computed as a window cell's distance is: +inf where that
    centre's window misses p or the id names no centre.  Since rounding a
    sum of non-negative terms never falls below either term, a cell's
    distance is at least its spatial term ``spatial_scale * d_space``; a
    cell whose spatial term exceeds U(p) is strictly farther than the hinted
    centre, so it can neither win nor tie and is dropped before its colour
    is read.  The bound raster is
    padded with -inf and read through a ``sliding_window_view``, so cells
    off the image never survive.  A surviving cell whose centre is p's hint
    is dropped too: its distance is U(p) to the bit, so each pixel's best
    distance starts at U(p) and its label at the hint wherever U(p) is
    finite and nothing beats it.  Blocks of about ``BLOCK_CELLS`` cells are
    pruned at a time, and one ``np.minimum.at`` pass over the other
    survivors lowers each pixel's best distance, a second the label to the
    lowest centre index at it.  Any hint raster gives the same labels; a
    better one only prunes more.
    """
    height, width = fallback.shape
    count = len(centers)
    side = 2 * reach + 1
    centers, colors = centers.T.copy(), colors.T.copy()
    anchors = centers.astype(np.intp)
    seeded = _hint_bound(table, centers, anchors, colors, spatial_scale, reach, hint)
    hint = hint.ravel()
    bound = np.full((height + 2 * reach, width + 2 * reach), -np.inf)
    bound[reach : reach + height, reach : reach + width] = seeded.reshape(height, width)
    bounds = np.lib.stride_tricks.sliding_window_view(bound, (side, side))
    (c_rows, c_cols), (a_rows, a_cols) = centers, anchors
    offsets = np.arange(-reach, reach + 1)
    anchor_slots = a_rows * width + a_cols
    cell_slots = (offsets[:, None] * width + offsets).ravel()  # from the anchor
    slots, owners, dists = [], [], []
    step = max(1, BLOCK_CELLS // side**2)
    for start in range(0, count, step):
        block = slice(start, start + step)
        d_rows = (a_rows[block, None] + offsets) - c_rows[block, None]
        d_cols = (a_cols[block, None] + offsets) - c_cols[block, None]
        d_rows *= d_rows
        d_cols *= d_cols
        s_space = d_rows[:, :, None] + d_cols[:, None, :]
        s_space *= spatial_scale
        kept = np.flatnonzero(s_space <= bounds[a_rows[block], a_cols[block]])
        k, cell = np.divmod(kept, side * side)
        slot, owner = anchor_slots[block][k] + cell_slots[cell], start + k
        rival = hint[slot] != owner
        slot, owner, kept = slot[rival], owner[rival], kept[rival]
        slots.append(slot)
        owners.append(owner)
        dists.append(_distance(table, slot, colors, owner, s_space.ravel()[kept]))
    slots, owners, dists = map(np.concatenate, (slots, owners, dists))
    best = seeded.copy()
    np.minimum.at(best, slots, dists)
    labels = np.where((best == seeded) & (seeded < np.inf), hint, count)
    hit = dists == best[slots]
    np.minimum.at(labels, slots[hit], owners[hit])
    labels = labels.reshape(height, width)
    # a drifted center can leave a pixel outside every window
    return np.where(labels == count, fallback, labels)


def _update_centers(table, labels, centers, colors):
    """Move centres to their pixels' centroid and mean colour in ``table``, in place.

    A centre that won no pixel keeps its previous position and colour.
    """
    count = len(centers)
    sizes = np.bincount(labels.ravel(), minlength=count)
    occupied = sizes > 0
    means = _label_means(labels, table, count, sizes)[occupied]
    centers[occupied], colors[occupied] = means[:, :2], means[:, 2:]


def segment(image, cfg: GraphConfig):
    """Partition an image into about ``cfg.target_superpixels`` superpixels
    by ``cfg.seg_mode`` at ``cfg.compactness``; returns (labels, centroids).

    One (row, col, r, g, b) pixel table, one row per pixel in raster order,
    serves the seed grid's centroids, every sweep and the final centroids;
    grid mode returns the seed grid.
    """
    image = np.asarray(image, dtype=float)
    height, width = image.shape[:2]
    if cfg.target_superpixels > height * width:
        raise ValueError("target superpixel count must not exceed the pixel count")
    rows, cols = np.indices((height, width))
    # column-major, so that each column a sweep reads is one contiguous run
    table = np.array([rows.ravel(), cols.ravel(), *image.reshape(-1, 3).T]).T
    pitch = np.sqrt(height * width / cfg.target_superpixels)
    seed_labels = _grid_labels(height, width, pitch)
    centers = _label_means(seed_labels, table[:, :2], seed_labels.max() + 1)
    if cfg.seg_mode == "grid":
        return seed_labels, centers

    colors = image[
        np.clip(np.rint(centers[:, 0]).astype(int), 0, height - 1),
        np.clip(np.rint(centers[:, 1]).astype(int), 0, width - 1),
    ]
    spatial_scale = (cfg.compactness / pitch) ** 2
    reach = int(np.ceil(2 * pitch))
    labels = seed_labels
    for _ in range(SLIC_SWEEPS):
        labels = _assign(table, centers, colors, spatial_scale, reach, seed_labels, labels)
        before = centers.copy(), colors.copy()
        _update_centers(table, labels, centers, colors)
        if np.array_equal(before[0], centers) and np.array_equal(before[1], colors):
            break  # every later sweep would repeat this one's inputs and labels
    labels, count = _enforce_connectivity(labels)
    return labels, _label_means(labels, table[:, :2], count)


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
    return np.bincount(
        labels.ravel() * bins + values.ravel(), minlength=count * bins
    ).reshape(count, bins)


def _area_average_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) matrix averaging equal real-length source spans per cell."""
    ratio = src / dst
    cells, spans = np.arange(dst)[:, None], np.arange(src)
    overlap = np.minimum((cells + 1) * ratio, spans + 1) - np.maximum(cells * ratio, spans)
    return np.where(overlap > 0, overlap / ratio, 0.0)


def extract_features(sample, labels, centroids, cfg: GraphConfig) -> SuperpixelFeatures:
    """Per-superpixel descriptors of a scene segmented into ``labels`` (ids
    0..n-1, row v of every output describing id v) and their ``centroids``,
    as ``segment`` returns them: each centroid must round to a pixel.

    A patch's crop is the ``cfg.box_size`` square around the rounded
    centroid, floor(c + 0.5), rows and columns past the border clipped to
    it; with ``cfg.use_centroid_depth`` the target is the depth at that
    pixel.  The image is edge-padded once, by what the corner crops need,
    so each crop is one window of a ``sliding_window_view``: a
    (box_size, 3 box_size) block of the padded (H', 3 W') raster, copied in
    batches of about ``BLOCK_CELLS`` pixels and contracted by the
    area-average weights, rows then columns, down to ``cfg.patch_dim`` a side.
    """
    box_size, patch_dim = cfg.box_size, cfg.patch_dim
    image = sample.image
    height, width = sample.shape
    count = int(labels.max()) + 1
    mean_color = _label_means(labels, image.reshape(-1, 3), count)

    bin_idx = np.minimum((image * COLOR_BINS).astype(np.intp), COLOR_BINS - 1)
    color_hist = np.concatenate(
        [_label_histograms(labels, bin_idx[..., c], COLOR_BINS, count) for c in range(3)],
        axis=1,
    ).astype(float)
    color_hist /= color_hist.sum(axis=1, keepdims=True)

    lbp_hist = _label_histograms(labels, lbp_codes(image), LBP_BINS, count).astype(float)
    lbp_hist /= lbp_hist.sum(axis=1, keepdims=True)

    shrink = _area_average_weights(box_size, patch_dim)
    centres = np.floor(centroids + 0.5)
    if not np.all((centres >= 0) & (centres < [height, width])):
        raise ValueError("centroids must round to pixels of the image")
    # padded row r + box_size // 2 is row clip(r, 0, height - 1), columns alike
    before = box_size // 2
    padded = np.pad(image, ((before, box_size - 1 - before),) * 2 + ((0, 0),), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded.reshape(len(padded), -1), (box_size, 3 * box_size)
    )
    rows, cols = centres.astype(np.intp).T
    patches = np.empty((count, patch_dim, patch_dim, 3))
    step = max(1, BLOCK_CELLS // box_size**2)
    for start in range(0, count, step):
        block = slice(start, start + step)
        crops = windows[rows[block], 3 * cols[block]]
        reduced = shrink @ crops
        patches[block] = shrink @ reduced.reshape(len(crops), patch_dim, box_size, 3)
    patch = patches.reshape(count, -1)

    gt_logdepth = None
    if sample.depth is not None:
        if cfg.use_centroid_depth:
            gt_logdepth = np.log(sample.depth[rows, cols])
        else:
            gt_logdepth = np.log(_label_means(labels, sample.depth.reshape(-1, 1), count)[:, 0])

    return SuperpixelFeatures(
        mean_color=mean_color,
        color_hist=color_hist,
        lbp_hist=lbp_hist,
        patch=patch,
        gt_logdepth=gt_logdepth,
    )


def similarities(features: SuperpixelFeatures, cfg: GraphConfig, edges) -> np.ndarray:
    """exp(-gamma_k ||f_p - f_q||) per channel and edge for ``cfg.gammas``, shape (3, E).

    Each channel's differences are taken for about ``BLOCK_CELLS`` feature
    values at a time, 128 edges of the 256-bin LBP histogram; each edge's
    norm is a row-wise reduction, so the blocks do not change its bits.
    """
    channels = (features.mean_color, features.color_hist, features.lbp_hist)
    p, q = edges[:, 0], edges[:, 1]
    dist = np.empty((NUM_CHANNELS, len(edges)))
    for ch, feats in enumerate(channels):
        step = max(1, BLOCK_CELLS // feats.shape[1])
        for start in range(0, len(edges), step):
            block = slice(start, start + step)
            dist[ch, block] = np.linalg.norm(feats[p[block]] - feats[q[block]], axis=1)
    return np.exp(-np.asarray(cfg.gammas, dtype=float)[:, None] * dist)


def build_graph(sample: SceneSample, cfg: GraphConfig) -> GraphData:
    """Segment, describe and connect a scene in one call."""
    labels, centroids = segment(sample.image, cfg)
    features = extract_features(sample, labels, centroids, cfg)
    edges = adjacency(labels)
    sims = similarities(features, cfg, edges)
    return GraphData(
        labels=labels,
        centroids=centroids,
        features=features,
        edges=edges,
        similarities=sims,
    )
