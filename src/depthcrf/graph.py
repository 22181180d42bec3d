"""From rasters to a superpixel graph with appearance features.

``segment`` reads the ``GraphConfig`` fields ``target_superpixels`` and
``compactness`` and runs SLIC, a simplified local k-means in a 5-D
color+position space: seeds on a regular grid of near-equal rectangular
blocks, at most ten assignment/update sweeps, distance

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
Centres are (row, col, r, g, b) rows of one table shaped like the pixel
table, and sweeps stop early once an update leaves that table unchanged.
Once an update moves at most half of the centres, the next sweep re-decides
only what the moved ones can change, still exactly: a pixel whose centre
stayed keeps its distance from the sweep before, the moved centres' windows
are scanned as above, and the unmoved centres are tested only at the pixels
whose own centre moved away from them.  On a 700-superpixel synth scene
the updates before sweeps 5-10 moved 41% down to 1.5% of the centres.
Afterwards every superpixel is reduced to its largest 4-connected component
(the first in raster order among equally large ones), all components being
found by joining horizontal runs of one label, and stray pieces are merged
in label order, each into the most frequent label among its distinct
adjacent pixels (the lowest on ties), so labels are connected; beyond that
no connectivity enforcement happens.  Label ids are compacted to 0..n-1, and
labels are a deterministic function of the image and the configuration.

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
the superpixel count.  ``build_graph`` runs all of the above and puts the
edges, the similarities and the ground truth in the scene's one read-only
``crf.CrfInstance``, which training and prediction use as given.
``map_scenes`` runs such per-scene work in two processes where two CPUs are
usable: one forked child takes the second half of the scenes.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .crf import CrfInstance

LBP_BINS = 256
NUM_CHANNELS = 3  # similarity channels: mean color, color histogram, LBP histogram
COLOR_BINS = 10
LUMA = np.array([0.299, 0.587, 0.114])
SLIC_SWEEPS = 10  # at most: sweeps stop early at a fixed point

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
        if not all(0.0 < g < np.inf for g in self.gammas):
            raise ValueError("gamma_color, gamma_hist and gamma_lbp must be finite and > 0")

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
    """A segmented scene: its labels, its superpixels' features and the
    read-only CRF instance of its graph (edges in canonical order,
    similarities (3, E) per edge, and the ground truth when there is one)."""

    labels: np.ndarray
    features: SuperpixelFeatures
    instance: CrfInstance

    @property
    def edges(self) -> np.ndarray:
        return self.instance.edges


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


def _components(same_row, same_col):
    """4-connected components of a raster whose pixel (r, c) joins (r, c + 1)
    where ``same_row[r, c]`` and (r + 1, c) where ``same_col[r, c]``: each
    pixel's component id, flat, numbered in the raster order of first pixels.

    Maximal horizontal runs are numbered in raster order, one pair joins the
    runs of each overlap of two vertically joined runs, and every straddling
    pair hooks the higher of its roots onto the lower, paths compressed,
    until none straddles two roots (He, Chao & Suzuki, IEEE TIP 2008).  Each
    root is then its component's lowest run, which holds its first pixel.
    """
    start = np.ones((same_col.shape[0] + 1, same_row.shape[1] + 1), dtype=bool)
    start[:, 1:] = ~same_row
    run = np.cumsum(start, dtype=np.intp).reshape(start.shape) - 1
    # same_col is constant along an overlap, which starts where either run does
    overlap = (start[:-1] | start[1:]) & same_col
    upper, lower = run[:-1][overlap], run[1:][overlap]
    parent = np.arange(run[-1, -1] + 1)
    roots = parent[upper], parent[lower]
    while (straddle := roots[0] != roots[1]).any():
        high, low = np.maximum(*roots)[straddle], np.minimum(*roots)[straddle]
        np.minimum.at(parent, high, low)
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        roots = parent[upper], parent[lower]
    rank = np.cumsum(parent == np.arange(parent.size), dtype=np.intp) - 1
    return rank[parent][run].ravel()


def _enforce_connectivity(labels):
    """Keep each label's largest component; merge strays into neighbors.

    ``_components`` numbers every component in the raster order of first
    pixels: the lowest id is the first of equally large components, and
    orphans queue in (label, id) order.  An orphan takes the most frequent
    label among its distinct adjacent pixels, lowest on ties, or waits a
    round while all of them are unmerged orphans.
    """
    same_row, same_col = labels[:, :-1] == labels[:, 1:], labels[:-1] == labels[1:]
    flat = _components(same_row, same_col)  # ids * pixels below needs 64 bits
    sizes = np.bincount(flat)
    owner = np.empty(sizes.size, dtype=np.intp)
    owner[flat] = labels.ravel()
    order = np.lexsort((-sizes, owner))  # stable: the lower id wins a size tie
    main = np.zeros(sizes.size, dtype=bool)
    main[order[np.r_[True, np.diff(owner[order]) != 0]]] = True
    pixel = np.arange(flat.size).reshape(labels.shape)
    cut_rows, cut_cols = ~same_row, ~same_col
    first = np.concatenate([pixel[:, :-1][cut_rows], pixel[:-1][cut_cols]])
    second = np.concatenate([pixel[:, 1:][cut_rows], pixel[1:][cut_cols]])
    pairs = np.concatenate([flat[first] * flat.size + second, flat[second] * flat.size + first])
    orphan, adjacent = np.divmod(np.unique(pairs[~main[pairs // flat.size]]), flat.size)
    near = flat[adjacent]
    bounds = np.searchsorted(orphan, np.arange(sizes.size + 1)).tolist()
    current = np.where(main, owner, -1)
    orphans = [c for c in np.argsort(owner, kind="stable").tolist() if not main[c]]
    while orphans:
        remaining = []
        for c in orphans:
            neighbor_ids = current[near[bounds[c]:bounds[c + 1]]]
            neighbor_ids = neighbor_ids[neighbor_ids >= 0]
            if neighbor_ids.size == 0:
                remaining.append(c)
                continue
            current[c] = np.bincount(neighbor_ids).argmax()
        if len(remaining) == len(orphans):
            raise RuntimeError("orphan components have no assigned neighbor")
        orphans = remaining
    ids, merged = np.unique(current, return_inverse=True)
    return merged[flat].reshape(labels.shape), ids.size


def _distance(table, slot, centres, owner, s_space):
    """SLIC distance from pixels ``slot`` of the (row, col, r, g, b) pixel
    ``table`` to centres ``owner`` of the transposed (5, count) centre table,
    plus the scaled spatial term ``s_space``.  Colour channel j = 2, 3, 4 is
    column j of the pixel table, one contiguous column of the column-major
    table ``segment`` builds, and row j of ``centres``; the differences are
    squared in place and summed (c0 + c1) + c2 + s, so every caller rounds
    alike."""
    d0, d1, d2 = (table[:, ch][slot] - centres[ch][owner] for ch in range(2, 5))
    for term in (d0, d1, d2):
        term *= term
    for term in (d1, d2, s_space):
        d0 += term
    return d0


def _hint_bound(table, slot, centres, anchors, spatial_scale, reach, hint):
    """Distance of pixels ``slot`` of the (row, col, r, g, b) pixel ``table``
    to their hinted centres ``hint``, centre labels 0 to count - 1; +inf
    where that centre has no window over the pixel.

    ``centres`` is the transposed (5, count) centre table and ``anchors``
    (2, count) its truncated positions, so coordinate or channel j is row j
    of ``centres`` and column j of the pixel table, and every read is one
    contiguous run, or a gather from one.  The spatial term is built in
    place, the distance summed in ``_distance``'s order, and +inf written in
    place over the pixels no hinted window covers.
    """
    hint = hint.ravel()
    offsets = [np.abs(table[:, axis][slot] - anchors[axis][hint]) for axis in range(2)]
    far = np.maximum(*offsets) > reach
    d_rows, d_cols = (table[:, axis][slot] - centres[axis][hint] for axis in range(2))
    d_rows *= d_rows
    d_cols *= d_cols
    d_rows += d_cols
    d_rows *= spatial_scale
    dist = _distance(table, slot, centres, hint, d_rows)
    dist[far] = np.inf
    return dist


def _assign(table, centres, spatial_scale, reach, fallback, hint, moved=None, last=None):
    """Label every pixel with the nearest centre whose window covers it;
    returns the labels and each pixel's distance to its label's centre,
    flat, +inf where no window covers it.

    ``table`` is the image's (row, col, r, g, b) pixel table, built once per
    ``segment``, and ``centres`` the (count, 5) table of centres in the same
    columns.  A centre's window spans ``reach`` pixels on each side of its
    truncated position, its anchor, taken once per sweep.  Ties go to the
    lowest centre index, and pixels no window covers take their ``fallback``
    label.  Coordinate or channel j is read as row j of the transposed
    centre table and column j of the pixel table, and every distance is
    summed in ``_distance``'s fixed order.

    Most window cells cannot win, and are skipped exactly.  ``hint`` (the
    seed grid's labels, then the previous sweep's) names one centre per
    pixel by its label, 0 to count - 1, and U(p) is p's distance to it,
    computed as a window cell's distance is: +inf where that centre's window
    misses p.  Since rounding a
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
    lowest centre index at it.  Any raster of centre ids gives the same
    labels; a better one only prunes more.

    Given ``moved``, a flag per centre, ``hint`` and ``last`` must be the
    labels and distances this function returned for the same centres before
    the flagged ones moved, and only what a moved centre can change is
    re-decided.  U(p) is ``last`` wherever p's hinted centre did not move,
    the same cell distance to the bit (+inf where that window still misses
    p), and is recomputed where it did.  The moved centres' windows are
    pruned and scanned as above.  The unmoved centres are tested only at the
    pixels whose hinted centre moved away, U(p) > last(p), through a bound
    raster that is -inf at every other pixel, and only over the cells that
    can pass it: a cell i > 0 rows or columns off its anchor is more than
    i - 1 from the centre, so its spatial term is at least
    ``spatial_scale * (i - 1)**2`` as rounded, and no cell past the first i
    where that exceeds the largest such U(p) survives.  A centre whose
    shrunk window meets no tile of its size holding such a pixel is not
    scanned at all.  This is exact: where U(p) <= last(p), an unmoved centre
    is at its old distance, which was at least last(p), and at last(p) it
    lost to the hint on index; it can neither beat the hint nor tie with a
    centre that does.
    """
    height, width = fallback.shape
    count = len(centres)
    centres = centres.T.copy()
    anchors = centres[:2].astype(np.intp)
    hint = hint.ravel()
    if moved is None:
        seeded = _hint_bound(table, slice(None), centres, anchors, spatial_scale, reach, hint)
        passes = [(np.arange(count), seeded, reach)]
    else:
        stale = np.flatnonzero(moved[hint])
        fresh = _hint_bound(table, stale, centres, anchors, spatial_scale, reach, hint[stale])
        seeded = last.copy()
        seeded[stale] = fresh
        away = stale[fresh > last[stale]]
        rivals = np.full(height * width, -np.inf)
        rivals[away] = seeded[away]
        radius = np.count_nonzero(spatial_scale * np.arange(reach) ** 2 <= rivals.max())
        # tiles of side 2 radius + 1 holding an away pixel; a window meets 2 x 2 at most
        tile = 2 * radius + 1
        marked = np.zeros((height // tile + 1, width // tile + 1), dtype=bool)
        away_rows, away_cols = np.divmod(away, width)
        marked[away_rows // tile, away_cols // tile] = True
        edge = [[height - 1], [width - 1]]
        (r0, c0), (r1, c1) = (np.clip(anchors + d, 0, edge) // tile for d in (-radius, radius))
        near = marked[r0, c0] | marked[r0, c1] | marked[r1, c0] | marked[r1, c1]
        passes = [(np.flatnonzero(moved), seeded, reach),
                  (np.flatnonzero(near & ~moved), rivals, radius)]
    padded = np.full((height + 2 * reach, width + 2 * reach), -np.inf)
    slots, owners, dists = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for ids, bound, radius in passes:
        side = 2 * radius + 1
        offsets = np.arange(-radius, radius + 1)
        cell_slots = (offsets[:, None] * width + offsets).ravel()  # from the anchor
        padded[reach : reach + height, reach : reach + width] = bound.reshape(height, width)
        bounds = np.lib.stride_tricks.sliding_window_view(padded, (side, side))
        (c_rows, c_cols), (a_rows, a_cols) = centres[:2, ids], anchors[:, ids]
        anchor_slots = a_rows * width + a_cols
        # each window's first row and column in the padded raster
        first_rows, first_cols = a_rows + (reach - radius), a_cols + (reach - radius)
        step = max(1, BLOCK_CELLS // side**2)
        for start in range(0, len(ids), step):
            block = slice(start, start + step)
            d_rows = (a_rows[block, None] + offsets) - c_rows[block, None]
            d_cols = (a_cols[block, None] + offsets) - c_cols[block, None]
            d_rows *= d_rows
            d_cols *= d_cols
            s_space = d_rows[:, :, None] + d_cols[:, None, :]
            s_space *= spatial_scale
            kept = np.flatnonzero(s_space <= bounds[first_rows[block], first_cols[block]])
            k, cell = np.divmod(kept, side * side)
            slot, owner = anchor_slots[block][k] + cell_slots[cell], ids[start + k]
            rival = hint[slot] != owner
            slot, owner, kept = slot[rival], owner[rival], kept[rival]
            slots.append(slot)
            owners.append(owner)
            dists.append(_distance(table, slot, centres, owner, s_space.ravel()[kept]))
    slots, owners, dists = map(np.concatenate, (slots, owners, dists))
    best = seeded.copy()
    np.minimum.at(best, slots, dists)
    labels = np.where((best == seeded) & (seeded < np.inf), hint, count)
    hit = dists == best[slots]
    np.minimum.at(labels, slots[hit], owners[hit])
    labels = labels.reshape(height, width)
    # a drifted center can leave a pixel outside every window
    return np.where(labels == count, fallback, labels), best


def _update_centers(table, labels, centres):
    """Move each (row, col, r, g, b) row of ``centres`` to its pixels' mean row
    of ``table``, in place; a centre that won no pixel keeps its row.  Returns
    a flag per centre, set where its row changed."""
    count = len(centres)
    sizes = np.bincount(labels.ravel(), minlength=count)
    means = _label_means(labels, table, count, sizes)
    moved = (sizes > 0) & np.any(means != centres, axis=1)
    centres[moved] = means[moved]
    return moved


def segment(image, cfg: GraphConfig):
    """Partition an image into about ``cfg.target_superpixels`` SLIC
    superpixels at ``cfg.compactness``; returns (labels, centroids).

    One (row, col, r, g, b) pixel table, one row per pixel in raster order,
    serves the seed grid's centroids, every sweep and the final centroids.
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
    # each seed's colour is sampled at the pixel its centroid rounds to
    pixels = np.clip(np.rint(centers).astype(int), 0, [height - 1, width - 1])
    centres = np.hstack([centers, image[pixels[:, 0], pixels[:, 1]]])
    spatial_scale = (cfg.compactness / pitch) ** 2
    reach = int(np.ceil(2 * pitch))
    labels, best, moved = seed_labels, None, None
    for _ in range(SLIC_SWEEPS):
        labels, best = _assign(table, centres, spatial_scale, reach, seed_labels, labels,
                               moved, best)
        moved = _update_centers(table, labels, centres)
        if not moved.any():
            break  # every later sweep would repeat this one's inputs and labels
        # re-deciding only what the moved centres can change pays once at most
        # half of them moved; with more, the full sweep is cheaper
        moved = moved if 2 * np.count_nonzero(moved) <= len(moved) else None
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
    """(count, bins): each label's L1-normalized histogram of ``values``."""
    keys = labels * bins + values  # labels broadcast against values
    hist = np.bincount(keys.ravel(), minlength=count * bins).reshape(count, bins).astype(float)
    hist /= hist.sum(axis=1, keepdims=True)
    return hist


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
    sizes = np.bincount(labels.ravel(), minlength=count)
    mean_color = _label_means(labels, image.reshape(-1, 3), count, sizes)

    bin_idx = np.minimum((image * COLOR_BINS).astype(np.intp), COLOR_BINS - 1)
    bin_idx += np.arange(3) * COLOR_BINS  # channel c's bins are 10 c .. 10 c + 9
    color_hist = _label_histograms(labels[..., None], bin_idx, 3 * COLOR_BINS, count)
    lbp_hist = _label_histograms(labels, lbp_codes(image), LBP_BINS, count)

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
            depth = _label_means(labels, sample.depth.reshape(-1, 1), count, sizes)
            gt_logdepth = np.log(depth[:, 0])

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
    """Segment, describe and connect a scene in one call; the instance's
    ``y`` is ``features.gt_logdepth``, None when the sample has no depth."""
    labels, centroids = segment(sample.image, cfg)
    features = extract_features(sample, labels, centroids, cfg)
    edges = adjacency(labels)
    instance = CrfInstance(n=len(features.patch), similarities=similarities(features, cfg, edges),
                           edges=edges, y=features.gt_logdepth)
    return GraphData(labels=labels, features=features, instance=instance)


# From Python 3.12 ``os.fork`` warns in a process with more than one thread,
# such as BLAS's; a pytest run with ``filterwarnings = error`` would fail on it.
FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)


# One child at most: a child adds its own working memory, and the peak PSS of the
# process and its children rose 10-12% with 2 processes and 17-32% with 4 (BENCH_30.json).
def map_scenes(fn, items, *args) -> list:
    """``[fn(item, *args) for item in items]``, or its first failing item's exception.

    Where ``_forks(len(items))``, one forked child takes the last ``len(items) // 2``
    items and pipes its pickled results back while this process takes the rest, so an
    error in this process's items comes first.  The child leaves through ``os._exit``,
    a child that sends nothing raises OSError, and the child is reaped and the pipe
    closed before this returns or raises."""
    if not _forks(len(items)):
        return [fn(item, *args) for item in items]
    split = len(items) - len(items) // 2
    read_fd, write_fd = os.pipe()
    pipe, pid = open(read_fd, "rb"), None
    try:
        with open(write_fd, "wb") as out:  # this process's copy closes on any path
            if (pid := os.fork()) == 0:
                try:
                    pipe.close()  # so that a write finds no reader once this process closes
                    try:
                        payload = [fn(item, *args) for item in items[split:]], None
                    except Exception as exc:  # the caller drops a failing child's results
                        payload = None, exc
                    pickle.dump(payload, out)
                    out.flush()
                finally:
                    os._exit(0)
        ours = [fn(item, *args) for item in items[:split]]
        try:
            theirs, error = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise OSError(f"scene worker {pid} exited without returning its results") from None
    finally:
        pipe.close()  # before the reap: a child blocked on a full pipe then fails and exits
        if pid is not None:
            os.waitpid(pid, 0)
    if error is not None:
        raise error
    return ours + theirs


def _forks(count: int) -> bool:
    """Whether ``map_scenes`` forks for ``count`` items: at least two, at least two usable
    CPUs (``os.sched_getaffinity``, so not off Linux), and no fork that warns about threads."""
    return (count >= 2 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and not (FORK_WARNS_WITH_THREADS and _threaded()))


def _threaded() -> bool:
    """Whether this process runs more than one OS thread (true where that is unknown)."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True
