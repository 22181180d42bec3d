"""Loop-per-item versions of the graph front end, kept as test references.

``depthcrf.graph`` evaluates the SLIC assignment in blocks of centres,
skipping window cells that cannot win, seeding each pixel with its hinted
centre and stopping at a fixed point, repairs connectivity from components
joined over horizontal label runs, reads patch crops in batches from a
window view of a padded image and takes similarities in blocks of edges.
The functions here are the straightforward loops those replace: a full pass
per centre in each of ``iters`` sweeps, one full-image ``ndimage.label`` and
full-image dilations per label, one clipped-index crop per superpixel and
one distance per edge.  Centroids are taken one label at a time and the
area-average weights by the double loop ``graph`` replaced, so no reference
result is computed by the code it checks.  Tests require labels, every
feature and the similarities to match them bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.ndimage

from depthcrf import graph
from depthcrf.crf import CrfInstance
from depthcrf.graph import GraphConfig, GraphData, SceneSample

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def centroids(labels, count):
    """Mean row and column of each label's pixels, one label at a time; 0
    for a label without pixels."""
    out = np.zeros((count, 2))
    for i in range(count):
        rows, cols = np.nonzero(labels == i)
        if rows.size:
            out[i] = rows.mean(), cols.mean()
    return out


def area_average_weights(src, dst):
    """(dst, src) matrix averaging equal real-length source spans per cell."""
    ratio = src / dst
    weights = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * ratio, (i + 1) * ratio
        # (i + 1) * ratio can round past src, to a sliver of a pixel that is not there
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                weights[i, j] = overlap / ratio
    return weights


def assign(image, centers, colors, spatial_scale, reach, fallback):
    """One SLIC assignment sweep, one centre at a time."""
    height, width = fallback.shape
    rows, cols = np.indices((height, width))
    best = np.full((height, width), np.inf)
    labels = np.full((height, width), -1, dtype=np.intp)
    for i in range(len(centers)):
        cr, cc = centers[i]
        r0, r1 = max(0, int(cr) - reach), min(height, int(cr) + reach + 1)
        c0, c1 = max(0, int(cc) - reach), min(width, int(cc) + reach + 1)
        window = image[r0:r1, c0:c1]
        d_color = ((window - colors[i]) ** 2).sum(axis=2)
        d_space = (rows[r0:r1, c0:c1] - cr) ** 2 + (cols[r0:r1, c0:c1] - cc) ** 2
        dist = d_color + spatial_scale * d_space
        closer = dist < best[r0:r1, c0:c1]
        best[r0:r1, c0:c1][closer] = dist[closer]
        labels[r0:r1, c0:c1][closer] = i
    uncovered = labels < 0
    labels[uncovered] = fallback[uncovered]
    return labels


def enforce_connectivity(labels, count):
    """Keep each label's largest component; merge strays into neighbors."""
    height, width = labels.shape
    final = np.full((height, width), -1, dtype=np.intp)
    orphans = []
    for i in range(count):
        comps, num = scipy.ndimage.label(labels == i, structure=FOUR_CONNECTED)
        if num == 0:
            continue
        sizes = np.bincount(comps.ravel())[1:]
        main = int(np.argmax(sizes)) + 1
        final[comps == main] = i
        for c in range(1, num + 1):
            if c != main:
                orphans.append(comps == c)
    while orphans:
        remaining = []
        for mask in orphans:
            grown = scipy.ndimage.binary_dilation(mask, structure=FOUR_CONNECTED)
            neighbor_ids = final[grown & ~mask]
            neighbor_ids = neighbor_ids[neighbor_ids >= 0]
            if neighbor_ids.size == 0:
                remaining.append(mask)
                continue
            final[mask] = np.bincount(neighbor_ids).argmax()
        if len(remaining) == len(orphans):
            raise RuntimeError("orphan components have no assigned neighbor")
        orphans = remaining
    ids, compacted = np.unique(final, return_inverse=True)
    return compacted.reshape(final.shape), ids.size


def segment(image, target_n, compactness=0.2, iters=10):
    """``graph.segment`` with the per-centre sweep and per-label repair."""
    image = np.asarray(image, dtype=float)
    height, width = image.shape[:2]
    pitch = np.sqrt(height * width / target_n)
    seed_labels = graph._grid_labels(height, width, pitch)
    count = seed_labels.max() + 1
    centers = centroids(seed_labels, count)
    colors = image[
        np.clip(np.rint(centers[:, 0]).astype(int), 0, height - 1),
        np.clip(np.rint(centers[:, 1]).astype(int), 0, width - 1),
    ]
    spatial_scale = (compactness / pitch) ** 2
    reach = int(np.ceil(2 * pitch))
    labels = seed_labels.copy()
    for _ in range(iters):
        labels = assign(image, centers, colors, spatial_scale, reach, seed_labels)
        flat = labels.ravel()
        sizes = np.bincount(flat, minlength=count)
        occupied = sizes > 0
        centers_new = centroids(labels, count)
        centers[occupied] = centers_new[occupied]
        for ch in range(3):
            acc = np.bincount(flat, weights=image[..., ch].ravel(), minlength=count)
            colors[occupied, ch] = acc[occupied] / sizes[occupied]
    labels, count = enforce_connectivity(labels, count)
    return labels, centroids(labels, count)


def patches(image, centroids, box_size, patch_dim):
    """Area-averaged patches of clipped crops, one superpixel at a time.

    The crop is gathered by clipped row and column indices, and contracted
    as ``graph`` contracts a block: rows first, then columns.
    """
    height, width = image.shape[:2]
    count = len(centroids)
    shrink = area_average_weights(box_size, patch_dim)
    out = np.empty((count, patch_dim, patch_dim, 3))
    for i in range(count):
        r0 = int(np.floor(centroids[i, 0] + 0.5)) - box_size // 2
        c0 = int(np.floor(centroids[i, 1] + 0.5)) - box_size // 2
        rows = np.clip(np.arange(r0, r0 + box_size), 0, height - 1)
        cols = np.clip(np.arange(c0, c0 + box_size), 0, width - 1)
        crop = image[np.ix_(rows, cols)].reshape(box_size, 3 * box_size)
        out[i] = shrink @ (shrink @ crop).reshape(patch_dim, box_size, 3)
    return out.reshape(count, -1)


def similarities(features, gammas, edges):
    """exp(-gamma_k ||f_p - f_q||) per channel, one edge at a time."""
    channels = (features.mean_color, features.color_hist, features.lbp_hist)
    dist = np.empty((3, len(edges)))
    for ch, feats in enumerate(channels):
        for e, (p, q) in enumerate(edges):
            dist[ch, e] = np.sqrt(np.sum((feats[p] - feats[q]) ** 2))
    return np.exp(-np.asarray(gammas, dtype=float)[:, None] * dist)


def build_graph(sample: SceneSample, cfg: GraphConfig) -> GraphData:
    """``graph.build_graph`` on the reference segmentation, patches and
    similarities.

    Mean colour, histograms, LBP and edges come from the unchanged ``graph``
    functions applied to the reference labels.
    """
    labels, centroids = segment(sample.image, cfg.target_superpixels, cfg.compactness)
    features = graph.extract_features(sample, labels, centroids, cfg)
    features.patch = patches(sample.image, centroids, cfg.box_size, cfg.patch_dim)
    edges = graph.adjacency(labels)
    sims = similarities(features, cfg.gammas, edges)
    instance = CrfInstance(n=len(centroids), similarities=sims, edges=edges,
                           y=features.gt_logdepth)
    return GraphData(labels=labels, features=features, instance=instance)
