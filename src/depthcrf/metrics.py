"""Depth error metrics and raster prediction.

All metrics pool pixels across every evaluated image before averaging (one
grand total, no per-image means).  With d the prediction and g > 0 the
ground truth, over the T masked-in pixels:

    rel    = (1/T) sum |g - d| / g
    rms    = sqrt((1/T) sum (g - d)^2)
    log10  = (1/T) sum |log10 g - log10 d|
    delta_i = 100 * fraction with max(g/d, d/g) < 1.25^i,  i = 1, 2, 3

``evaluate`` pools over all pixels, or, given a depth cap, reports pixels
with ground truth below the cap (``C1``) next to all pixels (``C2``).
Prediction runs a trained model as the ``formats.Checkpoint`` that holds it:
the regressor, beta, the input standardization, and the run configuration
whose graph recipe segments the image.  It paints each superpixel's region
with the exponential of its most probable log-depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crf, unary
from .formats import Checkpoint
from .graph import GraphData, SceneSample, build_graph

THRESHOLD = 1.25


@dataclass(frozen=True)
class DepthPair:
    """Predicted and ground-truth rasters with an evaluation mask."""

    predicted: np.ndarray
    ground_truth: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.predicted, dtype=float)
        gt = np.asarray(self.ground_truth, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if pred.shape != gt.shape or mask.shape != gt.shape:
            raise ValueError("prediction, ground truth and mask must share a shape")
        for arr in (pred[mask], gt[mask]):
            if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
                raise ValueError("masked-in depths must be finite and positive")
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "ground_truth", gt)
        object.__setattr__(self, "mask", mask)


@dataclass(frozen=True)
class MetricsReport:
    rel: float
    rms: float
    log10: float
    delta1: float
    delta2: float
    delta3: float
    pixel_count: int


def metrics(pairs) -> MetricsReport:
    """Pooled metrics over a collection of DepthPair."""
    pred = np.concatenate([p.predicted[p.mask] for p in pairs]) if pairs else np.array([])
    gt = np.concatenate([p.ground_truth[p.mask] for p in pairs]) if pairs else np.array([])
    if pred.size == 0:
        raise ValueError("no pixels selected for evaluation")
    ratio = np.maximum(gt / pred, pred / gt)
    deltas = [float(np.mean(ratio < THRESHOLD**i) * 100.0) for i in (1, 2, 3)]
    return MetricsReport(
        rel=float(np.mean(np.abs(gt - pred) / gt)),
        rms=float(np.sqrt(np.mean((gt - pred) ** 2))),
        log10=float(np.mean(np.abs(np.log10(gt) - np.log10(pred)))),
        delta1=deltas[0],
        delta2=deltas[1],
        delta3=deltas[2],
        pixel_count=int(pred.size),
    )


def evaluate(predictions, truths, cap: float | None = None) -> dict[str, MetricsReport]:
    """Pooled reports over predicted/ground-truth raster pairs, by mask name.

    Without a cap the one mask is ``all``; with one, ``C1`` keeps ground truth
    below ``cap`` and ``C2`` keeps every pixel.
    """
    if cap is None:
        selections = {"all": lambda gt: np.ones_like(gt, dtype=bool)}
    else:
        selections = {"C1": lambda gt: gt < cap, "C2": lambda gt: np.ones_like(gt, dtype=bool)}
    return {
        name: metrics([DepthPair(p, g, select(g)) for p, g in zip(predictions, truths)])
        for name, select in selections.items()
    }


@np.errstate(over="ignore", invalid="ignore")
def predict_graph(data: GraphData, ckpt: Checkpoint) -> np.ndarray:
    """Depth raster of a built graph: each superpixel painted with exp(its MAP log-depth).

    FloatingPointError, and no warning, if the regressor's output or a depth overflows.
    """
    inputs = data.features.patch - ckpt.input_mean
    inputs /= ckpt.input_std  # in place: one n x dim array at a time, the same bits
    z, _ = unary.forward(ckpt.model, inputs)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("the regressor's output is not finite")
    depth = np.exp(crf.map_infer(data.instance, z, ckpt.beta))
    if not np.all((depth > 0.0) & (depth < np.inf)):
        raise FloatingPointError("a predicted depth is not finite and positive")
    return depth[data.labels]


def predict_image(sample: SceneSample, ckpt: Checkpoint) -> np.ndarray:
    """Depth raster of one scene, segmented with the checkpoint's graph recipe."""
    return predict_graph(build_graph(sample, ckpt.config.graph_config()), ckpt)
