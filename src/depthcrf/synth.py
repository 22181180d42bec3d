"""Synthetic scenes: piecewise-planar depth with depth-correlated appearance.

A scene starts as one rectangle and is repeatedly cut by a random line
through a random interior point, always splitting the currently largest
region, until the requested region count is reached.  Each region is convex
(an intersection of half-planes with the frame).  Its depth is a plane

    depth(r, c) = base + gx * range * (c - c0) / W + gy * range * (r - r0) / H

with range = depth_max - depth_min, the base drawn away from both ends and
the slopes small enough that the plane provably stays in [depth_min,
depth_max]; depth jumps therefore occur only across region boundaries.
Color is keyed to the region's base depth through a fixed ramp plus a small
per-region jitter, so appearance distance predicts depth distance.  Texture modes add nothing
(``flat``), a gentle in-region shading ramp (``gradient``) or per-pixel
speckle (``noise``); independent Gaussian pixel noise of scale
``noise_sigma`` is added on top and the result is clipped to [0, 1].

Every sample is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import SceneSample

TEXTURES = ("flat", "gradient", "noise")

SLOPE_BUDGET = 0.1  # per-axis plane slope, as a fraction of the depth range
TEXTURE_AMP = 0.08  # speckle amplitude of the "noise" texture
JITTER = 0.05  # per-region color jitter


@dataclass(frozen=True)
class SceneSpec:
    """One scene's recipe; each field is the run key of its name, with its default."""

    height: int = 128
    width: int = 128
    num_planes: int = 4
    depth_min: float = 1.0
    depth_max: float = 10.0
    texture: str = "noise"
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise ValueError("height and width must be at least 8")
        if not 1 <= self.num_planes <= self.height * self.width:
            raise ValueError("num_planes must lie in [1, height * width]")
        if not (0.0 < self.depth_min < self.depth_max):
            raise ValueError("need 0 < depth_min < depth_max")
        if self.texture not in TEXTURES:
            raise ValueError(f"texture must be one of {TEXTURES}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")


def _split_regions(spec: SceneSpec, rng) -> np.ndarray:
    """Region id raster built by random half-plane cuts of the largest region."""
    rows, cols = np.indices((spec.height, spec.width))
    regions = np.zeros((spec.height, spec.width), dtype=np.intp)
    for new_id in range(1, spec.num_planes):
        sizes = np.bincount(regions.ravel(), minlength=new_id)
        order = np.argsort(sizes)[::-1]
        placed = False
        for target in order:
            mask = regions == target
            pixels = np.flatnonzero(mask)
            if pixels.size < 2:
                continue
            floor = max(8, pixels.size // 10)
            best_side, best_balance = None, -1
            for _ in range(40):
                pick = pixels[rng.integers(pixels.size)]
                pr, pc = divmod(pick, spec.width)
                phi = rng.uniform(0.0, np.pi)
                signed = (rows - pr) * np.sin(phi) + (cols - pc) * np.cos(phi)
                side = mask & (signed >= 0.0)
                inside = int(side.sum())
                balance = min(inside, pixels.size - inside)
                if balance > best_balance:
                    best_side, best_balance = side, balance
                if balance >= floor:
                    break
            if best_balance > 0:
                regions[best_side] = new_id
                placed = True
                break
        if not placed:
            raise RuntimeError("could not place a region split")
    return regions


def _region_color(t: float, rng) -> np.ndarray:
    ramp = np.array([0.15 + 0.7 * t, 0.85 - 0.7 * t, 0.5])
    return ramp + rng.uniform(-JITTER, JITTER, size=3)


def generate_with_regions(spec: SceneSpec):
    """The sample plus the region id raster (handy for boundary checks)."""
    rng = np.random.default_rng(spec.seed)
    regions = _split_regions(spec, rng)
    rows, cols = np.indices((spec.height, spec.width), dtype=float)
    lo, hi = spec.depth_min, spec.depth_max
    span = hi - lo

    depth = np.empty((spec.height, spec.width))
    image = np.empty((spec.height, spec.width, 3))
    for i in range(regions.max() + 1):
        mask = regions == i
        center_r = rows[mask].mean()
        center_c = cols[mask].mean()
        base = rng.uniform(lo + 2 * SLOPE_BUDGET * span, hi - 2 * SLOPE_BUDGET * span)
        gx = rng.uniform(-SLOPE_BUDGET, SLOPE_BUDGET)
        gy = rng.uniform(-SLOPE_BUDGET, SLOPE_BUDGET)
        plane = (
            base
            + gx * span * (cols - center_c) / spec.width
            + gy * span * (rows - center_r) / spec.height
        )
        depth[mask] = plane[mask]

        color = _region_color((base - lo) / span, rng)
        tile = np.broadcast_to(color, (spec.height, spec.width, 3)).copy()
        if spec.texture == "gradient":
            shade = 0.05 * ((cols - center_c) / spec.width + (rows - center_r) / spec.height)
            tile += shade[..., None]
        elif spec.texture == "noise":
            tile += rng.uniform(-TEXTURE_AMP, TEXTURE_AMP, size=tile.shape)
        image[mask] = tile[mask]

    if spec.noise_sigma > 0.0:
        image += rng.normal(0.0, spec.noise_sigma, size=image.shape)
    image = np.clip(image, 0.0, 1.0)
    return SceneSample(image=image, depth=depth), regions


def generate(spec: SceneSpec) -> SceneSample:
    sample, _ = generate_with_regions(spec)
    return sample


def sample_seed(dataset_seed: int, index: int) -> int:
    """Per-sample seed; distinct dataset seeds can never collide."""
    return dataset_seed * 1_000_003 + index


def generate_sample(template: SceneSpec, seed: int, index: int) -> SceneSample:
    """Sample ``index`` of the dataset ``seed``: ``template`` at that sample's seed."""
    return generate(replace(template, seed=sample_seed(seed, index)))


def generate_dataset(template: SceneSpec, count: int, seed: int) -> list[SceneSample]:
    """Deterministic list of samples with per-sample seeds from (seed, index)."""
    if count < 1:
        raise ValueError("dataset needs at least one sample")
    return [generate_sample(template, seed, index) for index in range(count)]
