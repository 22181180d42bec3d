"""Brute-force counterparts to the closed-form CRF quantities.

Everything here is recomputed from first principles: couplings by scalar
loops, energies by direct summation, the partition function by trapezoid
quadrature, the mode by grid search, moments by Monte Carlo.  Nothing calls
into the closed-form implementations, so a disagreement between the two
routes is always meaningful.  Used by the test suite and by the ``gradcheck``
and ``verify`` commands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .crf import CrfInstance, PairwiseWeights


def random_edges(rng, n, edge_prob: float = 0.6) -> np.ndarray:
    """A random subset of the undirected pairs on ``n`` nodes."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    chosen = [pq for pq in pairs if rng.random() < edge_prob]
    if not chosen:
        return np.empty((0, 2), dtype=np.intp)
    return np.asarray(chosen, dtype=np.intp)


def random_instance(rng, n, num_channels=3, edge_prob=0.6, with_y=True, beta=None):
    """A valid random instance plus weights, for randomized cross-checks."""
    edges = random_edges(rng, n, edge_prob)
    # one row of channel similarities per edge, drawn in edge order
    sims = rng.uniform(0.05, 1.0, size=(len(edges), num_channels)).T
    instance = CrfInstance(
        z=rng.normal(0.0, 1.0, size=n),
        similarities=sims,
        edges=edges,
        y=rng.normal(0.0, 1.0, size=n) if with_y else None,
    )
    if beta is None:
        beta = rng.uniform(0.1, 1.5, size=num_channels)
    return instance, PairwiseWeights(beta)


def rel_err(actual, expected, floor: float = 1e-12) -> float:
    """Max-norm error of ``actual`` relative to the magnitude of ``expected``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))) if expected.size else 0.0, floor)
    diff = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    return diff / scale


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid-rule box: half-width per dimension and points per axis.

    half_width=None centers the box on the posterior mean and extends it
    eight posterior standard deviations (of the widest coordinate) each way,
    which puts the truncated tail mass far below the tolerances used here.
    """

    half_width: float | None = None
    points: int = 801


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid, the same [lo, hi] interval on every axis."""

    lo: float
    hi: float
    points: int

    @property
    def cell(self):
        return (self.hi - self.lo) / (self.points - 1)


def direct_coupling(instance, weights) -> np.ndarray:
    """Per-edge couplings, one scalar loop over channels for every edge."""
    beta = [float(b) for b in weights.beta]
    out = np.zeros(len(instance.edges))
    for e in range(out.size):
        acc = 0.0
        for k, b in enumerate(beta):
            acc += b * float(instance.similarities[k, e])
        out[e] = acc
    return out


def direct_energy(instance, weights, points) -> np.ndarray:
    """Energy by direct summation, vectorized over a trailing batch of points.

    ``points`` has shape (..., n); the result drops the last axis.
    """
    pts = np.asarray(points, dtype=float)
    coupling = direct_coupling(instance, weights)
    total = ((pts - instance.z) ** 2).sum(axis=-1)
    for (p, q), r in zip(instance.edges, coupling):
        diff = pts[..., p] - pts[..., q]
        total = total + r * diff * diff
    return total


def gaussian_params(instance, weights):
    """Posterior mean and covariance, via generic LU-based linear algebra."""
    a = np.eye(instance.n)
    for (p, q), r in zip(instance.edges, direct_coupling(instance, weights)):
        a[p, q] -= r
        a[q, p] -= r
        a[p, p] += r
        a[q, q] += r
    mean = np.linalg.solve(a, instance.z)
    cov = 0.5 * np.linalg.inv(a)
    return mean, cov


def quad_log_partition(instance, weights, spec: QuadratureSpec = QuadratureSpec()):
    """log integral of exp(-E) over a box, by the composite trapezoid rule.

    Gaussian integrands decay to numerically zero at the box ends, where the
    trapezoid rule converges superalgebraically, so modest point counts reach
    tolerances far beyond what the tests ask for.  Dimension is capped at 3;
    the grid would not fit in memory beyond that.
    """
    n = instance.n
    if n > 3:
        raise ValueError("quadrature oracle handles at most 3 nodes")
    if spec.points < 3:
        raise ValueError("need at least 3 quadrature points per axis")
    mean, cov = gaussian_params(instance, weights)
    half = spec.half_width
    if half is None:
        half = 8.0 * float(np.sqrt(np.max(np.diag(cov))))
    axes, logweights = [], []
    for i in range(n):
        grid = np.linspace(mean[i] - half, mean[i] + half, spec.points)
        w = np.full(spec.points, grid[1] - grid[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(grid)
        logweights.append(np.log(w))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    logw = logweights[0]
    for lw in logweights[1:]:
        logw = logw[..., None] + lw
    return float(logsumexp(-direct_energy(instance, weights, pts) + logw))


def fd_gradient(func, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        hi = func(bumped)
        bumped[i] = x[i] - h
        lo = func(bumped)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def grid_map(instance, weights, spec: GridSpec) -> np.ndarray:
    """Lowest-energy point of a uniform grid; dimension capped at 2."""
    n = instance.n
    if n > 2:
        raise ValueError("grid search handles at most 2 nodes")
    axes = [np.linspace(spec.lo, spec.hi, spec.points) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    values = direct_energy(instance, weights, pts)
    best = np.unravel_index(np.argmin(values), values.shape)
    return pts[best]


def mc_moments(instance, weights, draws: int, seed: int):
    """Sample mean and covariance of the posterior Gaussian.

    Draws y = mean + L e with L the Cholesky factor of the covariance and
    e standard normal.  Requires at least 10^4 draws so the standard errors
    quoted by the tests mean something.
    """
    if draws < 10_000:
        raise ValueError("need at least 10000 draws")
    mean, cov = gaussian_params(instance, weights)
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((draws, instance.n)) @ chol.T + mean
    sample_mean = samples.mean(axis=0)
    centered = samples - sample_mean
    sample_cov = centered.T @ centered / (draws - 1)
    return sample_mean, sample_cov
