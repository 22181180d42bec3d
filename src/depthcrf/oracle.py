"""Brute-force counterparts to the closed-form CRF quantities, and the checks
that compare the two.

The brute-force routines recompute everything from first principles:
couplings by scalar loops, energies by direct summation, the partition
function by trapezoid quadrature, the mode by grid search, moments by Monte
Carlo.  None of them calls into ``crf``, so a disagreement between the two
routes is always meaningful.  Only the checkers (``check_*``) call ``crf``:
each runs one closed-form property over random instances and returns the
worst error it found.  Acceptance criteria 1-6 and the ``gradcheck`` and
``verify`` commands all run these checkers and their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import crf, unary
from .crf import CrfInstance, FactorizationError

# a check passes when its worst error is strictly below its tolerance
LOG_PARTITION_TOL = 1e-6
GRADIENT_TOL = 1e-4
GRID_CELL_TOL = 1.0 + 1e-9
MODE_TOL = 0.0
ZERO_COUPLING_TOL = 1e-12
MONTE_CARLO_TOL = 4.0
FAILURE_TOL = 1
MC_DRAWS = 100_000
PERTURBATIONS = 1000


def random_edges(rng, n, edge_prob: float = 0.6) -> np.ndarray:
    """A random subset of the undirected pairs on ``n`` nodes."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    chosen = [pq for pq in pairs if rng.random() < edge_prob]
    if not chosen:
        return np.empty((0, 2), dtype=np.intp)
    return np.asarray(chosen, dtype=np.intp)


def random_instance(rng, n, num_channels=3, edge_prob=0.6, with_y=True, beta=None):
    """A valid random (instance, z, beta), for randomized cross-checks; unless
    given, ``beta`` holds one coefficient drawn from [0.1, 1.5) per channel."""
    edges = random_edges(rng, n, edge_prob)
    # one row of channel similarities per edge, drawn in edge order
    sims = rng.uniform(0.05, 1.0, size=(len(edges), num_channels)).T
    z = rng.normal(0.0, 1.0, size=n)
    y = rng.normal(0.0, 1.0, size=n) if with_y else None
    instance = CrfInstance(n=n, similarities=sims, edges=edges, y=y)
    if beta is None:
        beta = rng.uniform(0.1, 1.5, size=num_channels)
    return instance, z, beta


def rel_err(actual, expected, floor: float = 1e-12) -> float:
    """Max-norm error of ``actual`` relative to the magnitude of ``expected``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(float(np.max(np.abs(expected))) if expected.size else 0.0, floor)
    diff = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    return float(diff / scale)


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


def direct_coupling(instance, beta) -> np.ndarray:
    """Per-edge couplings, one scalar loop over channels for every edge."""
    out = np.zeros(len(instance.edges))
    for e in range(out.size):
        acc = 0.0
        for k, b in enumerate(map(float, beta)):
            acc += b * float(instance.similarities[k, e])
        out[e] = acc
    return out


def direct_energy(instance, z, beta, points) -> np.ndarray:
    """Energy by direct summation, vectorized over a trailing batch of points.

    ``points`` has shape (..., n); the result drops the last axis.
    """
    pts = np.asarray(points, dtype=float)
    coupling = direct_coupling(instance, beta)
    total = ((pts - z) ** 2).sum(axis=-1)
    for (p, q), r in zip(instance.edges, coupling):
        diff = pts[..., p] - pts[..., q]
        total = total + r * diff * diff
    return total


def gaussian_params(instance, z, beta):
    """Posterior mean and covariance, via generic LU-based linear algebra."""
    a = np.eye(instance.n)
    for (p, q), r in zip(instance.edges, direct_coupling(instance, beta)):
        a[p, q] -= r
        a[q, p] -= r
        a[p, p] += r
        a[q, q] += r
    return np.linalg.solve(a, z), 0.5 * np.linalg.inv(a)


def quad_log_partition(instance, z, beta, spec: QuadratureSpec = QuadratureSpec()):
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
    mean, cov = gaussian_params(instance, z, beta)
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
    return float(logsumexp(-direct_energy(instance, z, beta, pts) + logw))


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


def grid_map(instance, z, beta, spec: GridSpec) -> np.ndarray:
    """Lowest-energy point of a uniform grid; dimension capped at 2."""
    n = instance.n
    if n > 2:
        raise ValueError("grid search handles at most 2 nodes")
    axes = [np.linspace(spec.lo, spec.hi, spec.points) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    values = direct_energy(instance, z, beta, pts)
    best = np.unravel_index(np.argmin(values), values.shape)
    return pts[best]


def mc_moments(instance, z, beta, draws: int, seed: int):
    """Sample mean and covariance of the posterior Gaussian.

    Draws y = mean + L e with L the Cholesky factor of the covariance and
    e standard normal.  Requires at least 10^4 draws so the standard errors
    quoted by the tests mean something.
    """
    if draws < 10_000:
        raise ValueError("need at least 10000 draws")
    mean, cov = gaussian_params(instance, z, beta)
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((draws, instance.n)) @ chol.T + mean
    sample_mean = samples.mean(axis=0)
    centered = samples - sample_mean
    sample_cov = centered.T @ centered / (draws - 1)
    return sample_mean, sample_cov


@dataclass(frozen=True)
class Check:
    """The worst error one checker found, in ``unit``, and its tolerance."""

    name: str
    error: float
    tol: float
    unit: str

    @property
    def ok(self) -> bool:
        return self.error < self.tol


def check_log_partition(rng, trials: int) -> Check:
    """log Z of alternately 1- and 2-node instances against quadrature."""
    worst = 0.0
    for i in range(trials):
        instance, z, beta = random_instance(rng, 1 + i % 2, with_y=False)
        analytic = crf.log_partition(instance, z, beta)
        worst = np.maximum(worst, rel_err(quad_log_partition(instance, z, beta), analytic))
    return Check("log-partition vs quadrature", float(worst), LOG_PARTITION_TOL, "rel err")


def _kinkless_network(rng, n):
    """A random 3-layer regressor, inputs for ``n`` nodes, and its forward pass.

    The objective is piecewise smooth in theta: central differences
    straddling a rectifier kink measure the wrong slope, so any network with
    a pre-activation within 1e-3 of switching is redrawn.
    """
    while True:
        dims = (4, int(rng.integers(3, 7)), int(rng.integers(2, 5)), 1)
        model = unary.build_model(dims, seed=int(rng.integers(1 << 31)))
        features = rng.normal(size=(n, dims[0]))
        z, tape = unary.forward(model, features)  # no keep_prob: dropout off
        margins = [
            float(np.min(np.abs(pre)))
            for pre, act in zip(tape.pres, model.activations)
            if act == unary.RELU
        ]
        if min(margins, default=1.0) > 1e-3:
            return model, features, z, tape


def _gradient_errors(instance, beta, model, features, z, tape):
    """Relative errors of the z, theta and beta gradients against central differences."""

    def nll_at(z, b=beta):
        return crf.nll(instance, z, b)

    def nll_of_theta(theta):
        probe = unary.UnaryModel(model.weights, model.biases)
        probe.params[...] = theta
        return nll_at(unary.forward(probe, features)[0])

    _, grad_z, grad_beta = crf.nll_with_grads(instance, z, beta)
    grad_theta = unary.backward(model, tape, grad_z)
    return (
        rel_err(grad_z, fd_gradient(nll_at, z)),
        rel_err(grad_theta, fd_gradient(nll_of_theta, model.params)),
        rel_err(grad_beta, fd_gradient(lambda b: nll_at(z, b), beta)),
    )


def check_gradients(rng, trials: int, nodes: int | None = None, channels: int = 3):
    """One Check each for dNLL/dz, dNLL/dtheta and dNLL/dbeta.

    Each trial draws an instance of ``nodes`` nodes (2-20 when None) and a
    regressor that produces its z.
    """
    worst = np.zeros(3)
    for _ in range(trials):
        n = nodes if nodes is not None else int(rng.integers(2, 21))
        # the regressor produces z, so the drawn one goes unused
        instance, _, beta = random_instance(rng, n, num_channels=channels)
        network = _kinkless_network(rng, n)
        worst = np.maximum(worst, _gradient_errors(instance, beta, *network))
    groups = ("regressor outputs (dNLL/dz)", "unary parameters (dNLL/dtheta)",
              "coupling coefficients (dNLL/dbeta)")
    return tuple(Check(g, float(e), GRADIENT_TOL, "rel err") for g, e in zip(groups, worst))


def check_map(rng, trials: int):
    """MAP against a 400x400 grid search, then against random perturbations.

    The second Check is the largest MAP energy minus the lowest energy of
    PERTURBATIONS offsets (scale 10^-2 to 10^1), negative when MAP is the mode.
    """
    worst_cells = 0.0
    for _ in range(trials):
        instance, z, beta = random_instance(rng, 2, with_y=False)
        star = crf.map_infer(instance, z, beta)
        # A^-1 has unit row sums over nonnegative entries, so the MAP is a
        # convex combination of z and this box always contains it
        lo, hi = float(z.min()) - 0.5, float(z.max()) + 0.5
        spec = GridSpec(lo=lo, hi=hi, points=400)
        found = grid_map(instance, z, beta, spec)
        worst_cells = np.maximum(worst_cells, np.max(np.abs(found - star)) / spec.cell)
    margin = -np.inf
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        instance, z, beta = random_instance(rng, n, with_y=False)
        star = crf.map_infer(instance, z, beta)
        scales = 10.0 ** rng.uniform(-2.0, 1.0, size=PERTURBATIONS)
        offsets = rng.normal(size=(PERTURBATIONS, n)) * scales[:, None]
        lowest = float(np.min(direct_energy(instance, z, beta, star + offsets)))
        margin = np.maximum(margin, crf.energy(instance, z, beta, star) - lowest)
    return (
        Check("MAP vs 400x400 grid search", float(worst_cells), GRID_CELL_TOL, "grid cells"),
        Check("MAP energy minus lowest perturbed energy", float(margin), MODE_TOL, "energy"),
    )


def check_zero_coupling(rng, trials: int) -> Check:
    """With beta = 0 the MAP is the regression z itself."""
    zero = np.zeros(3)
    worst = 0.0
    for _ in range(trials):
        instance, z, _ = random_instance(rng, int(rng.integers(1, 40)), with_y=False)
        worst = np.maximum(worst, rel_err(crf.map_infer(instance, z, zero), z))
    return Check("beta = 0 MAP vs z", float(worst), ZERO_COUPLING_TOL, "rel err")


def moment_error(instance, z, beta, mean, cov, draws: int, seed: int) -> float:
    """Largest deviation of a claimed posterior ``mean`` or ``cov`` entry from
    Monte Carlo moments, in standard errors of the Monte Carlo estimate.

    The standard errors come from the exact covariance, so an inflated
    ``cov`` cannot widen its own tolerance.
    """
    mean_mc, cov_mc = mc_moments(instance, z, beta, draws, seed)
    exact = gaussian_params(instance, z, beta)[1]
    var = np.diag(exact)
    se_mean = np.sqrt(var / draws)
    se_cov = np.sqrt((np.outer(var, var) + exact**2) / draws)
    return float(np.maximum(np.max(np.abs(mean_mc - mean) / se_mean),
                            np.max(np.abs(cov_mc - cov) / se_cov)))


def check_moments(rng, trials: int) -> Check:
    """The CRF's posterior mean (MAP) and covariance (A^-1 / 2) against
    MC_DRAWS Monte Carlo draws."""
    worst = 0.0
    for trial in range(trials):
        instance, z, beta = random_instance(rng, int(rng.integers(1, 6)), with_y=False)
        precision = crf.build_precision(instance, crf.coupling_matrix(instance, beta))
        cov = 0.5 * precision.solve(np.eye(instance.n))
        error = moment_error(instance, z, beta, crf.map_infer(instance, z, beta), cov,
                             MC_DRAWS, seed=trial)
        worst = np.maximum(worst, error)
    return Check("posterior mean/covariance vs Monte Carlo", float(worst), MONTE_CARLO_TOL,
                 "standard errors")


def check_factorization(rng, trials: int):
    """Failures of valid instances (beta in [0, 1.5]) to factor, and of a
    negative coupling to raise FactorizationError."""
    failed = 0
    for _ in range(trials):
        n = int(rng.integers(1, 30))
        instance, _, beta = random_instance(rng, n, beta=rng.uniform(0.0, 1.5, size=3))
        couplings = crf.coupling_matrix(instance, beta)
        try:
            precision = crf.build_precision(instance, couplings)
            factor = (*precision.inv_diag, *precision.sub)
            failed += int(not all(np.all(np.isfinite(block)) for block in factor))
        except FactorizationError:
            failed += 1
    try:
        # one edge whose coupling of -5 puts A = [[-4, 5], [5, -4]]
        crf.build_precision(CrfInstance(2, np.ones((1, 1)), [[0, 1]]), np.array([-5.0]))
        unraised = 1
    except FactorizationError:
        unraised = 0
    return (
        Check("Cholesky of valid instances", failed, FAILURE_TOL, "failures"),
        Check("negative coupling raises", unraised, FAILURE_TOL, "failures"),
    )
