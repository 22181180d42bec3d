"""Exact Gaussian conditional random field on a superpixel graph.

A graph instance couples per-node regressed log-depths ``z`` with nonnegative
edge couplings derived from appearance similarities.  The energy of a depth
assignment ``y``,

    E(y) = sum_p (y_p - z_p)^2 + sum_{(p,q) in edges} r_pq (y_p - y_q)^2,

is a positive definite quadratic in ``y``, so the normalizer of ``exp(-E)``
is a Gaussian integral and everything downstream is closed form:

    E(y)      = y' A y - 2 z' y + z' z,   with A = I + D - R, D = diag(R 1)
    log Z     = (n/2) log(pi) - (1/2) log|A| + z' A^{-1} z - z' z
    -log p(y) = E(y) + log Z
    argmax_y p(y|x) = A^{-1} z

The graph is an edge list: ``edges[e] = (p, q)`` with ``p < q``, and a
(K, E) similarity array whose column ``e`` holds edge ``e``'s K channel
similarities.  The coupling of edge ``e`` is ``r_e = sum_k beta_k s_ke``;
``R`` holds it at (p, q) and (q, p) and is zero elsewhere.  With
``beta >= 0`` and similarities in ``[0, 1]`` the matrix ``A`` is strictly
diagonally dominant with positive diagonal, hence symmetric positive
definite, so a Cholesky factorization carries the solves and the
log-determinant.

``A`` is factored in blocks, in the natural node order: node ``v`` is row
``v`` of the factor.  SLIC and grid labels are numbered in row-major seed
order, so an edge joins nodes whose labels differ by about one row of
superpixels at most: the bandwidth ``max(q - p)`` is small (13, 27 and
about 90 on synthetic scenes of 150, 700 and 2000 superpixels).  Cutting
the nodes into consecutive blocks no narrower than the bandwidth puts every
edge inside a diagonal block or the block just below it, so ``A`` is block
tridiagonal; only the last block is padded.  Its block Cholesky factor is
block bidiagonal, and the blocks of ``A^{-1}`` on that pattern follow from
the factor alone by selected inversion (Takahashi, Fagan & Chin 1973; Rue
& Held, *Gaussian Markov Random Fields*, 2005, section 2.3).  A
graph whose bandwidth is near ``n``, such as a random dense one, is a
single block, which is the plain dense Cholesky factorization.  The trace
term of the beta gradient reads ``A^{-1}`` only on the diagonal and the
edges, all inside that pattern, so no n x n array is ever formed.

Gradients of the negative log-likelihood:

    d(-log p)/dz     = 2 (A^{-1} z - y)
    d(-log p)/dbeta_k = y' J_k y - u' J_k u - (1/2) tr(A^{-1} J_k),  u = A^{-1} z

where ``J_k = dA/dbeta_k`` is the graph Laplacian of channel ``k``, so

    v' J_k v       = sum_e s_ke (v_p - v_q)^2
    tr(A^{-1} J_k) = sum_e s_ke (inv_pp + inv_qq - 2 inv_pq),  inv = A^{-1}.

The ``z`` gradient is the hook for backpropagation into whatever regressor
produced ``z``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dtrtri as _trtri

# Smallest block of the block Cholesky factorization.  Its cost per block
# is a few small dense products, so smaller blocks save flops until the
# fixed cost of each block's calls outweighs them; 32 nodes was the fastest
# of 16-128 at 144 and 676 nodes.
MIN_BLOCK = 32


class FactorizationError(RuntimeError):
    """Cholesky failed: the precision matrix is not positive definite.

    Under the documented preconditions (nonnegative pairwise weights,
    similarities in [0, 1]) this cannot happen in exact arithmetic, so it
    signals invalid inputs, or weights so large that rounding swamps the
    unit diagonal (training reports that as divergence), rather than a
    condition to regularize away.
    """


def _frozen(values, dtype=float):
    """Return a read-only array of ``dtype``, copying only if needed."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PairwiseWeights:
    """Nonnegative coupling coefficients, one per similarity channel."""

    beta: np.ndarray

    def __post_init__(self):
        beta = _frozen(self.beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a non-empty 1-D vector")
        if not np.all(np.isfinite(beta)) or np.any(beta < 0):
            raise ValueError("pairwise weights must be finite and >= 0")
        object.__setattr__(self, "beta", beta)

    def __len__(self):
        return self.beta.size


@dataclass(frozen=True)
class CrfInstance:
    """One image's graph: regressed values, per-edge similarities, edge set.

    ``edges`` has shape (E, 2) and is canonical: every row ``(p, q)`` has
    ``p < q`` and the rows strictly increase, as ``graph.adjacency`` emits
    them.  ``similarities`` has shape (K, E); column ``e`` holds the K
    channel similarities of ``edges[e]``, each in [0, 1].  ``y`` holds
    ground-truth log-depths and may be omitted at prediction time.  Every
    array is stored read-only, so instances rebuilt from another instance's
    arrays share them without copying.
    """

    z: np.ndarray
    similarities: np.ndarray
    edges: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "z", _frozen(self.z))
        object.__setattr__(self, "similarities", _frozen(self.similarities))
        object.__setattr__(self, "edges", _frozen(self.edges, dtype=np.intp))
        if self.y is not None:
            object.__setattr__(self, "y", _frozen(self.y))
        self._check()

    def _check(self):
        z, sims, edges = self.z, self.similarities, self.edges
        if z.ndim != 1 or z.size < 1:
            raise ValueError("z must be a vector with at least one node")
        n = z.size
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (E, 2)")
        if sims.ndim != 2 or sims.shape[0] < 1 or sims.shape[1] != len(edges):
            raise ValueError(f"similarities must have shape (K, {len(edges)})")
        if self.y is not None and self.y.shape != (n,):
            raise ValueError("y must match z in length")
        for arr in (z, sims) + (() if self.y is None else (self.y,)):
            if not np.all(np.isfinite(arr)):
                raise ValueError("instance arrays must be finite")
        if np.any(sims < 0) or np.any(sims > 1):
            raise ValueError("similarities must lie in [0, 1]")
        if edges.size:
            p, q = edges[:, 0], edges[:, 1]
            if p.min() < 0 or q.max() >= n:
                raise ValueError("edge indices out of range")
            if np.any(p >= q):
                raise ValueError("each edge must be listed as (p, q) with p < q")
            if np.any((p[1:] < p[:-1]) | ((p[1:] == p[:-1]) & (q[1:] <= q[:-1]))):
                raise ValueError("edges must be sorted and unique")

    @property
    def n(self):
        return self.z.size

    @property
    def num_channels(self):
        return self.similarities.shape[0]


@dataclass(frozen=True)
class Precision:
    """Block Cholesky factor and log|A| of the block tridiagonal precision A.

    A = L L' with L block lower bidiagonal, over ``m`` blocks of ``w`` rows.
    Node ``v`` is row ``v``; the ``m * w - n`` padding rows all sit at the
    tail of the last block, decoupled with a unit diagonal.  ``inv_diag[i]``
    is the inverse of the lower triangular diagonal block L_ii, so that every
    solve below is a matrix product, and ``sub[i]`` is the block L_{i+1,i}.
    """

    n: int
    inv_diag: np.ndarray
    sub: np.ndarray
    logdet: float

    def solve(self, rhs):
        """A^{-1} rhs for a vector or an (n, k) matrix, by block substitution."""
        rhs = np.asarray(rhs, dtype=float)
        m, w = self.inv_diag.shape[:2]
        x = np.zeros((m * w,) + rhs.shape[1:])
        x[: self.n] = rhs
        x = x.reshape((m, w) + rhs.shape[1:])
        for i in range(m):
            if i:
                x[i] -= self.sub[i - 1] @ x[i - 1]
            x[i] = self.inv_diag[i] @ x[i]
        for i in reversed(range(m)):
            if i + 1 < m:
                x[i] -= self.sub[i].T @ x[i + 1]
            x[i] = self.inv_diag[i].T @ x[i]
        return x.reshape((m * w,) + rhs.shape[1:])[: self.n]

    def selected_inverse(self, rows, cols):
        """Entries (A^{-1})[rows, cols], each on the diagonal or an edge of A.

        Selected inversion, walking the blocks upward with
        H_i = L_{i+1,i} L_ii^{-1}:  S_{i+1,i} = -S_{i+1,i+1} H_i  and
        S_ii = L_ii^{-T} L_ii^{-1} - S_{i+1,i}' H_i.
        """
        m, w = self.inv_diag.shape[:2]
        # blocks[i] = S_ii and blocks[m + i] = S_{i+1,i}
        blocks = np.empty((2 * m - 1, w, w))
        for i in reversed(range(m)):
            inv_l = self.inv_diag[i]
            blocks[i] = inv_l.T @ inv_l
            if i + 1 < m:
                h = self.sub[i] @ inv_l
                blocks[m + i] = -(blocks[i + 1] @ h)
                blocks[i] -= blocks[m + i].T @ h
        lo_block, lo_at = np.divmod(np.minimum(rows, cols), w)
        hi_block, hi_at = np.divmod(np.maximum(rows, cols), w)
        if np.any(hi_block - lo_block > 1):
            raise ValueError("entries outside the block tridiagonal pattern")
        return blocks[np.where(hi_block == lo_block, lo_block, m + lo_block), hi_at, lo_at]


def coupling_matrix(instance: CrfInstance, weights: PairwiseWeights) -> np.ndarray:
    """The coupling matrix R in edge-list form: r_e = sum_k beta_k s_ke, shape (E,)."""
    if len(weights) != instance.num_channels:
        raise ValueError(
            f"expected {instance.num_channels} weights, got {len(weights)}"
        )
    return weights.beta @ instance.similarities


def build_precision(n: int, edges, couplings) -> Precision:
    """Factor A = I + D - R, where R holds ``couplings[e]`` at edge ``edges[e]``.

    Raises FactorizationError when A is not positive definite, which under
    valid inputs (couplings nonnegative) cannot happen.
    """
    edges = np.asarray(edges, dtype=np.intp)
    couplings = np.asarray(couplings, dtype=float)
    if edges.ndim != 2 or edges.shape[1] != 2 or couplings.shape != (len(edges),):
        raise ValueError("need an (E, 2) edge array and one coupling per edge")
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    # blocks of w = ceil(n / (n // size)) >= size = max(bandwidth, MIN_BLOCK)
    # rows (or one of all n), so an edge never skips a block; the last of the
    # m = ceil(n / w) blocks holds the remainder and fewer than w padding rows
    size = min(max(int(np.max(hi - lo, initial=0)), MIN_BLOCK), n)
    w = -(-n // (n // size))
    m = -(-n // w)
    lo_block, lo_at = np.divmod(lo, w)
    hi_block, hi_at = np.divmod(hi, w)
    inside = lo_block == hi_block
    diagonal = np.ones(m * w)
    diagonal[:n] += np.bincount(lo, couplings, minlength=n) + np.bincount(
        hi, couplings, minlength=n
    )
    # lower triangles of the diagonal blocks of A, and the blocks A_{i+1,i}
    a_diag = np.zeros((m, w, w))
    a_diag[:, np.arange(w), np.arange(w)] = diagonal.reshape(m, w)
    a_diag[lo_block[inside], hi_at[inside], lo_at[inside]] = -couplings[inside]
    sub = np.zeros((m - 1, w, w))
    sub[lo_block[~inside], hi_at[~inside], lo_at[~inside]] = -couplings[~inside]
    inv_diag = np.empty_like(a_diag)
    logdet = 0.0
    for i in range(m):
        if i:
            a_diag[i] -= sub[i - 1] @ sub[i - 1].T
        chol, info = _potrf(a_diag[i], lower=1)
        if info:
            raise FactorizationError(
                f"precision matrix is not positive definite: leading minor "
                f"{info} of diagonal block {i} of {m} is not positive"
            )
        logdet += 2.0 * float(np.sum(np.log(np.diagonal(chol))))
        inv_diag[i] = _trtri(chol, lower=1, overwrite_c=1)[0]
        if i + 1 < m:
            # L_{i+1,i} = A_{i+1,i} L_ii^{-T}
            sub[i] = sub[i] @ inv_diag[i].T
    return Precision(n=n, inv_diag=inv_diag, sub=sub, logdet=logdet)


def _precision_for(instance, weights):
    couplings = coupling_matrix(instance, weights)
    return couplings, build_precision(instance.n, instance.edges, couplings)


def _edge_quadratic(edges, weights, v):
    """sum_e w_e (v_p - v_q)^2 for weights (E,), or per row for weights (K, E)."""
    diffs = v[edges[:, 0]] - v[edges[:, 1]]
    return weights @ (diffs * diffs)


def _energy(instance, couplings, y):
    return float(np.sum((y - instance.z) ** 2)) + float(
        _edge_quadratic(instance.edges, couplings, y)
    )


def energy(instance: CrfInstance, weights: PairwiseWeights, depths) -> float:
    """Energy of a depth assignment, evaluated term by term.

    Equals the quadratic form y'Ay - 2z'y + z'z; the direct sum is kept so
    tests can cross-check the two routes.
    """
    y = np.asarray(depths, dtype=float)
    if y.shape != (instance.n,):
        raise ValueError("depth assignment must match the node count")
    return _energy(instance, coupling_matrix(instance, weights), y)


def _log_partition(instance, prec, u):
    z = instance.z
    return (
        0.5 * instance.n * np.log(np.pi)
        - 0.5 * prec.logdet
        + float(z @ u)
        - float(z @ z)
    )


def log_partition(instance: CrfInstance, weights: PairwiseWeights) -> float:
    """log integral of exp(-E) over all depth assignments."""
    _, prec = _precision_for(instance, weights)
    return _log_partition(instance, prec, prec.solve(instance.z))


def _nll(instance, weights):
    """NLL of the ground truth, with the factorization and u = A^{-1} z behind it."""
    if instance.y is None:
        raise ValueError("instance has no ground-truth depths")
    couplings, prec = _precision_for(instance, weights)
    u = prec.solve(instance.z)
    value = _energy(instance, couplings, instance.y) + _log_partition(instance, prec, u)
    return value, prec, u


def nll(instance: CrfInstance, weights: PairwiseWeights) -> float:
    """Negative log-likelihood of the instance's ground-truth depths."""
    return _nll(instance, weights)[0]


def map_infer(instance: CrfInstance, weights: PairwiseWeights) -> np.ndarray:
    """Most probable depth assignment, the solution of A y = z."""
    _, prec = _precision_for(instance, weights)
    return prec.solve(instance.z)


def nll_with_grads(instance: CrfInstance, weights: PairwiseWeights):
    """NLL plus both gradient blocks from a single factorization.

    Returns (nll, grad wrt z, grad wrt beta); what a training step needs.
    Chaining the z gradient with dz/dtheta of the regressor gives the full
    parameter gradient.
    """
    value, prec, u = _nll(instance, weights)
    sims, edges = instance.similarities, instance.edges
    p, q = edges[:, 0], edges[:, 1]
    inv_pp, inv_qq, inv_pq = prec.selected_inverse(
        np.concatenate([p, q, p]), np.concatenate([p, q, q])
    ).reshape(3, -1)
    traces = sims @ (inv_pp + inv_qq - 2.0 * inv_pq)
    grad_beta = (
        _edge_quadratic(edges, sims, instance.y)
        - _edge_quadratic(edges, sims, u)
        - 0.5 * traces
    )
    return value, 2.0 * (u - instance.y), grad_beta
