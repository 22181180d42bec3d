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
``R`` holds it at (p, q) and (q, p) and is zero elsewhere.  The graph
and its similarities come from the image, so they stay fixed for a scene:
a ``CrfInstance`` holds them, checked once.  Only ``z`` and ``beta``
change between training steps, and every function takes both.  With
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
tridiagonal; only the last block is padded.  The edges alone fix this
layout, so the instance stores it.  The block Cholesky factor of ``A`` is
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

from dataclasses import dataclass, field

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
    """One image's graph: node count, per-edge similarities, edge set.

    ``edges`` has shape (E, 2) and is canonical: every row ``(p, q)`` has
    ``p < q`` and the rows strictly increase, as ``graph.adjacency`` emits
    them.  ``similarities`` has shape (K, E); column ``e`` holds the K
    channel similarities of ``edges[e]``, each in [0, 1].  ``y`` holds
    ground-truth log-depths and may be omitted at prediction time.  The
    regressed values ``z`` change at every training step, so they are an
    argument of each function below rather than part of the instance.

    The arrays are checked and stored read-only once, when the instance is
    built, along with the block layout of the precision matrix:
    ``num_blocks`` blocks of ``block_width`` rows, and ``edge_slots[e]``, the
    position of edge ``e``'s entry (q, p) in the flattened stack of the
    diagonal blocks followed by the blocks just below them.
    """

    n: int
    similarities: np.ndarray
    edges: np.ndarray
    y: np.ndarray | None = None
    block_width: int = field(init=False, repr=False, compare=False)
    num_blocks: int = field(init=False, repr=False, compare=False)
    edge_slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n)
        if n != self.n or n < 1:
            raise ValueError("n must be a positive node count")
        sims, edges = _frozen(self.similarities), _frozen(self.edges, dtype=np.intp)
        y = None if self.y is None else _frozen(self.y)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (E, 2)")
        if sims.ndim != 2 or sims.shape[0] < 1 or sims.shape[1] != len(edges):
            raise ValueError(f"similarities must have shape (K, {len(edges)})")
        if y is not None and (y.shape != (n,) or not np.all(np.isfinite(y))):
            raise ValueError(f"y must be {n} finite values")
        if not np.all(np.isfinite(sims)) or np.any(sims < 0) or np.any(sims > 1):
            raise ValueError("similarities must lie in [0, 1]")
        p, q = edges[:, 0], edges[:, 1]
        if edges.size:
            if p.min() < 0 or q.max() >= n:
                raise ValueError("edge indices out of range")
            if np.any(p >= q):
                raise ValueError("each edge must be listed as (p, q) with p < q")
            if np.any((p[1:] < p[:-1]) | ((p[1:] == p[:-1]) & (q[1:] <= q[:-1]))):
                raise ValueError("edges must be sorted and unique")
        # blocks of w = ceil(n / (n // size)) >= size = max(bandwidth, MIN_BLOCK)
        # rows (or one of all n), so an edge never skips a block; the last of the
        # m = ceil(n / w) blocks holds the remainder and fewer than w padding rows
        size = min(max(int(np.max(q - p, initial=0)), MIN_BLOCK), n)
        w = -(-n // (n // size))
        m = -(-n // w)
        (p_block, p_at), (q_block, q_at) = np.divmod(p, w), np.divmod(q, w)
        slots = (np.where(q_block == p_block, p_block, m + p_block) * w + q_at) * w + p_at
        slots.setflags(write=False)
        checked = dict(n=n, similarities=sims, edges=edges, y=y, block_width=w, num_blocks=m,
                       edge_slots=slots)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
    ``edge_slots`` is the instance's block layout of its edges.
    """

    n: int
    inv_diag: np.ndarray
    sub: np.ndarray
    logdet: float
    edge_slots: np.ndarray

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

    def selected_inverse(self):
        """A^{-1} on the diagonal, shape (n,), and on the edges, shape (E,).

        Selected inversion, walking the blocks upward with
        H_i = L_{i+1,i} L_ii^{-1}:  S_{i+1,i} = -S_{i+1,i+1} H_i  and
        S_ii = L_ii^{-T} L_ii^{-1} - S_{i+1,i}' H_i.
        """
        m, w = self.inv_diag.shape[:2]
        # blocks[i] = S_ii and blocks[m + i] = S_{i+1,i}, the layout of edge_slots
        blocks = np.empty((2 * m - 1, w, w))
        for i in reversed(range(m)):
            inv_l = self.inv_diag[i]
            blocks[i] = inv_l.T @ inv_l
            if i + 1 < m:
                h = self.sub[i] @ inv_l
                blocks[m + i] = -(blocks[i + 1] @ h)
                blocks[i] -= blocks[m + i].T @ h
        diagonal = np.diagonal(blocks[:m], axis1=1, axis2=2).reshape(-1)[: self.n]
        return diagonal, blocks.reshape(-1)[self.edge_slots]


def coupling_matrix(instance: CrfInstance, weights: PairwiseWeights) -> np.ndarray:
    """The coupling matrix R in edge-list form: r_e = sum_k beta_k s_ke, shape (E,)."""
    if len(weights) != instance.num_channels:
        raise ValueError(f"expected {instance.num_channels} weights, got {len(weights)}")
    return weights.beta @ instance.similarities


def build_precision(instance: CrfInstance, couplings) -> Precision:
    """Factor A = I + D - R, where R holds ``couplings[e]`` at edge ``instance.edges[e]``.

    Raises FactorizationError when A is not positive definite, which under
    valid inputs (couplings nonnegative) cannot happen.
    """
    couplings = np.asarray(couplings, dtype=float)
    if couplings.shape != (len(instance.edges),):
        raise ValueError("need one coupling per edge")
    n, w, m = instance.n, instance.block_width, instance.num_blocks
    diagonal = np.ones(m * w)
    diagonal[:n] += np.bincount(instance.edges[:, 0], couplings, minlength=n) + np.bincount(
        instance.edges[:, 1], couplings, minlength=n
    )
    # lower triangles of the diagonal blocks of A, then the blocks A_{i+1,i}
    blocks = np.zeros((2 * m - 1, w, w))
    blocks[:m, np.arange(w), np.arange(w)] = diagonal.reshape(m, w)
    blocks.reshape(-1)[instance.edge_slots] = -couplings
    a_diag, sub = blocks[:m], blocks[m:]
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
    return Precision(n, inv_diag, sub, logdet, instance.edge_slots)


def _checked(instance, z):
    """``z`` as a float vector, after checking it holds n finite values."""
    z = np.asarray(z, dtype=float)
    if z.shape != (instance.n,) or not np.all(np.isfinite(z)):
        raise ValueError(f"z must be {instance.n} finite values")
    return z


def _edge_quadratic(edges, weights, v):
    """sum_e w_e (v_p - v_q)^2 for weights (E,), or per row for weights (K, E)."""
    diffs = v[edges[:, 0]] - v[edges[:, 1]]
    return weights @ (diffs * diffs)


def _energy(instance, z, couplings, y):
    return float(np.sum((y - z) ** 2)) + float(_edge_quadratic(instance.edges, couplings, y))


def energy(instance: CrfInstance, z, weights: PairwiseWeights, depths) -> float:
    """Energy of a depth assignment, evaluated term by term.

    Equals the quadratic form y'Ay - 2z'y + z'z; the direct sum is kept so
    tests can cross-check the two routes.
    """
    z = _checked(instance, z)
    y = np.asarray(depths, dtype=float)
    if y.shape != (instance.n,):
        raise ValueError("depth assignment must match the node count")
    return _energy(instance, z, coupling_matrix(instance, weights), y)


def _solved(instance, z, weights):
    """The checked z, the couplings, the factor of A and u = A^{-1} z."""
    z = _checked(instance, z)
    couplings = coupling_matrix(instance, weights)
    prec = build_precision(instance, couplings)
    return z, couplings, prec, prec.solve(z)


def _log_partition(z, prec, u):
    return 0.5 * prec.n * np.log(np.pi) - 0.5 * prec.logdet + float(z @ u) - float(z @ z)


def log_partition(instance: CrfInstance, z, weights: PairwiseWeights) -> float:
    """log integral of exp(-E) over all depth assignments."""
    z, _, prec, u = _solved(instance, z, weights)
    return _log_partition(z, prec, u)


def _nll(instance, z, weights):
    """NLL of the ground truth, with the factorization and u = A^{-1} z behind it."""
    if instance.y is None:
        raise ValueError("instance has no ground-truth depths")
    z, couplings, prec, u = _solved(instance, z, weights)
    value = _energy(instance, z, couplings, instance.y) + _log_partition(z, prec, u)
    return value, prec, u


def nll(instance: CrfInstance, z, weights: PairwiseWeights) -> float:
    """Negative log-likelihood of the instance's ground-truth depths."""
    return _nll(instance, z, weights)[0]


def map_infer(instance: CrfInstance, z, weights: PairwiseWeights) -> np.ndarray:
    """Most probable depth assignment, the solution of A y = z."""
    return _solved(instance, z, weights)[3]


def nll_with_grads(instance: CrfInstance, z, weights: PairwiseWeights):
    """NLL plus both gradient blocks from a single factorization.

    Returns (nll, grad wrt z, grad wrt beta); what a training step needs.
    Chaining the z gradient with dz/dtheta of the regressor gives the full
    parameter gradient.
    """
    value, prec, u = _nll(instance, z, weights)
    sims, edges = instance.similarities, instance.edges
    inv_diag, inv_pq = prec.selected_inverse()
    traces = sims @ (inv_diag[edges[:, 0]] + inv_diag[edges[:, 1]] - 2.0 * inv_pq)
    grad_beta = (_edge_quadratic(edges, sims, instance.y) - _edge_quadratic(edges, sims, u)
                 - 0.5 * traces)
    return value, 2.0 * (u - instance.y), grad_beta
