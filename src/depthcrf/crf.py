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
about 90 on synthetic scenes of 150, 700 and 2000 superpixels), and most
edges span much less (99% of them 46 or less at 2000).  So the blocks have
ragged widths, cut greedily at each node's reach, the last node its edges
join.  The first block holds ``MIN_BLOCK`` nodes (all n, if fewer).  Each
later block ends one past the furthest node that any earlier node reaches,
or ``MIN_BLOCK`` nodes past its start if that is further, and a tail
narrower than ``MIN_BLOCK`` joins the block before it.  Every edge then
lies inside a diagonal block or the block just below it, so ``A`` is block
tridiagonal, no row is padding, and a block is no wider than the edges
into it and the ``MIN_BLOCK`` floor require.  The edges alone fix this
layout, so the instance stores it.  The block Cholesky factor of ``A`` is
block bidiagonal, and the blocks of ``A^{-1}`` on that pattern follow from
the factor alone by selected inversion (Takahashi, Fagan & Chin 1973; Rue
& Held, *Gaussian Markov Random Fields*, 2005, section 2.3).  A graph
whose first node reaches its last, such as a random dense one, is at most
two blocks, the first ``MIN_BLOCK`` nodes and the rest; below
``2 MIN_BLOCK`` nodes it is one block, the plain dense Cholesky
factorization.  The trace term of the beta gradient reads ``A^{-1}`` only
on the diagonal and the edges, all inside that pattern, so no n x n array
is ever formed.

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dtrtri as _trtri

# Floor of every block's width in the block Cholesky factorization (a graph
# of fewer nodes is one block); edge reach widens a block beyond it.  Its
# cost per block is a few small dense products, so smaller blocks save flops
# until the fixed cost of each block's calls outweighs them; 32 nodes was
# the fastest of 16-128 at 144 and 676 nodes.
MIN_BLOCK = 32


class FactorizationError(RuntimeError):
    """Cholesky failed: the precision matrix is not positive definite, its
    couplings or its factor are not finite, or its condition bound reaches
    1/eps.

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
    built, along with the ragged block layout of the precision matrix (see
    the module docstring).  Block ``i`` holds nodes ``block_starts[i]`` to
    ``block_starts[i + 1] - 1``.  The blocks live in one flat buffer: piece
    ``2i`` is diagonal block i, of shape (w_i, w_i), and piece ``2i + 1`` the
    block just below it, of shape (w_{i+1}, w_i); piece ``k`` spans
    ``block_offsets[k]`` to ``block_offsets[k + 1]``.  ``node_slots[v]`` is
    the position of entry (v, v) in that buffer and ``edge_slots[e]`` the
    position of edge ``e``'s entry (q, p).
    """

    n: int
    similarities: np.ndarray
    edges: np.ndarray
    y: np.ndarray | None = None
    block_starts: np.ndarray = field(init=False, repr=False, compare=False)
    block_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    node_slots: np.ndarray = field(init=False, repr=False, compare=False)
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
        starts = _block_starts(n, edges)
        widths = np.diff(starts)
        sizes = np.empty(2 * len(widths) - 1, dtype=np.intp)
        sizes[0::2], sizes[1::2] = widths * widths, widths[1:] * widths[:-1]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        block = np.repeat(np.arange(len(widths)), widths)
        at = np.arange(n) - starts[block]
        # an edge's blocks pb <= qb <= pb + 1 pick piece pb + qb; row q, column p
        pb, qb = block[p], block[q]
        layout = dict(block_starts=starts, block_offsets=offsets,
                      node_slots=offsets[2 * block] + at * (widths[block] + 1),
                      edge_slots=offsets[pb + qb] + at[q] * widths[pb] + at[p])
        for value in layout.values():
            value.setflags(write=False)
        checked = dict(n=n, similarities=sims, edges=edges, y=y, **layout)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def num_channels(self):
        return self.similarities.shape[0]


def _block_starts(n, edges):
    """Node boundaries of the ragged blocks, shape (m + 1,): the first block
    holds min(MIN_BLOCK, n) nodes, each later one ends one past the furthest
    node any earlier node reaches, or MIN_BLOCK past its start if that is
    further, and a tail narrower than MIN_BLOCK joins the block before it."""
    reach = np.arange(n)
    if len(edges):
        # edges are sorted, so each node's last edge reaches furthest
        last = np.append(edges[1:, 0] != edges[:-1, 0], True)
        reach[edges[last, 0]] = edges[last, 1]
    reach = np.maximum.accumulate(reach)  # the last node reached from 0..v
    starts, end = [0], min(MIN_BLOCK, n)
    while end < n:
        starts.append(end)
        end = min(max(int(reach[end - 1]) + 1, end + MIN_BLOCK), n)
    if len(starts) > 1 and n - starts[-1] < MIN_BLOCK:
        starts.pop()
    return np.array(starts + [n], dtype=np.intp)


def _block_views(instance, buffer):
    """The diagonal blocks and the blocks just below them, as views of a flat
    ``buffer`` in the instance's block layout."""
    starts, offsets = instance.block_starts.tolist(), instance.block_offsets.tolist()
    widths = [end - start for start, end in zip(starts, starts[1:])]
    pieces = [buffer[offsets[k]:offsets[k + 1]].reshape(widths[(k + 1) // 2], widths[k // 2])
              for k in range(len(offsets) - 1)]
    return pieces[0::2], pieces[1::2]


@dataclass(frozen=True)
class Precision:
    """Block Cholesky factor and log|A| of the block tridiagonal precision A.

    A = L L' with L block lower bidiagonal, over the instance's ragged
    blocks; node ``v`` is row ``v`` and no row is padding.  ``inv_diag[i]``
    is the inverse of the lower triangular diagonal block L_ii, of shape
    (w_i, w_i), so that every solve below is a matrix product, and
    ``sub[i]`` is the block L_{i+1,i}, of shape (w_{i+1}, w_i).
    """

    instance: CrfInstance
    inv_diag: tuple
    sub: tuple
    logdet: float

    @property
    def n(self):
        return self.instance.n

    def solve(self, rhs):
        """A^{-1} rhs for a vector or an (n, k) matrix, by block substitution."""
        x = np.array(rhs, dtype=float)
        if x.shape[:1] != (self.n,):
            raise ValueError(f"rhs must have {self.n} rows")
        starts = self.instance.block_starts.tolist()
        rows = [slice(start, end) for start, end in zip(starts, starts[1:])]
        for i, at in enumerate(rows):
            if i:
                x[at] -= self.sub[i - 1] @ x[rows[i - 1]]
            x[at] = self.inv_diag[i] @ x[at]
        for i in reversed(range(len(rows))):
            at = rows[i]
            if i + 1 < len(rows):
                x[at] -= self.sub[i].T @ x[rows[i + 1]]
            x[at] = self.inv_diag[i].T @ x[at]
        return x

    def selected_inverse(self):
        """A^{-1} on the diagonal, shape (n,), and on the edges, shape (E,).

        Selected inversion, walking the blocks upward with
        H_i = L_{i+1,i} L_ii^{-1}:  S_{i+1,i} = -S_{i+1,i+1} H_i  and
        S_ii = L_ii^{-T} L_ii^{-1} - S_{i+1,i}' H_i.
        """
        # S_ii and S_{i+1,i} in the layout of node_slots and edge_slots
        buffer = np.empty(self.instance.block_offsets[-1])
        diag, below = _block_views(self.instance, buffer)
        for i in reversed(range(len(diag))):
            inv_l = self.inv_diag[i]
            np.matmul(inv_l.T, inv_l, out=diag[i])
            if i < len(below):
                h = self.sub[i] @ inv_l
                below[i][...] = -(diag[i + 1] @ h)
                diag[i] -= below[i].T @ h
        return buffer[self.instance.node_slots], buffer[self.instance.edge_slots]


@np.errstate(over="ignore")  # a coupling that overflows to inf fails build_precision
def coupling_matrix(instance: CrfInstance, weights: PairwiseWeights) -> np.ndarray:
    """The coupling matrix R in edge-list form: r_e = sum_k beta_k s_ke, shape (E,)."""
    if len(weights) != instance.num_channels:
        raise ValueError(f"expected {instance.num_channels} weights, got {len(weights)}")
    return weights.beta @ instance.similarities


@np.errstate(over="ignore", invalid="ignore")
def build_precision(instance: CrfInstance, couplings) -> Precision:
    """Factor A = I + D - R, where R holds ``couplings[e]`` at edge ``instance.edges[e]``.

    Raises FactorizationError when A is not positive definite, when the
    couplings or the factor are not finite, or when the condition bound
    2 max_i A_ii - 1 reaches 1/eps; under valid inputs (finite, nonnegative
    couplings that rounding does not swamp) none of these can happen.
    """
    couplings = np.asarray(couplings, dtype=float)
    if couplings.shape != (len(instance.edges),):
        raise ValueError("need one coupling per edge")
    n = instance.n
    diagonal = np.bincount(instance.edges[:, 0], couplings, minlength=n) + np.bincount(
        instance.edges[:, 1], couplings, minlength=n
    ) + 1.0
    # lower triangles of the diagonal blocks of A, and the blocks A_{i+1,i}
    blocks = np.zeros(instance.block_offsets[-1])
    blocks[instance.node_slots] = diagonal
    blocks[instance.edge_slots] = -couplings
    a_diag, a_below = _block_views(instance, blocks)
    inv_diag, sub = [], []
    logdet = 0.0
    for i, a in enumerate(a_diag):
        if i:
            a -= sub[-1] @ sub[-1].T
        chol, info = _potrf(a, lower=1)
        if info:
            raise FactorizationError(
                f"precision matrix is not positive definite: leading minor "
                f"{info} of diagonal block {i} of {len(a_diag)} is not positive"
            )
        logdet += 2.0 * float(np.sum(np.log(np.diagonal(chol))))
        inv_diag.append(_trtri(chol, lower=1, overwrite_c=1)[0])
        if i < len(a_below):
            # L_{i+1,i} = A_{i+1,i} L_ii^{-T}
            sub.append(a_below[i] @ inv_diag[i].T)
    # every coupling sits on the diagonal, and every entry of L and of the
    # inverse blocks but the last reaches a later pivot, so a non-finite
    # value anywhere leaves logdet or the last inverse block non-finite
    if not (math.isfinite(logdet) and np.isfinite(inv_diag[-1]).all()):
        raise FactorizationError("the couplings or the factor of the precision matrix "
                                 "are not finite")
    # Gershgorin: with couplings >= 0 every eigenvalue of A lies in
    # [1, 2 max_i A_ii - 1]; once that bound on cond(A) reaches 1/eps the unit
    # diagonal is lost to rounding
    bound = 2.0 * float(diagonal.max()) - 1.0
    if bound * np.finfo(float).eps >= 1.0:
        raise FactorizationError(f"the precision matrix's condition bound 2 max A_ii - 1 = "
                                 f"{bound:.3g} reaches 1/eps: the couplings swamp its diagonal")
    return Precision(instance, tuple(inv_diag), tuple(sub), logdet)


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
