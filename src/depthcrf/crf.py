"""Exact Gaussian conditional random field on a superpixel graph.

A graph instance couples per-node regressed log-depths ``z`` with nonnegative
edge couplings derived from appearance similarities.  The energy of a depth
assignment ``y``,

    E(y) = sum_p (y_p - z_p)^2 + sum_{(p,q) in edges} r_pq (y_p - y_q)^2,

is a positive definite quadratic in ``y``, so the normalizer of ``exp(-E)``
is a Gaussian integral and everything downstream is closed form (this module
computes only these; ``oracle.direct_energy`` sums E(y) term by term):

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
change between training steps, and every function takes both as 1-D
arrays: ``beta`` is one finite coefficient >= 0 per channel, checked in
``coupling_matrix``, which every function passes through.  With
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
layout, so the instance stores it.  Block elimination walks the blocks
down: with ``B_i = A_{i+1,i}``, the Schur complements are ``C_0 = A_00``
and ``C_i = A_ii - h_{i-1} B_{i-1}'``, where ``G_i = C_i^{-1}`` and
``h_i = B_i G_i``.  Each ``C_i`` is factored by Cholesky, whose pivots give
``log|A| = sum_i log|C_i|``, and inverted through its triangular factor.
``G`` and ``h`` alone carry the solves, and the blocks of ``A^{-1}`` on the
tridiagonal pattern follow from them by selected inversion (Takahashi,
Fagan & Chin 1973; Rue & Held, *Gaussian Markov Random Fields*, 2005,
section 2.3).  A graph whose first node reaches its last, such as a random
dense one, is at most two blocks, the first ``MIN_BLOCK`` nodes and the
rest; below ``2 MIN_BLOCK`` nodes it is one block, whose ``G`` is the
dense inverse.  The trace term of the beta gradient reads ``A^{-1}`` only
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
    the module docstring).  Block ``i`` holds the nodes, and rows, in the
    slice ``block_rows[i]``.  The blocks live in one flat buffer per
    factorization: piece ``2i`` is diagonal block i, of shape (w_i, w_i), and
    piece ``2i + 1`` the block just below it, of shape (w_{i+1}, w_i).
    ``block_pieces[k]`` holds piece ``k``'s start, end and shape; the last end
    is the buffer's size.  ``node_slots[v]`` is the position of entry (v, v)
    in that buffer and ``edge_slots[e]`` the position of edge ``e``'s entry
    (q, p).  With ``y`` given, ``y_sq_diffs[e]`` is (y_p - y_q)^2 on edge
    ``e``; every training step reads the pairwise energy of y as
    ``couplings @ y_sq_diffs`` and y' J_k y (see the module docstring) as
    ``similarities @ y_sq_diffs``.
    """

    n: int
    similarities: np.ndarray
    edges: np.ndarray
    y: np.ndarray | None = None
    node_slots: np.ndarray = field(init=False, repr=False, compare=False)
    edge_slots: np.ndarray = field(init=False, repr=False, compare=False)
    block_pieces: tuple = field(init=False, repr=False, compare=False)
    block_rows: tuple = field(init=False, repr=False, compare=False)
    y_sq_diffs: np.ndarray | None = field(init=False, repr=False, compare=False)

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
        layout = dict(node_slots=offsets[2 * block] + at * (widths[block] + 1),
                      edge_slots=offsets[pb + qb] + at[q] * widths[pb] + at[p])
        y_sq_diffs = None if y is None else (y[p] - y[q]) ** 2
        for value in (*layout.values(), y_sq_diffs):
            if value is not None:
                value.setflags(write=False)
        bounds, w = offsets.tolist(), widths.tolist()
        layout["block_pieces"] = tuple((bounds[k], bounds[k + 1], (w[(k + 1) // 2], w[k // 2]))
                                       for k in range(len(sizes)))
        layout["block_rows"] = tuple(map(slice, starts[:-1].tolist(), starts[1:].tolist()))
        checked = dict(n=n, similarities=sims, edges=edges, y=y, y_sq_diffs=y_sq_diffs, **layout)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):  # unpickling checks and freezes the arrays as building does
        return CrfInstance, (self.n, self.similarities, self.edges, self.y)

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


@dataclass(frozen=True)
class Precision:
    """Inverse Schur complements and log|A| of the block tridiagonal precision A.

    Over the instance's ragged blocks, with B_i = A_{i+1,i}, the Schur
    complements are C_0 = A_00 and C_i = A_ii - h_{i-1} B_{i-1}'.  ``g[i]`` is
    G_i = C_i^{-1}, of shape (w_i, w_i), computed from the Cholesky factor
    C_i = L_i L_i' (whose pivots give log|A|) as L_i^{-T} L_i^{-1}, and
    ``h[i]`` is h_i = B_i G_i, of shape (w_{i+1}, w_i); node ``v`` is row
    ``v`` and no row is padding.  Then A = M D M' with M unit block lower
    bidiagonal, M_{i+1,i} = h_i, and D block diagonal, D_ii = C_i, so every
    solve is a chain of matrix products: three per block for ``solve`` and
    two for ``selected_inverse``.

    ``blocks`` is the flat buffer in which ``build_precision`` formed A and
    each C_i, and ``pieces`` its views in the instance's layout;
    ``selected_inverse`` overwrites them with S_ii and S_{i+1,i}.  No G_i or
    h_i is a view of it, so each call of either method gives the same result.
    """

    instance: CrfInstance
    g: tuple
    h: tuple
    logdet: float
    blocks: np.ndarray
    pieces: list

    def solve(self, rhs):
        """A^{-1} rhs for a vector or an (n, k) matrix, by block substitution:
        y_i = rhs_i - h_{i-1} y_{i-1} downward, then x_i = G_i y_i - h_i' x_{i+1}
        upward."""
        x = np.array(rhs, dtype=float)
        if x.shape[:1] != (self.instance.n,):
            raise ValueError(f"rhs must have {self.instance.n} rows")
        rows = self.instance.block_rows
        for i in range(1, len(rows)):
            x[rows[i]] -= self.h[i - 1] @ x[rows[i - 1]]
        x[rows[-1]] = self.g[-1] @ x[rows[-1]]
        for i in reversed(range(len(rows) - 1)):
            x[rows[i]] = self.g[i] @ x[rows[i]] - self.h[i].T @ x[rows[i + 1]]
        return x

    def selected_inverse(self):
        """A^{-1} on the diagonal, shape (n,), and on the edges, shape (E,).

        Selected inversion, walking the blocks upward from S = G_last:
        S_{i+1,i} = -S_{i+1,i+1} h_i  and  S_ii = G_i - S_{i+1,i}' h_i.
        """
        # S_ii and S_{i+1,i} in the layout of node_slots and edge_slots
        diag, below = self.pieces[0::2], self.pieces[1::2]
        diag[-1][...] = self.g[-1]
        for i in reversed(range(len(below))):
            np.matmul(diag[i + 1], self.h[i], out=below[i])
            np.negative(below[i], out=below[i])
            np.matmul(below[i].T, self.h[i], out=diag[i])
            np.subtract(self.g[i], diag[i], out=diag[i])
        return self.blocks[self.instance.node_slots], self.blocks[self.instance.edge_slots]


@np.errstate(over="ignore")  # a coupling that overflows to inf fails build_precision
def coupling_matrix(instance: CrfInstance, beta) -> np.ndarray:
    """The coupling matrix R in edge-list form: r_e = sum_k beta_k s_ke, shape (E,);
    ValueError unless ``beta`` is one finite coefficient >= 0 per channel."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (instance.num_channels,):
        raise ValueError(f"expected {instance.num_channels} weights, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)) or np.any(beta < 0):
        raise ValueError("pairwise weights must be finite and >= 0")
    return beta @ instance.similarities


@np.errstate(over="ignore", invalid="ignore")
def build_precision(instance: CrfInstance, couplings) -> Precision:
    """Eliminate A = I + D - R block by block, where R holds ``couplings[e]`` at
    edge ``instance.edges[e]``: the inverse Schur complements and log|A|.

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
    blocks = np.zeros(instance.block_pieces[-1][1])
    blocks[instance.node_slots] = diagonal
    blocks[instance.edge_slots] = -couplings
    pieces = [blocks[start:end].reshape(shape) for start, end, shape in instance.block_pieces]
    a_diag, a_below = pieces[0::2], pieces[1::2]
    g, h = [], []
    logdet = 0.0
    for i, a in enumerate(a_diag):
        if i:
            a -= h[-1] @ a_below[i - 1].T  # the Schur complement C_i
        chol, info = _potrf(a, lower=1)
        if info:
            raise FactorizationError(
                f"precision matrix is not positive definite: leading minor "
                f"{info} of diagonal block {i} of {len(a_diag)} is not positive"
            )
        logdet += 2.0 * float(np.log(chol.diagonal()).sum())
        inv_chol = _trtri(chol, lower=1, overwrite_c=1)[0]
        g.append(inv_chol.T @ inv_chol)
        if i < len(a_below):
            h.append(a_below[i] @ g[i])
    # every coupling sits on the diagonal, so a non-finite one reaches a pivot;
    # every G_i but the last enters the next Schur complement through h_i, so
    # a non-finite value in it or in h_i reaches a later pivot too.  So a
    # non-finite value anywhere leaves logdet or the last G non-finite
    if not (math.isfinite(logdet) and np.isfinite(g[-1]).all()):
        raise FactorizationError("the couplings or the factor of the precision matrix "
                                 "are not finite")
    # Gershgorin: with couplings >= 0 every eigenvalue of A lies in
    # [1, 2 max_i A_ii - 1]; once that bound on cond(A) reaches 1/eps the unit
    # diagonal is lost to rounding
    bound = 2.0 * float(diagonal.max()) - 1.0
    if bound * np.finfo(float).eps >= 1.0:
        raise FactorizationError(f"the precision matrix's condition bound 2 max A_ii - 1 = "
                                 f"{bound:.3g} reaches 1/eps: the couplings swamp its diagonal")
    return Precision(instance, tuple(g), tuple(h), logdet, blocks, pieces)


def _solved(instance, z, beta):
    """The checked z (n finite values), the couplings, the factor of A and u = A^{-1} z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (instance.n,) or not np.all(np.isfinite(z)):
        raise ValueError(f"z must be {instance.n} finite values")
    couplings = coupling_matrix(instance, beta)
    prec = build_precision(instance, couplings)
    return z, couplings, prec, prec.solve(z)


def _log_partition(z, prec, u):
    return 0.5 * prec.instance.n * np.log(np.pi) - 0.5 * prec.logdet + float(z @ u) - float(z @ z)


def log_partition(instance: CrfInstance, z, beta) -> float:
    """log integral of exp(-E) over all depth assignments; ``beta`` is checked
    in ``coupling_matrix``: one finite coefficient >= 0 per channel."""
    z, _, prec, u = _solved(instance, z, beta)
    return _log_partition(z, prec, u)


def _nll(instance, z, beta):
    """NLL of the ground truth, with the factorization and u = A^{-1} z behind it."""
    if instance.y is None:
        raise ValueError("instance has no ground-truth depths")
    z, couplings, prec, u = _solved(instance, z, beta)
    value = float(np.sum((instance.y - z) ** 2)) + float(couplings @ instance.y_sq_diffs)
    return value + _log_partition(z, prec, u), prec, u


def nll(instance: CrfInstance, z, beta) -> float:
    """Negative log-likelihood of the instance's ground-truth depths; ``beta``
    is checked in ``coupling_matrix``: one finite coefficient >= 0 per channel."""
    return _nll(instance, z, beta)[0]


def map_infer(instance: CrfInstance, z, beta) -> np.ndarray:
    """Most probable depth assignment, the solution of A y = z; ``beta`` is
    checked in ``coupling_matrix``: one finite coefficient >= 0 per channel."""
    return _solved(instance, z, beta)[3]


def nll_with_grads(instance: CrfInstance, z, beta):
    """NLL plus both gradient blocks from a single factorization.

    Returns (nll, grad wrt z, grad wrt beta); what a training step needs.
    ``beta`` is one finite coefficient >= 0 per channel, checked in ``coupling_matrix``.
    Chaining the z gradient with dz/dtheta of the regressor gives the full
    parameter gradient.
    """
    value, prec, u = _nll(instance, z, beta)
    sims, edges = instance.similarities, instance.edges
    inv_diag, inv_pq = prec.selected_inverse()
    traces = sims @ (inv_diag[edges[:, 0]] + inv_diag[edges[:, 1]] - 2.0 * inv_pq)
    diffs = u[edges[:, 0]] - u[edges[:, 1]]
    grad_beta = sims @ instance.y_sq_diffs - sims @ (diffs * diffs) - 0.5 * traces
    return value, 2.0 * (u - instance.y), grad_beta
