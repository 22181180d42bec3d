"""The dense-stack CRF route the edge-list code replaced, kept as a reference.

Each instance's per-edge similarities are scattered into a (K, n, n) stack,
symmetric and zero off the edge set, and every quantity is computed from
that stack with the formulas the edge-list path replaced: the einsum
coupling matrix, ``A = I + D - R`` from its row sums, and the beta gradient
from ``J_k = diag(S_k 1) - S_k`` with ``tr(A^{-1} J_k)`` over whole
matrices.  It also holds the dense ``A``, Cholesky factor and ``A^{-1}``
that the block tridiagonal factorization replaced, the inverse Schur
complements read off the dense factor, the greedy ragged block
layout written node by node, and the block cost of the uniform layout that
the ragged one replaced.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def dense_stack(instance) -> np.ndarray:
    """(K, n, n) similarity stack with edge ``e``'s column at (p, q) and (q, p)."""
    sims = np.zeros((instance.num_channels, instance.n, instance.n))
    p, q = instance.edges[:, 0], instance.edges[:, 1]
    sims[:, p, q] = instance.similarities
    sims[:, q, p] = instance.similarities
    return sims


def precision(instance, beta):
    """(A, Cholesky factor, log|A|) from the dense coupling matrix."""
    coupling = np.einsum("k,kpq->pq", beta, dense_stack(instance))
    a = -coupling
    a[np.diag_indices(instance.n)] += 1.0 + coupling.sum(axis=1)
    chol = scipy.linalg.cholesky(a, lower=True)
    return a, chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def map_infer(instance, z, beta) -> np.ndarray:
    _, chol, _ = precision(instance, beta)
    return scipy.linalg.cho_solve((chol, True), z)


def nll_with_grads(instance, z, beta):
    """(NLL, gradient in z, gradient in beta), all from dense matrices."""
    a, chol, logdet = precision(instance, beta)
    y, n = instance.y, instance.n
    u = scipy.linalg.cho_solve((chol, True), z)
    value = (
        float(y @ (a @ y))
        - 2.0 * float(z @ y)
        + float(z @ u)
        - 0.5 * logdet
        + 0.5 * n * np.log(np.pi)
    )
    sims = dense_stack(instance)
    rowsums = sims.sum(axis=2)
    inv = scipy.linalg.cho_solve((chol, True), np.eye(n))

    def channel_quadratic(v):
        return np.einsum("kp,p->k", rowsums, v * v) - np.einsum("p,kpq,q->k", v, sims, v)

    traces = np.einsum("kp,p->k", rowsums, np.diag(inv)) - np.einsum(
        "pq,kpq->k", inv, sims
    )
    grad_beta = channel_quadratic(y) - channel_quadratic(u) - 0.5 * traces
    return value, 2.0 * (u - y), grad_beta


def schur_blocks(instance, beta):
    """The blocks a ``crf.Precision`` holds, from the dense route: G_i is the
    inverse of the Schur complement L_ii L_ii' of block i, with L the dense
    Cholesky factor, and h_i = A_{i+1,i} G_i; blocks as in the instance's
    layout."""
    a, chol, _ = precision(instance, beta)
    rows = instance.block_rows
    g = [np.linalg.inv(chol[at, at] @ chol[at, at].T) for at in rows]
    h = [a[below, at] @ g_i for at, below, g_i in zip(rows, rows[1:], g)]
    return g, h


def block_starts(n, edges, min_block) -> list:
    """The greedy ragged layout, node by node: the first block holds
    min(min_block, n) nodes; each later block ends one past the furthest node
    any node before it joins, or min_block past its start if that is further;
    a tail narrower than min_block joins the block before it."""
    furthest = list(range(n))
    for p, q in edges:
        furthest[p] = max(furthest[p], q)
    starts, end = [0], min(min_block, n)
    while end < n:
        start = end
        end = min(max(max(furthest[:start]) + 1, start + min_block), n)
        starts.append(start)
    if len(starts) > 1 and n - starts[-1] < min_block:
        del starts[-1]
    return starts + [n]


def uniform_block_cost(instance, min_block) -> int:
    """Sum of w^3 over the blocks of the uniform layout the ragged one
    replaced: m = ceil(n / w) blocks of w = ceil(n / (n // size)) rows, with
    size = min(max(bandwidth, min_block), n), the last block padded."""
    n = instance.n
    bandwidth = int(np.max(instance.edges[:, 1] - instance.edges[:, 0], initial=0))
    size = min(max(bandwidth, min_block), n)
    width = -(-n // (n // size))
    return -(-n // width) * width**3
