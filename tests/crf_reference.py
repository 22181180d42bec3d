"""The dense-stack CRF route the edge-list code replaced, kept as a reference.

Each instance's per-edge similarities are scattered into a (K, n, n) stack,
symmetric and zero off the edge set, and every quantity is computed from
that stack with the formulas the edge-list path replaced: the einsum
coupling matrix, ``A = I + D - R`` from its row sums, and the beta gradient
from ``J_k = diag(S_k 1) - S_k`` with ``tr(A^{-1} J_k)`` over whole
matrices.  It also holds the dense ``A``, Cholesky factor and ``A^{-1}``
that the block tridiagonal factorization replaced.
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


def precision(instance, weights):
    """(A, Cholesky factor, log|A|) from the dense coupling matrix."""
    coupling = np.einsum("k,kpq->pq", weights.beta, dense_stack(instance))
    a = -coupling
    a[np.diag_indices(instance.n)] += 1.0 + coupling.sum(axis=1)
    chol = scipy.linalg.cholesky(a, lower=True)
    return a, chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def map_infer(instance, weights) -> np.ndarray:
    _, chol, _ = precision(instance, weights)
    return scipy.linalg.cho_solve((chol, True), instance.z)


def nll_with_grads(instance, weights):
    """(NLL, gradient in z, gradient in beta), all from dense matrices."""
    a, chol, logdet = precision(instance, weights)
    z, y, n = instance.z, instance.y, instance.n
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


def block_factor(prec) -> np.ndarray:
    """The dense lower triangular L with A = L L', assembled from the blocks
    of a ``crf.Precision``; node v is row v, so the leading [:n, :n] corner
    drops the padding rows at the tail."""
    m, w = prec.inv_diag.shape[:2]
    factor = np.zeros((m * w, m * w))
    for i in range(m):
        rows = slice(i * w, (i + 1) * w)
        factor[rows, rows] = np.linalg.inv(prec.inv_diag[i])
        if i + 1 < m:
            factor[(i + 1) * w:(i + 2) * w, rows] = prec.sub[i]
    return factor[: prec.n, : prec.n]
