"""Shared helpers for the test suite: instance factories and error measures."""

from __future__ import annotations

import numpy as np

from depthcrf.crf import CrfInstance, PairwiseWeights
from depthcrf.oracle import random_instance, rel_err  # noqa: F401  (re-exported)


def single_edge_instance(coupling_value, z, y=None, k=1):
    """Two nodes, one edge, all channels equal; beta of ones reproduces it."""
    return CrfInstance(
        z=np.asarray(z, dtype=float),
        similarities=np.full((k, 1), coupling_value / k),
        edges=np.array([[0, 1]]),
        y=None if y is None else np.asarray(y, dtype=float),
    )


def no_edge_instance(z, y=None, k=1):
    return CrfInstance(
        z=np.atleast_1d(np.asarray(z, dtype=float)),
        similarities=np.zeros((k, 0)),
        edges=np.empty((0, 2), dtype=np.intp),
        y=None if y is None else np.asarray(y, dtype=float),
    )


def permute_instance(instance, perm):
    """The same graph with nodes relabeled by `perm` (old index -> position).

    Relabeled edges are put back in canonical order, their similarity
    columns moving with them.
    """
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    edges = np.sort(inv[instance.edges], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return CrfInstance(
        z=instance.z[perm],
        similarities=instance.similarities[:, order],
        edges=edges[order],
        y=None if instance.y is None else instance.y[perm],
    )
