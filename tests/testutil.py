"""Shared helpers for the test suite: instance factories, error measures,
seeded file corruptions and the usable-CPU count that spreads scene work."""

from __future__ import annotations

import os

import numpy as np
import pytest

from depthcrf import graph
from depthcrf.crf import CrfInstance
from depthcrf.oracle import random_instance, rel_err  # noqa: F401  (re-exported)


def single_edge_instance(coupling_value, y=None, k=1):
    """Two nodes, one edge, all channels equal; beta of ones reproduces it."""
    return CrfInstance(
        n=2,
        similarities=np.full((k, 1), coupling_value / k),
        edges=np.array([[0, 1]]),
        y=None if y is None else np.asarray(y, dtype=float),
    )


def no_edge_instance(n, y=None, k=1):
    return CrfInstance(
        n=n,
        similarities=np.zeros((k, 0)),
        edges=np.empty((0, 2), dtype=np.intp),
        y=None if y is None else np.asarray(y, dtype=float),
    )


def permute_instance(instance, perm):
    """The same graph with nodes relabeled by `perm` (old index -> position);
    a z of the original graph is ``z[perm]`` on this one.

    Relabeled edges are put back in canonical order, their similarity
    columns moving with them.
    """
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    edges = np.sort(inv[instance.edges], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return CrfInstance(
        n=instance.n,
        similarities=instance.similarities[:, order],
        edges=edges[order],
        y=None if instance.y is None else instance.y[perm],
    )


def corruptions(blob: bytes, rng, count: int):
    """``count`` seeded edits of a file's bytes, one edit each: a truncation, a
    byte replaced by any of the 256 (so also by bytes >= 0x80, which no
    ASCII file holds), or a line dropped or duplicated."""
    lines = blob.splitlines(keepends=True)
    for _ in range(count):
        kind, pos, line = rng.integers(4), rng.integers(len(blob)), rng.integers(len(lines))
        if kind == 0:
            yield blob[:pos]
        elif kind == 1:
            yield blob[:pos] + bytes([rng.integers(256)]) + blob[pos + 1 :]
        elif kind == 2:
            yield b"".join(lines[:line] + lines[line + 1 :])
        else:
            yield b"".join(lines[: line + 1] + lines[line:])


def assert_read_only(inst) -> None:
    """Every array an instance stores refuses writes."""
    with pytest.raises(ValueError):
        inst.similarities[0, 0] = 1.0
    with pytest.raises(ValueError):
        inst.edges[0, 0] = 1
    with pytest.raises(ValueError):
        inst.y[0] = 1.0
    for layout in (inst.node_slots, inst.edge_slots, inst.y_sq_diffs):
        with pytest.raises(ValueError):
            layout[0] = 0


# From Python 3.12, in a process with more than one thread, map_scenes never forks
CAN_FORK = not (graph.FORK_WARNS_WITH_THREADS and graph._threaded())


def use_cpus(monkeypatch, count: int) -> None:
    """Make ``graph.map_scenes`` see ``count`` usable CPUs; no real affinity changes.
    A test that needs two or more is skipped where ``map_scenes`` cannot fork."""
    if count >= 2 and not CAN_FORK:
        pytest.skip("os.fork warns in a process with threads from Python 3.12")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def open_fds() -> list[str]:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def assert_no_children() -> None:
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
