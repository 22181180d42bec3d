"""The functions the traced run measures, one layer per ``depthcrf`` module.

``synth`` only makes inputs during set-up, ``config`` is parsing and
``oracle`` is the test reference, so none of them is measured.  Counts are
computed from arguments and results, never from the program's own state.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Target


def _graph_counts(args, kwargs, result):
    return {"graph.nodes": int(result.labels.max()) + 1, "graph.edges": len(result.edges)}


def _rhs_columns(args, kwargs, result):
    rhs = np.asarray(kwargs["rhs"] if "rhs" in kwargs else args[1])
    return {"crf.solve_rhs_columns": 1 if rhs.ndim == 1 else rhs.shape[1]}


def _unary_rows(args, kwargs, result):
    return {"unary.rows": int(np.size(result[0]))}


def _file_size(args, kwargs) -> int:
    """Size of the file named by a reader's or writer's ``path`` argument."""
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _read(args, kwargs, result):
    return {"formats.bytes_read": _file_size(args, kwargs)}


def _written(args, kwargs, result):
    return {"formats.bytes_written": _file_size(args, kwargs)}


def _read_target(name):
    return Target(name, ("formats.bytes_read",), _read)


def _write_target(name):
    return Target(name, ("formats.bytes_written",), _written)


TARGETS = (
    Target("graph.build_graph", ("graph.nodes", "graph.edges"), _graph_counts),
    Target("graph.segment"),
    Target("graph.extract_features"),
    Target("graph.lbp_codes"),
    Target("graph.adjacency"),
    Target(
        "graph.similarities",
        ("graph.similarity_bytes",),
        lambda args, kwargs, result: {"graph.similarity_bytes": result.nbytes},
    ),
    Target("crf.nll_with_grads"),
    Target("crf.map_infer"),
    Target("crf.coupling_matrix"),
    Target("crf.build_precision"),
    Target("crf.Precision.solve", ("crf.solve_rhs_columns",), _rhs_columns),
    Target("unary.forward", ("unary.rows",), _unary_rows),
    Target("unary.backward"),
    Target("training.step"),
    Target("training.train"),
    Target("training.prepare_scene"),
    Target("metrics.predict_image"),
    _read_target("formats.read_ppm"),
    _read_target("formats.read_checkpoint"),
    _write_target("formats.write_depth_raster"),
    _read_target("formats.read_depth_raster"),
    _write_target("formats.write_checkpoint"),
    Target("cli.main"),
)
