"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload is single-process and closed loop with one caller: the next
operation starts when the previous one has returned.  Inputs come from
``synth`` with dataset seeds derived from the workload seed, so the same seed
gives the same inputs, and the train and held-out sets never share a scene.

* ``predict-700``: one operation is the ``predict`` command run in-process
  through ``cli.main`` on a held-out image at 700 superpixels, the source
  paper's resolution, with a checkpoint that set-up trains through the CLI.
  The graph front end holds nearly all of its time; the CRF solve little.
* ``train-2000``: one operation is one training epoch, state carried across
  epochs, on a scene at 2000 superpixels (n about 2025).  The dense
  ``(3, n, n)`` similarity stack and the dense inverse used for the beta
  gradient's trace hold nearly all of its time and memory.  One scene keeps
  an epoch short enough that a run holds the tail's sample count.
* ``train-150``: the same training code at the default 150 superpixels on
  more scenes, where fixed per-call cost dominates.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

# Calls go through module attributes so that traced runs see them.
from depthcrf import cli, formats, training
from depthcrf.config import config_from_mapping
from depthcrf.graph import SceneSample

import speed


def parse_raster(path) -> np.ndarray:
    """Read a ``DEPTH rows cols`` raster without the program's own reader."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "DEPTH":
            raise ValueError(f"{path}: not a depth raster")
        rows, cols = int(header[1]), int(header[2])
        values = np.array(fh.read().split(), dtype=float)
    if values.size != rows * cols:
        raise ValueError(f"{path}: {values.size} values for a {rows}x{cols} raster")
    return values.reshape(rows, cols)


def raster_fault(raster, shape) -> str | None:
    """Why a predicted raster is wrong for an image of ``shape``, or None."""
    if raster.shape != tuple(shape):
        return f"raster shape {raster.shape} differs from image shape {tuple(shape)}"
    if not np.all(np.isfinite(raster)):
        return "raster holds a non-finite depth"
    if np.any(raster <= 0.0):
        return "raster holds a non-positive depth"
    return None


def nll_fault(value) -> str | None:
    """Why an epoch's mean NLL is wrong, or None."""
    return None if math.isfinite(value) else f"non-finite epoch NLL {value!r}"


def _cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def _synth(out: Path, count: int, dataset_seed: int) -> None:
    code = _cli("synth", "--set", f"count={count}", "--set", f"seed={dataset_seed}", "--out", out)
    if code != 0:
        raise RuntimeError(f"synth exited {code}")


def _warm_up(workload, k: int) -> None:
    fault = workload.check(k, workload.op(k))
    if fault:
        raise RuntimeError(f"{workload.name} warm-up failed: {fault}")


class Predict700:
    """``predict`` through the CLI, one held-out image per operation."""

    name = "predict-700"
    speed_kernel = staticmethod(speed.windows)  # the graph front end holds its time
    SUPERPIXELS = 700
    TRAIN_SCENES = 2
    TRAIN_EPOCHS = 3
    HELDOUT = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.first_pass = self.HELDOUT
        self.first_output: dict[int, np.ndarray] = {}

    def setup(self, work: Path) -> None:
        train, held, run = work / "train", work / "heldout", work / "run"
        _synth(train, self.TRAIN_SCENES, 2 * self.seed)
        _synth(held, self.HELDOUT, 2 * self.seed + 1)
        code = _cli(
            "train", "--dataset", train, "--out", run,
            "--set", f"target_superpixels={self.SUPERPIXELS}",
            "--set", f"epochs={self.TRAIN_EPOCHS}",
        )
        if code != 0:
            raise RuntimeError(f"train exited {code}")
        self.checkpoint = run / "checkpoint.txt"
        rows = formats.read_manifest(held / "manifest.txt")
        self.images = [held / img for img, _dep, _seed in rows]
        self.truths = [parse_raster(held / dep) for _img, dep, _seed in rows]
        self.outputs = [work / f"pred_{i:04d}.txt" for i in range(self.HELDOUT)]
        self.first_output.clear()
        _warm_up(self, 0)

    def op(self, k: int) -> int:
        i = k % self.HELDOUT
        return _cli(
            "predict", "--checkpoint", self.checkpoint,
            "--image", self.images[i], "--out", self.outputs[i],
        )

    def check(self, k: int, code) -> str | None:
        if code != 0:
            return f"predict exited {code}"
        i = k % self.HELDOUT
        raster = parse_raster(self.outputs[i])
        fault = raster_fault(raster, self.truths[i].shape)
        if fault is None:
            first = self.first_output.setdefault(i, raster)
            if not np.array_equal(first, raster):
                fault = "prediction differs from an earlier one of the same image"
        return fault

    def finish(self) -> tuple[dict, list[str]]:
        """Pooled RMS error over every held-out image, predicting any not yet seen."""
        faults = []
        for i in range(self.HELDOUT):
            if i not in self.first_output:
                fault = self.check(i, self.op(i))
                if fault:
                    faults.append(fault)
        if faults:
            return {}, faults
        pred = np.concatenate([self.first_output[i].ravel() for i in range(self.HELDOUT)])
        truth = np.concatenate([t.ravel() for t in self.truths])
        return {"rms_m": float(np.sqrt(np.mean((pred - truth) ** 2)))}, []


class Train:
    """Whole epochs of ``training.train``, carrying the state between epochs."""

    speed_kernel = staticmethod(speed.cholesky)  # the CRF's dense solves hold its time

    def __init__(self, seed: int):
        self.seed = seed
        self.first_pass = 1  # one epoch visits every scene
        self.config = config_from_mapping({"target_superpixels": str(self.SUPERPIXELS)})
        self.epoch_config = dataclasses.replace(self.config.train_config(), epochs=1)

    def setup(self, work: Path) -> None:
        data = work / "train"
        _synth(data, self.SCENES, 2 * self.seed)
        self.work = work
        rows = formats.read_manifest(data / "manifest.txt")
        samples = [
            SceneSample(
                image=formats.read_ppm(data / img), depth=formats.read_depth_raster(data / dep)
            )
            for img, dep, _seed in rows
        ]
        self.image = data / rows[0][0]
        self.image_shape = samples[0].shape
        self.scenes, self.input_mean, self.input_std = training.prepare_dataset(
            samples, self.config.graph_config()
        )
        self.state = training.init_state(self.config.layer_dims(), self.epoch_config)
        _warm_up(self, 0)

    def op(self, k: int) -> float:
        self.state = training.train(self.scenes, self.epoch_config, state=self.state)
        return self.state.history[-1].mean_nll

    def check(self, k: int, mean_nll) -> str | None:
        return nll_fault(mean_nll)

    def finish(self) -> tuple[dict, list[str]]:
        """Write the trained checkpoint and predict a training image with it."""
        checkpoint = self.work / "checkpoint.txt"
        out = self.work / "pred.txt"
        while len(self.state.history) < 2:  # a run too short for one timed epoch
            _warm_up(self, len(self.state.history))
        formats.write_checkpoint(
            checkpoint,
            formats.Checkpoint(
                config=self.config,
                model=self.state.model,
                beta=self.state.beta,
                gammas=np.asarray(self.config.graph_config().gammas),
                input_mean=self.input_mean,
                input_std=self.input_std,
            ),
        )
        code = _cli("predict", "--checkpoint", checkpoint, "--image", self.image, "--out", out)
        fault = f"predict exited {code}" if code else raster_fault(
            parse_raster(out), self.image_shape
        )
        # history[0] is the warm-up epoch; the first timed epoch does not
        # depend on how many epochs fit in the run, so it can be pinned.
        return {"train_nll": self.state.history[1].mean_nll}, [fault] if fault else []


class Train2000(Train):
    name = "train-2000"
    SUPERPIXELS = 2000
    SCENES = 1


class Train150(Train):
    name = "train-150"
    SUPERPIXELS = 150
    SCENES = 8


WORKLOADS = {w.name: w for w in (Predict700, Train2000, Train150)}
