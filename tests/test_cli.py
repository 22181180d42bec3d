"""End-to-end command tests, run in process through ``cli.main``."""

import errno
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import depthcrf
from depthcrf import cli, crf, metrics, training
from depthcrf.config import ConfigError
from depthcrf.cli import main
from depthcrf.formats import (
    read_checkpoint,
    read_depth_raster,
    read_history,
    read_manifest,
    read_ppm,
    write_checkpoint,
    write_manifest,
    write_ppm,
)
from depthcrf.graph import SceneSample
from testutil import assert_no_children, corruptions, use_cpus

# small scenes and graphs keep each command fast enough for the suite
FAST = [
    "--set", "height=48",
    "--set", "width=48",
    "--set", "target_superpixels=16",
    "--set", "box_size=8",
    "--set", "patch_dim=4",
    "--set", "hidden_dims=8",
    "--set", "dropout_keep=1.0",
]


def make_dataset(root, count=2, seed=7, extra=()):
    out = root / f"data_{seed}_{count}"
    rc = main(["synth", "--out", str(out), "--set", f"count={count}",
               "--set", f"seed={seed}", *FAST, *extra])
    assert rc == 0
    return out


def train_run(root, data, name, epochs, extra=()):
    out = root / name
    rc = main(["train", "--dataset", str(data), "--out", str(out),
               "--set", f"epochs={epochs}", *FAST, *extra])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset and a checkpoint trained on it for one epoch, for read-only tests."""
    root = tmp_path_factory.mktemp("trained")
    data = make_dataset(root)
    return data, train_run(root, data, "run", epochs=1) / "checkpoint.txt"


def test_synth_writes_manifest_and_files(tmp_path):
    data = make_dataset(tmp_path, count=3)
    rows = read_manifest(data / "manifest.txt")
    assert len(rows) == 3
    for img_rel, dep_rel, _seed in rows:
        image = read_ppm(data / img_rel)
        depth = read_depth_raster(data / dep_rel)
        assert image.shape == (48, 48, 3)
        assert depth.shape == (48, 48)
        assert np.all(depth > 0.0)


def test_synth_rerun_is_byte_identical(tmp_path):
    first = make_dataset(tmp_path / "a")
    second = make_dataset(tmp_path / "b")
    for name in sorted(p.name for p in first.iterdir()):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_synth_write_failure_in_a_child_exits_3_naming_the_file(tmp_path, capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    out = tmp_path / "data"
    (out / "depth_0002.txt").mkdir(parents=True)  # sample 2 is the child's, and a directory
    rc = main(["synth", "--out", str(out), "--set", "count=3", *FAST])  # cannot be replaced
    assert rc == 3
    assert "depth_0002.txt" in capsys.readouterr().err
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
    assert not (out / "manifest.txt").exists()
    assert_no_children()


def test_synth_exits_3_when_a_scene_worker_dies(tmp_path, capsys, monkeypatch):
    parent, write = os.getpid(), cli._write_sample
    monkeypatch.setattr(cli, "_write_sample",
                        lambda *a: write(*a) if os.getpid() == parent else os._exit(0))
    use_cpus(monkeypatch, 2)
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--set", "count=3", *FAST]) == 3
    assert "exited without returning its results" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()
    assert_no_children()


def test_one_and_two_workers_write_the_same_bytes(tmp_path, capsys, monkeypatch):
    """synth files, prepared scenes and their standardization, checkpoints and eval tables."""
    runs = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus_{cpus}"
        data = make_dataset(root, count=3)
        checkpoint = train_run(root, data, "run", epochs=2) / "checkpoint.txt"
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(data),
                     "--out", str(root / "eval.csv")]) == 0
        graph_cfg = read_checkpoint(checkpoint).config.graph_config()
        scenes, mean, std = training.prepare_dataset(cli._load_samples(data, 16), graph_cfg)
        arrays = [mean, std, *(a for s in scenes for a in (s.inputs, s.instance.similarities,
                                                           s.instance.edges, s.instance.y))]
        files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        printed = capsys.readouterr().out.replace(str(root), "ROOT")
        runs.append((files, [a.tobytes() for a in arrays], printed))
        assert_no_children()
    # two files per sample, the manifest, checkpoint, history and eval table
    assert len(runs[0][0]) == 3 * 2 + 4 and runs[0] == runs[1]


def test_synth_bad_config_key_exits_2_without_writing(tmp_path, capsys):
    out = tmp_path / "data"
    # c1_cap is retired: eval takes --c1-cap; "epochs" alone has no value
    for item, key in (("bogus_key=3", "bogus_key"), ("c1_cap=3", "c1_cap"),
                      ("epochs", "'epochs'")):
        rc = main(["synth", "--out", str(out), "--set", item])
        assert rc == 2
        assert not out.exists()
        assert key in capsys.readouterr().err


def test_synth_bad_config_value_exits_2(tmp_path, capsys):
    # int() would read 1_2 as 12 and the Arabic-Indic digits as 150; more
    # planes than pixels could never be placed
    for bad in ("epochs=ten", "epochs=1_2", "target_superpixels=\u0661\u0665\u0660",
                "seed=-1", "train_seed=-2", "height=8 width=8 count=1 num_planes=65",
                "lambda1=-1", "lambda2=-0.5", "lr0=-1", "lr_decay=0", "lr_decay=1.5",
                "lr_decay_every=0", "epochs=-1", "noise_sigma=-0.1", "hidden_dims=0", "count=0",
                "dropout_keep=0", "dropout_keep=1.5", "beta_init=-1", "gamma_color=0",
                "gamma_hist=-1", "gamma_lbp=0", "height=7", "width=7", "depth_min=0",
                "depth_min=5 depth_max=2"):
        sets = [arg for item in bad.split() for arg in ("--set", item)]
        rc = main(["synth", "--out", str(tmp_path / "d"), *sets])
        assert rc == 2 and not (tmp_path / "d").exists()
        assert bad.split()[-1].split("=")[0] in capsys.readouterr().err


def test_main_calls_share_no_parsed_state(monkeypatch):
    # one parser serves every call in a process, and each call parses afresh
    seen = []

    def record(args):
        seen.append(args.set)
        raise ConfigError("recorded")

    monkeypatch.setattr(cli, "_collect_overrides", record)
    assert main(["synth", "--set", "count=1", "--set", "seed=2"]) == 2
    assert main(["synth", "--set", "height=9"]) == 2
    assert seen == [["count=1", "seed=2"], ["height=9"]]
    assert cli.build_parser() is cli.build_parser()


def test_line_break_in_a_text_key_exits_2_without_writing(tmp_path, capsys, trained):
    # each would end the key's checkpoint line early, so predict could not read it back
    data, _ = trained
    for brk in ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"):
        out = tmp_path / "run"
        rc = main(["train", "--dataset", str(data), "--out", str(out), *FAST,
                   "--set", "epochs=1", "--set", f"out_dir=a{brk}b"])
        assert rc == 2 and not out.exists(), repr(brk)
        assert "out_dir" in capsys.readouterr().err


def test_config_file_and_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a dataset\ncount = 3  # comment\n\nheight = 48\nwidth = 48\nseed = 9\n")
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--config", str(cfg), "--set", "count=2"])
    assert rc == 0
    assert len(read_manifest(out / "manifest.txt")) == 2
    cfg.write_bytes(b"count = 3\xff\n")  # not text: a configuration error, not a traceback
    assert main(["synth", "--out", str(tmp_path / "again"), "--config", str(cfg)]) == 2
    cfg.write_text("count = 3\n\nheight 48\n")
    assert main(["synth", "--out", str(tmp_path / "again"), "--config", str(cfg)]) == 2
    assert f"{cfg}:3:" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_config_file_that_repeats_a_key_exits_2_without_writing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 3\nheight = 48\n\n# again\n count=2\n")
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 2
    assert not out.exists()
    assert f"{cfg}:5: key 'count' repeats line 1" in capsys.readouterr().err
    # repeated --set overrides are not a file: the last one wins
    cfg.write_text("height = 48\nwidth = 48\n")
    rc = main(["synth", "--out", str(out), "--config", str(cfg),
               "--set", "count=3", "--set", "count=2"])
    assert rc == 0 and len(read_manifest(out / "manifest.txt")) == 2


def test_train_writes_checkpoint_and_history(trained):
    _, checkpoint = trained
    history = read_history(checkpoint.parent / "history.csv")
    assert [h.epoch for h in history] == [0]
    ckpt = read_checkpoint(checkpoint)
    assert ckpt.config.epochs == 1
    assert np.all(np.isfinite(ckpt.beta))


def test_train_unary_only_records_zero_beta(tmp_path):
    data = make_dataset(tmp_path)
    run = train_run(tmp_path, data, "run", epochs=1, extra=["--unary-only"])
    assert np.array_equal(read_checkpoint(run / "checkpoint.txt").beta, np.zeros(3))


@pytest.mark.parametrize(
    "mode", [["--unary-only", "--set", "epochs=12"], []], ids=["unary-only", "joint"]
)
def test_diverged_training_exits_4_naming_epoch_and_beta(tmp_path, capsys, mode):
    # the default synth count and seed; lr0=1e3 overflows both runs early
    data = make_dataset(tmp_path, count=10, seed=0)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit-4 line is all a diverging run prints
        rc = main(["train", "--dataset", str(data), "--out", str(out),
                   "--set", "lr0=1e3", *FAST, *mode])
    assert rc == 4
    err = capsys.readouterr().err
    assert re.search(r"training diverged in epoch \d+ \(beta = \[", err), err
    assert not (out / "checkpoint.txt").exists()


def test_train_missing_dataset_exits_3(tmp_path):
    rc = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "r")])
    assert rc == 3
    assert not (tmp_path / "r").exists()


def test_resume_zero_epochs_reproduces_checkpoint_bytes(tmp_path, trained):
    data, checkpoint = trained
    # on another dataset too, where recomputed stats would change input_mean/input_std
    for dataset in (data, make_dataset(tmp_path, seed=11)):
        resumed = tmp_path / f"resumed_{dataset.name}"
        rc = main(["train", "--dataset", str(dataset), "--out", str(resumed),
                   "--resume", str(checkpoint)])
        assert rc == 0
        assert (resumed / "checkpoint.txt").read_bytes() == checkpoint.read_bytes()


@pytest.mark.parametrize("change", ["hidden_dims=4", "patch_dim=3"])
def test_resume_cannot_change_the_regressor_widths(tmp_path, capsys, trained, change):
    data, checkpoint = trained
    out = tmp_path / "resumed"
    rc = main(["train", "--dataset", str(data), "--out", str(out), "--resume", str(checkpoint),
               "--set", change, "--set", "epochs=1"])
    assert rc == 2
    assert "widths" in capsys.readouterr().err
    assert not out.exists()


def test_resume_continues_epoch_numbering(tmp_path, trained):
    data, checkpoint = trained
    resumed = tmp_path / "resumed"
    rc = main(["train", "--dataset", str(data), "--out", str(resumed),
               "--resume", str(checkpoint), "--set", "epochs=2"])
    assert rc == 0
    history = read_history(resumed / "history.csv")
    assert [h.epoch for h in history] == [1, 2]
    assert read_checkpoint(resumed / "checkpoint.txt").config.epochs == 3


def test_resume_in_place_keeps_the_earlier_history(tmp_path, capsys):
    data = make_dataset(tmp_path)
    run = train_run(tmp_path, data, "run", epochs=3)
    history = (run / "history.csv").read_bytes()
    shutil.copy(run / "checkpoint.txt", run / "epoch_3.txt")

    def resume(checkpoint, *extra):
        return main(["train", "--dataset", str(data), "--out", str(run),
                     "--resume", str(run / checkpoint), *extra])

    assert resume("checkpoint.txt") == 0
    assert (run / "history.csv").read_bytes() == history
    assert resume("checkpoint.txt", "--set", "epochs=2") == 0
    assert [h.epoch for h in read_history(run / "history.csv")] == [0, 1, 2, 3, 4]
    assert (run / "history.csv").read_bytes().startswith(history)
    # rows past the resumed checkpoint's epochs belong to a run it did not make
    assert resume("epoch_3.txt", "--set", "epochs=1") == 0
    rows = (run / "history.csv").read_bytes().splitlines(keepends=True)
    assert len(rows) == 5 and b"".join(rows[:4]) == history
    # a malformed history stops the run before anything is written
    (run / "history.csv").write_text("epoch,lr,mean_nll\n0,x,1\n")
    checkpoint = (run / "checkpoint.txt").read_bytes()
    capsys.readouterr()
    assert resume("checkpoint.txt", "--set", "epochs=1") == 3
    assert "malformed history row" in capsys.readouterr().err
    assert (run / "checkpoint.txt").read_bytes() == checkpoint
    assert (run / "history.csv").read_text() == "epoch,lr,mean_nll\n0,x,1\n"


def test_periodic_checkpoints_every_ten_epochs(tmp_path):
    data = make_dataset(tmp_path)
    run = train_run(tmp_path, data, "run", epochs=23)
    names = sorted(p.name for p in run.iterdir())
    assert "checkpoint_epoch_0010.txt" in names
    assert "checkpoint_epoch_0020.txt" in names
    assert "checkpoint_epoch_0023.txt" not in names  # the end write is checkpoint.txt
    assert read_checkpoint(run / "checkpoint_epoch_0010.txt").config.epochs == 10
    assert len(read_history(run / "history.csv")) == 23


def test_predict_writes_positive_finite_depths(tmp_path, trained):
    data, checkpoint = trained
    out = tmp_path / "pred.txt"
    rc = main(["predict", "--checkpoint", str(checkpoint),
               "--image", str(data / "img_0000.ppm"), "--out", str(out)])
    assert rc == 0
    depth = read_depth_raster(out)
    assert depth.shape == (48, 48)
    assert np.all(np.isfinite(depth))
    assert np.all(depth > 0.0)


def test_predict_is_deterministic(tmp_path, trained):
    data, checkpoint = trained
    for name in ("a.txt", "b.txt"):
        rc = main(["predict", "--checkpoint", str(checkpoint),
                   "--image", str(data / "img_0001.ppm"), "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_predict_exits_3_leaving_the_old_raster_when_the_write_fails(
        tmp_path, trained, monkeypatch, capsys):
    data, checkpoint = trained
    out = tmp_path / "pred.txt"
    out.write_text("old raster\n")

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    rc = main(["predict", "--checkpoint", str(checkpoint),
               "--image", str(data / "img_0000.ppm"), "--out", str(out)])
    assert rc == 3 and "cannot replace" in capsys.readouterr().err
    assert out.read_text() == "old raster\n" and os.listdir(tmp_path) == ["pred.txt"]


def test_predict_onto_a_directory_exits_3_naming_it(tmp_path, trained, capsys):
    data, checkpoint = trained
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["predict", "--checkpoint", str(checkpoint),
               "--image", str(data / "img_0000.ppm"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and f"i/o error: [Errno {errno.EISDIR}] Is a directory: '{out}'" in err
    assert ".tmp" not in err and os.listdir(tmp_path) == ["run"] and os.listdir(out) == []


def test_predict_rejects_non_checkpoint_file(tmp_path):
    data = make_dataset(tmp_path)
    rc = main(["predict", "--checkpoint", str(data / "manifest.txt"),
               "--image", str(data / "img_0000.ppm"), "--out", str(tmp_path / "p.txt")])
    assert rc == 3


def test_predict_rejects_checkpoint_gammas_differing_from_config(tmp_path, trained, capsys):
    data, checkpoint = trained
    ckpt = read_checkpoint(checkpoint)
    ckpt.gammas = ckpt.gammas * 2.0
    bad = tmp_path / "bad_gammas.txt"
    write_checkpoint(bad, ckpt)
    rc = main(["predict", "--checkpoint", str(bad),
               "--image", str(data / "img_0000.ppm"), "--out", str(tmp_path / "p.txt")])
    assert rc == 3
    assert "gammas" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def _with_seg_mode(checkpoint, mode, path):
    """``checkpoint`` as older versions wrote it: with a ``CONFIG seg_mode``
    line after ``compactness``."""
    text, count = re.subn(r"(CONFIG compactness .*\n)", rf"\1CONFIG seg_mode {mode}\n",
                          checkpoint.read_text())
    assert count == 1 and "seg_mode" not in checkpoint.read_text()
    path.write_text(text)
    return path


def test_checkpoint_recording_seg_mode_slic_predicts_the_same_raster(tmp_path, trained):
    data, checkpoint = trained
    older = _with_seg_mode(checkpoint, "slic", tmp_path / "older.txt")
    rasters = []
    for ckpt in (checkpoint, older):
        out = tmp_path / f"depth_from_{ckpt.name}"
        rc = main(["predict", "--checkpoint", str(ckpt),
                   "--image", str(data / "img_0000.ppm"), "--out", str(out)])
        assert rc == 0
        rasters.append(out.read_bytes())
    assert rasters[0] == rasters[1]


def test_checkpoint_recording_seg_mode_grid_exits_3(tmp_path, capsys, trained):
    data, checkpoint = trained
    older = _with_seg_mode(checkpoint, "grid", tmp_path / "grid.txt")
    rc = main(["predict", "--checkpoint", str(older),
               "--image", str(data / "img_0000.ppm"), "--out", str(tmp_path / "p.txt")])
    assert rc == 3
    assert "seg_mode 'grid'" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


# (pattern, replacement) edits of a FAST checkpoint: hidden width 8, input width 48
INCONSISTENT_CHECKPOINTS = {
    "activations": (r"ACTIVATIONS .*", "ACTIVATIONS relu relu linear"),
    "short-bias0": (r"TENSOR bias0 8\n(.*) \S+\n", r"TENSOR bias0 7\n\1\n"),
    "short-input-mean": (r"TENSOR input_mean 48\n(.*) \S+\n", r"TENSOR input_mean 47\n\1\n"),
    "nan-input-mean": (r"TENSOR input_mean 48\n\S+", "TENSOR input_mean 48\nnan"),
    "zero-input-std": (r"TENSOR input_std 48\n\S+", "TENSOR input_std 48\n0.0"),
    "short-beta": (r"TENSOR beta 3\n(.*) \S+\n", r"TENSOR beta 2\n\1\n"),
    "negative-beta": (r"TENSOR beta 3\n\S+", "TENSOR beta 3\n-0.5"),
    "widths-differ-from-config": (r"CONFIG hidden_dims 8", "CONFIG hidden_dims 9"),
    "bad-config-value": (r"CONFIG momentum .*", "CONFIG momentum lots"),
    "zero-box-size": (r"CONFIG box_size .*", "CONFIG box_size 0"),
    "nan-compactness": (r"CONFIG compactness .*", "CONFIG compactness nan"),
    "overflowing-compactness": (r"CONFIG compactness .*", "CONFIG compactness 1e200"),
    "non-numeric-weight": (r"(TENSOR weight0 .*\n)\S+", r"\1lots"),
    "nan-weight": (r"(TENSOR weight0 .*\n)\S+", r"\1nan"),
    "inf-bias": (r"(TENSOR bias0 .*\n)\S+", r"\1inf"),
    "underscore-config-int": (r"CONFIG epochs .*", "CONFIG epochs 1_2"),
    "arabic-indic-tensor-dim": (r"TENSOR beta 3", "TENSOR beta \u0663"),
    "repeated-config-key": (r"(CONFIG seed .*\n)", r"\1\1"),
    "repeated-activations": (r"(ACTIVATIONS .*\n)", r"\1\1"),
    "repeated-tensor": (r"(TENSOR beta 3\n.*\n)", r"\1\1"),
    "unknown-tensor": (r"(TENSOR )beta( 3\n.*\n)", r"\1beta\2\1foo\2"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_CHECKPOINTS))
def test_predict_rejects_inconsistent_checkpoint(tmp_path, capsys, trained, case):
    data, checkpoint = trained
    pattern, replacement = INCONSISTENT_CHECKPOINTS[case]
    text, count = re.subn(pattern, replacement, checkpoint.read_text())
    assert count == 1
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    rc = main(["predict", "--checkpoint", str(bad),
               "--image", str(data / "img_0000.ppm"), "--out", str(tmp_path / "p.txt")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def _assert_numerical_failure(capsys, data, ckpt, command, path):
    """``command`` with ``ckpt`` saved at ``path`` exits 4 printing one line, writing nothing."""
    write_checkpoint(path, ckpt)
    source = {"predict": ["--image", str(data / "img_0000.ppm")], "eval": ["--dataset", str(data)]}
    out = path.with_suffix(".out")
    rc = main([command, "--checkpoint", str(path), *source[command], "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4 and not out.exists()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_huge_finite_beta_exits_4_writing_nothing(tmp_path, capsys, trained, command):
    # beta passes the reader's finite check; at 1e308 the couplings it makes
    # overflow (the suite turns a RuntimeWarning on the way into an error),
    # below it they stay finite but swamp the unit diagonal of the precision,
    # whose factor then fails or not by rounding alone (at 1e100 it does not)
    data, checkpoint = trained
    ckpt = read_checkpoint(checkpoint)
    for beta in (1e308, 1e200, 1e100):
        ckpt.beta = np.full(3, beta)
        _assert_numerical_failure(capsys, data, ckpt, command, tmp_path / f"huge_beta_{beta:g}.txt")


# finite regressor weights whose output, or the depth painted from it, leaves
# the finite positive numbers: the output layer sums eight logistic units
OVERFLOWING_REGRESSORS = {"output-overflows": ("weights", 1e308),
                          "depth-overflows": ("biases", 1e3), "depth-underflows": ("biases", -1e3)}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_REGRESSORS))
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_overflowing_regressor_exits_4_writing_nothing(tmp_path, capsys, trained, command, case):
    data, checkpoint = trained
    ckpt = read_checkpoint(checkpoint)
    field, value = OVERFLOWING_REGRESSORS[case]
    getattr(ckpt.model, field)[-1][:] = value
    _assert_numerical_failure(capsys, data, ckpt, command, tmp_path / "overflowing.txt")


def test_corrupted_checkpoints_exit_0_3_or_4(tmp_path, trained):
    # any exception, or a warning (the suite makes it an error), fails the test
    data, checkpoint = trained
    blob, bad = checkpoint.read_bytes(), tmp_path / "bad.txt"
    rng = np.random.default_rng(6)
    for i, edited in enumerate([blob[:30] + b"\xff" + blob[31:], *corruptions(blob, rng, 120)]):
        bad.write_bytes(edited)
        out = tmp_path / f"p{i}.txt"
        rc = main(["predict", "--checkpoint", str(bad), "--image", str(data / "img_0000.ppm"),
                   "--out", str(out)])
        assert rc in (0, 3, 4) and out.exists() == (rc == 0)


@pytest.mark.parametrize("file", ["image", "raster", "tensor"])
def test_huge_header_dimensions_exit_3_without_allocating(tmp_path, capsys, trained, file):
    data, checkpoint = trained
    huge, ckpt, dataset = 1_000_000_000, tmp_path / "ckpt.txt", tmp_path / "data"
    ckpt.write_text(checkpoint.read_text())
    dataset.mkdir()
    (dataset / "img.ppm").write_bytes((data / "img_0000.ppm").read_bytes())
    (dataset / "depth.txt").write_text((data / "depth_0000.txt").read_text())
    write_manifest(dataset / "manifest.txt", [("img.ppm", "depth.txt", 0)])
    if file == "image":
        (dataset / "img.ppm").write_bytes(b"P6 %d %d 255\n\x00\x00\x00" % (huge, huge))
    elif file == "raster":
        (dataset / "depth.txt").write_text(f"DEPTH {huge} {huge}\n1.0\n")
    else:
        ckpt.write_text(re.sub(r"TENSOR beta 3\n", f"TENSOR beta {huge} {huge}\n", ckpt.read_text()))
    tracemalloc.start()
    try:
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and peak < 1_000_000
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [("nan", "finite and positive"), ("-2.0", "finite and positive"),
     ("1.5 1.5", "shape mismatch"), (None, "47x48 depth raster for the 48x48 image"),
     ("surplus", "shape mismatch")],
    ids=["nan", "-2.0", "ragged", "one-row-short", "surplus-row"],
)
def test_train_and_eval_reject_bad_ground_truth_depth(tmp_path, capsys, trained, bad, message):
    _, checkpoint = trained
    data = make_dataset(tmp_path)
    raster = data / "depth_0001.txt"
    lines = raster.read_text().splitlines()
    if bad is None:  # drop the first row: a raster that no longer fits its image
        del lines[1]
        lines[0] = "DEPTH 47 48"
    elif bad == "surplus":  # all 48 rows under a header that promises 47
        lines[0] = "DEPTH 47 48"
    else:
        lines[5] = " ".join([bad] + lines[5].split()[1:])
    raster.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "again"),
               "--set", "epochs=1", *FAST])
    assert rc == 3 and not (tmp_path / "again").exists()
    rc = main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(data)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count(message) == 2


def test_train_and_eval_reject_an_empty_manifest(tmp_path, capsys, trained):
    _, checkpoint = trained
    write_manifest(tmp_path / "manifest.txt", [])
    rc = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "r"), *FAST])
    assert rc == 3 and not (tmp_path / "r").exists()
    assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("lists no samples") == 2


def test_superpixel_count_above_the_pixel_count_exits_2(tmp_path, capsys, trained):
    data, checkpoint = trained  # 48x48 images, 16 superpixels
    rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "r"),
               *FAST, "--set", "target_superpixels=100000"])
    assert rc == 2 and not (tmp_path / "r").exists()
    write_ppm(tmp_path / "tiny.ppm", np.zeros((3, 3, 3)))
    rc = main(["predict", "--checkpoint", str(checkpoint), "--image", str(tmp_path / "tiny.ppm"),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 2 and not (tmp_path / "p.txt").exists()
    rc = main(["sweep-superpixels", "--train-dataset", str(data), "--test-dataset", str(data),
               "--counts", "9,100000", "--out", str(tmp_path / "s.csv"), *FAST])
    assert rc == 2 and not (tmp_path / "s.csv").exists()
    err = capsys.readouterr().err
    assert err.count("target_superpixels=100000 exceeds the 2304 pixels of a 48x48 image") == 2
    assert "target_superpixels=16 exceeds the 9 pixels of a 3x3 image" in err


def test_a_sweep_whose_test_images_alone_are_too_small_exits_2(tmp_path, capsys, trained):
    data, _ = trained  # 48x48 images
    small = make_dataset(tmp_path, extra=("--set", "height=8", "--set", "width=8"))
    rc = main(["sweep-superpixels", "--train-dataset", str(data), "--test-dataset", str(small),
               "--counts", "9,100", "--out", str(tmp_path / "s.csv"), *FAST])
    assert rc == 2 and not (tmp_path / "s.csv").exists()
    assert "target_superpixels=100 exceeds the 64 pixels of a 8x8 image" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["box_size=0", "patch_dim=0", "target_superpixels=0",
                                 "gamma_color=0", "seg_mode=watershed", "seg_mode=slic"])
def test_bad_graph_keys_exit_2_before_writing(tmp_path, capsys, trained, bad):
    data, _ = trained
    bad_set = [*FAST, "--set", bad]
    assert main(["synth", "--out", str(tmp_path / "d"), *bad_set]) == 2
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "r"), *bad_set]) == 2
    rc = main(["sweep-superpixels", "--train-dataset", str(data), "--test-dataset", str(data),
               "--counts", "9", "--out", str(tmp_path / "s.csv"), *bad_set])
    assert rc == 2 and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.count("configuration error") == 3


@pytest.mark.parametrize("bad", ["compactness=nan", "compactness=-0.1", "compactness=1e200",
                                 "noise_sigma=nan",
                                 "beta_init=nan", "beta_init=inf", "lr0=nan", "lambda1=inf"])
def test_non_finite_or_negative_float_keys_exit_2_before_writing(tmp_path, capsys, trained, bad):
    data, _ = trained
    bad_set = [*FAST, "--set", bad]
    assert main(["synth", "--out", str(tmp_path / "d"), *bad_set]) == 2
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "r"), *bad_set]) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.count("configuration error") == 2


def test_predict_rejects_an_image_without_pixels(tmp_path, capsys, trained):
    _, checkpoint = trained
    (tmp_path / "empty.ppm").write_bytes(b"P6\n0 5\n255\n")
    rc = main(["predict", "--checkpoint", str(checkpoint), "--image", str(tmp_path / "empty.ppm"),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 3 and not (tmp_path / "p.txt").exists()
    assert "has no pixels" in capsys.readouterr().err


def test_strong_coupling_smooths_the_prediction(tmp_path):
    data = make_dataset(tmp_path)
    run = train_run(tmp_path, data, "run", epochs=2, extra=["--unary-only"])
    ckpt = read_checkpoint(run / "checkpoint.txt")
    smooth_path = tmp_path / "smooth_ckpt.txt"
    ckpt.beta = np.full(3, 50.0)
    write_checkpoint(smooth_path, ckpt)
    image = read_ppm(data / "img_0000.ppm")
    raw, smooth = (
        metrics.predict_image(SceneSample(image=image), read_checkpoint(path))
        for path in (run / "checkpoint.txt", smooth_path)
    )
    assert np.var(np.log(smooth)) < np.var(np.log(raw))


def test_eval_writes_csv_and_table(tmp_path, trained, capsys):
    data, checkpoint = trained
    out = tmp_path / "metrics.csv"
    rc = main(["eval", "--checkpoint", str(checkpoint),
               "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mask,rel,rms,log10,delta1,delta2,delta3,pixels"
    row = lines[1].split(",")
    assert row[0] == "all"
    assert int(row[7]) == 2 * 48 * 48
    printed = capsys.readouterr().out
    assert "rel" in printed and "all" in printed


def test_eval_c1_cap_adds_both_rows(tmp_path, trained):
    data, checkpoint = trained
    out = tmp_path / "metrics.csv"
    gt = read_depth_raster(data / "depth_0000.txt")
    cap = float(np.median(gt))
    rc = main(["eval", "--checkpoint", str(checkpoint),
               "--dataset", str(data), "--out", str(out), "--c1-cap", str(cap)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_mask = {row[0]: row for row in rows}
    assert set(by_mask) == {"C1", "C2"}
    assert int(by_mask["C1"][7]) < int(by_mask["C2"][7])


def test_eval_empty_c1_mask_exits_2(tmp_path, trained, capsys):
    data, checkpoint = trained
    rc = main(["eval", "--checkpoint", str(checkpoint),
               "--dataset", str(data), "--c1-cap", "0.5"])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


def test_gradcheck_passes_and_prints_per_group_lines(capsys):
    rc = main(["gradcheck", "--seed", "5", "--nodes", "9", "--channels", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out
    for group in ("dNLL/dz", "dNLL/dtheta", "dNLL/dbeta"):
        assert group in out


def test_verify_passes(capsys):
    rc = main(["verify", "--seed", "2", "--trials", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 8
    assert "verify passed" in out


@pytest.mark.parametrize(
    "argv, code, stdout_line",
    [(["verify", "--trials", "1"], 0, "verify passed over 1 trials"), (["unknown"], 2, None)],
    ids=["verify", "unknown-command"],
)
def test_python_m_runs_the_command(argv, code, stdout_line):
    # the module run as a script, in a fresh interpreter that imports this package
    env = dict(os.environ, PYTHONPATH=str(Path(depthcrf.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "depthcrf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    if stdout_line is not None:
        assert stdout_line in done.stdout.splitlines()


def test_importing_the_cli_loads_neither_scipy_ndimage_nor_special():
    # graph labels components in numpy; crf's LAPACK wrappers are the only scipy left
    env = dict(os.environ, PYTHONPATH=str(Path(depthcrf.__file__).resolve().parents[1]))
    probe = "import sys, depthcrf.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert "depthcrf.cli" in loaded
    assert sorted(loaded & {"scipy.ndimage", "scipy.special"}) == []


def test_non_ascii_text_key_round_trips_under_an_ascii_locale(tmp_path, trained):
    # files are UTF-8 whatever the locale; under this one Python hands the
    # command line's UTF-8 bytes over undecoded, as surrogates
    data, _ = trained
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=str(Path(depthcrf.__file__).resolve().parents[1]))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "depthcrf.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr

    (tmp_path / "run.cfg").write_text("out_dir = résumé\nepochs = 1\n", encoding="utf-8")
    run("train", "--dataset", str(data), "--config", "run.cfg", *FAST)
    run("train", "--dataset", str(data), "--out", "set", "--set", "out_dir=résumé",
        "--set", "epochs=1", *FAST)
    checkpoint = tmp_path / "résumé" / "checkpoint.txt"
    assert checkpoint.read_bytes() == (tmp_path / "set" / "checkpoint.txt").read_bytes()
    assert b"CONFIG out_dir r\xc3\xa9sum\xc3\xa9\n" in checkpoint.read_bytes()
    assert read_checkpoint(checkpoint).config.out_dir == "résumé"
    # eval reads the checkpoint back, and a manifest that names a non-ASCII file
    shutil.copytree(data, tmp_path / "données")
    (tmp_path / "données" / "img_0000.ppm").rename(tmp_path / "données" / "imagé_0000.ppm")
    rows = read_manifest(tmp_path / "données" / "manifest.txt")
    write_manifest(tmp_path / "données" / "manifest.txt", [("imagé_0000.ppm", *rows[0][1:]),
                                                           *rows[1:]])
    run("eval", "--checkpoint", str(checkpoint), "--dataset", "données", "--out", "eval.csv")
    assert (tmp_path / "eval.csv").read_text().splitlines()[1].startswith("all,")


def test_verify_fails_on_a_wrong_log_partition(monkeypatch, capsys):
    exact = crf.log_partition
    monkeypatch.setattr(crf, "log_partition", lambda inst, z, w: exact(inst, z, w) + 1e-3)
    assert main(["verify", "--seed", "2", "--trials", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL log-partition vs quadrature" in out
    assert out.count("PASS") == 7
    assert "verify FAILED" in out


def test_verify_fails_on_a_nan_map(monkeypatch, capsys):
    monkeypatch.setattr(crf, "map_infer", lambda inst, z, w: np.full(inst.n, np.nan))
    assert main(["verify", "--seed", "2", "--trials", "4"]) == 1
    out = capsys.readouterr().out
    for name in ("MAP vs 400x400 grid search", "MAP energy minus lowest perturbed energy",
                 "beta = 0 MAP vs z", "posterior mean/covariance vs Monte Carlo",
                 "MAP vs dense solve"):
        assert f"FAIL {name}: nan" in out
    assert out.count("PASS") == 3 and "verify FAILED" in out


def test_verify_fails_on_a_map_off_by_1e_3_at_one_node(monkeypatch, capsys):
    exact = crf.map_infer

    def shifted(inst, z, w):
        star = exact(inst, z, w)
        star[0] += 1e-3
        return star

    monkeypatch.setattr(crf, "map_infer", shifted)
    assert main(["verify", "--seed", "2", "--trials", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL beta = 0 MAP vs z" in out and "verify FAILED" in out


def test_verify_fails_on_a_map_off_by_1e_3_only_where_beta_is_positive(monkeypatch, capsys):
    # below the grid's one-cell tolerance and the smallest perturbation, and
    # absent at beta = 0: only the comparison with the dense solve sees it
    exact = crf.map_infer

    def shifted(inst, z, beta):
        star = exact(inst, z, beta)
        if np.any(np.asarray(beta) > 0):
            star[0] += 1e-3
        return star

    monkeypatch.setattr(crf, "map_infer", shifted)
    assert main(["verify", "--seed", "2", "--trials", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL MAP vs dense solve" in out and out.count("PASS") == 7
    assert "verify FAILED" in out


@pytest.mark.parametrize("argv", [["verify", "--trials", "0"], ["gradcheck", "--nodes", "0"],
                                  ["gradcheck", "--channels", "-1"], ["gradcheck", "--seed", "-1"],
                                  ["verify", "--seed", "-1"], ["verify", "--seed", "1_0"],
                                  ["gradcheck", "--nodes", "\u0661\u0662"]])
def test_check_commands_reject_empty_counts_with_exit_2(argv, capsys):
    # negative seeds and digits that int() alone would take are rejected as well
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert argv[1] in err and ("must be" in err or "invalid" in err)


def test_gradcheck_fails_when_the_nll_and_its_beta_gradient_disagree(monkeypatch, capsys):
    exact = crf.nll  # shifted by a beta-linear term that nll_with_grads does not see
    monkeypatch.setattr(crf, "nll",
                        lambda inst, z, beta: exact(inst, z, beta) + 0.1 * float(beta.sum()))
    assert main(["gradcheck", "--seed", "5", "--nodes", "9"]) == 1
    out = capsys.readouterr().out
    assert "FAIL coupling coefficients (dNLL/dbeta)" in out
    assert out.count("PASS") == 2
    assert "gradcheck FAILED" in out


def test_sweep_single_count_writes_one_row(tmp_path, trained):
    data, _ = trained
    test_data, out = make_dataset(tmp_path, seed=12), tmp_path / "sweep.csv"
    rc = main(["sweep-superpixels", "--train-dataset", str(data), "--test-dataset",
               str(test_data), "--counts", "9", "--out", str(out), "--set", "epochs=2", *FAST])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "count,rms,train_seconds"
    assert len(lines) == 2
    count, rms, seconds = lines[1].split(",")
    assert count == "9"
    assert float(rms) > 0.0
    assert float(seconds) > 0.0
    # the same rms as training at that count, then evaluating on the same test set
    run = train_run(tmp_path, data, "run", epochs=2, extra=["--set", "target_superpixels=9"])
    evaluated = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.txt"), "--dataset",
                 str(test_data), "--out", str(evaluated)]) == 0
    assert rms == evaluated.read_text().splitlines()[1].split(",")[2]


def test_sweep_rejects_counts_that_are_not_decimal_integers(tmp_path, capsys):
    for counts, message in (("5_0", "--counts expects integers"),
                            (",", "at least one superpixel count"),
                            ("0,16", "must be positive")):
        rc = main(["sweep-superpixels", "--train-dataset", str(tmp_path), "--test-dataset",
                   str(tmp_path), "--counts", counts, "--out", str(tmp_path / "s.csv")])
        assert rc == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_duplicate_counts(tmp_path):
    data = make_dataset(tmp_path)
    rc = main(["sweep-superpixels", "--train-dataset", str(data),
               "--test-dataset", str(data), "--counts", "9,9",
               "--out", str(tmp_path / "s.csv"), "--set", "epochs=1", *FAST])
    assert rc == 2
    assert not (tmp_path / "s.csv").exists()


def test_help_and_bad_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["train"]) == 2  # missing required --dataset
    assert main(["no-such-command"]) == 2
