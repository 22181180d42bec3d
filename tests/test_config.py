"""Each run key that a stage reads is stated once, in that stage's record."""

import dataclasses
import pickle

import pytest

from depthcrf.config import ConfigError, RunConfig
from depthcrf.graph import GraphConfig
from depthcrf.synth import SceneSpec
from depthcrf.training import TrainConfig

RECORDS = {"scene_spec": SceneSpec, "graph_config": GraphConfig, "train_config": TrainConfig}

# the order of a checkpoint's CONFIG lines
KEY_ORDER = [
    "height", "width", "num_planes", "depth_min", "depth_max", "texture", "noise_sigma",
    "count", "seed",
    "target_superpixels", "compactness", "box_size", "patch_dim",
    "gamma_color", "gamma_hist", "gamma_lbp", "use_centroid_depth",
    "hidden_dims",
    "momentum", "lambda1", "lambda2", "lr0", "lr_decay", "lr_decay_every", "epochs",
    "dropout_keep", "train_seed", "beta_init",
    "out_dir",
]


@pytest.mark.parametrize("builder", sorted(RECORDS))
def test_record_fields_are_run_keys_of_the_same_type_and_default(builder):
    keys = {f.name: f for f in dataclasses.fields(RunConfig)}
    for field in dataclasses.fields(RECORDS[builder]):
        assert field.name in keys
        assert (keys[field.name].type, keys[field.name].default) == (field.type, field.default)


@pytest.mark.parametrize("builder", sorted(RECORDS))
def test_default_run_config_builds_the_default_record(builder):
    assert getattr(RunConfig(), builder)() == RECORDS[builder]()


def test_run_keys_keep_their_order():
    assert list(RunConfig().to_mapping()) == KEY_ORDER


def test_run_config_checks_itself_when_built():
    # dataclasses.replace builds a new record, so it is checked too
    for build in (lambda: RunConfig(hidden_dims=(0,)), lambda: RunConfig(count=0),
                  lambda: dataclasses.replace(RunConfig(), target_superpixels=0)):
        with pytest.raises(ConfigError):
            build()


def test_run_config_is_an_ordinary_importable_class():
    # make_dataclass names the module "types" unless told, and pickle finds a class by it
    assert RunConfig.__module__ == "depthcrf.config"
    config = RunConfig(texture="flat", count=3, seed=7, use_centroid_depth=True,
                       hidden_dims=(4,), epochs=2, out_dir="runs")
    assert pickle.loads(pickle.dumps(config)) == config
