"""The SGD loop: objective accounting, updates, schedules, baselines."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthcrf import crf, oracle, synth, training, unary
from depthcrf.crf import CrfInstance, FactorizationError
from depthcrf.graph import GraphConfig
from depthcrf.synth import SceneSpec
from depthcrf.training import DivergenceError, TrainConfig

import training_reference
from testutil import assert_no_children, assert_read_only, rel_err, use_cpus

GRAPH_CFG = GraphConfig(target_superpixels=9, box_size=6, patch_dim=3)
DIMS = (27, 8, 4, 1)


def tiny_scenes(count=3, seed=0):
    samples = synth.generate_dataset(
        SceneSpec(height=24, width=24, num_planes=3), count=count, seed=seed
    )
    scenes, _, _ = training.prepare_dataset(samples, GRAPH_CFG)
    return scenes


def quiet_config(**overrides):
    base = dict(momentum=0.0, lambda1=0.0, lambda2=0.0, lr0=1e-3,
                epochs=1, dropout_keep=1.0, train_seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def fresh_train(scenes, config, **kwargs):
    """``training.train`` from a new ``init_state`` of the DIMS regressor."""
    return training.train(scenes, config, training.init_state(DIMS, config), **kwargs)


def objective(state, scenes, config, beta=None):
    """The training objective recomputed from scratch (no dropout)."""
    beta = state.beta if beta is None else beta
    total = 0.0
    for scene in scenes:
        z, _ = unary.forward(state.model, scene.inputs)
        total += crf.nll(scene.instance, z, beta)
    theta = state.model.params
    total += 0.5 * config.lambda1 * float(theta @ theta)
    total += 0.5 * config.lambda2 * float(beta @ beta)
    return total


class TestPreparation:
    def test_standardized_inputs(self):
        scenes = tiny_scenes()
        stacked = np.concatenate([s.inputs for s in scenes])
        assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
        spread = stacked.std(axis=0)
        assert np.all((np.abs(spread - 1.0) < 1e-9) | (spread < 1e-9))

    def test_scene_shapes(self):
        for scene in tiny_scenes():
            n = scene.instance.n
            assert scene.inputs.shape == (n, 27)
            assert scene.instance.similarities.shape == (3, len(scene.instance.edges))
            assert scene.instance.y.shape == (n,)

    def test_requires_depth(self):
        sample = synth.generate(SceneSpec(height=24, width=24))
        sample.depth = None
        with pytest.raises(ValueError, match="ground-truth depth"):
            training.prepare_scene(sample, GRAPH_CFG)

    def test_scenes_from_two_workers_are_checked_and_read_only(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        scenes = tiny_scenes(count=3)
        assert_no_children()
        for scene in scenes:
            assert_read_only(scene.instance)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_depthless_sample_raises_the_serial_error(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        samples = synth.generate_dataset(SceneSpec(height=24, width=24), count=4, seed=0)
        samples[2].depth = samples[3].depth = None  # both handled by the child with 2 CPUs
        with pytest.raises(ValueError, match="^training scenes need ground-truth depth$"):
            training.prepare_dataset(samples, GRAPH_CFG)
        assert_no_children()

    def test_std_floor_on_constant_dimension(self):
        class Fake:
            inputs = np.ones((5, 2))

        _, std = training.input_stats([Fake()])
        assert np.all(std == training.STD_FLOOR)


class TestSchedule:
    def test_decay_boundaries(self):
        config = TrainConfig(lr0=1e-4, lr_decay=0.6, lr_decay_every=20)
        assert training.current_lr(config, 0) == 1e-4
        assert training.current_lr(config, 19) == 1e-4
        assert abs(training.current_lr(config, 20) - 0.6e-4) < 1e-20
        assert abs(training.current_lr(config, 39) - 0.6e-4) < 1e-20
        assert abs(training.current_lr(config, 40) - 0.36e-4) < 1e-20

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(dropout_keep=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta_init=-0.5)


class TestStep:
    def test_zero_lr_changes_nothing(self):
        scenes = tiny_scenes()
        config = quiet_config(lr0=0.0)
        state = training.init_state(DIMS, config)
        theta_before = state.model.params.copy()
        beta_before = state.beta.copy()
        loss = training.step(state, scenes[0], config)
        assert loss > 0.0
        assert np.array_equal(state.model.params, theta_before)
        assert np.array_equal(state.beta, beta_before)

    def test_reported_loss_matches_recomputed_objective(self):
        scenes = tiny_scenes()
        config = quiet_config(lambda1=3e-4, lambda2=2e-4)
        state = training.init_state(DIMS, config)
        expected = objective(state, scenes[:1], config)
        loss = training.step(state, scenes[0], config)
        assert rel_err(loss, expected) < 1e-9

    def test_update_equals_fd_slope(self):
        scenes = tiny_scenes(count=1, seed=3)
        config = quiet_config(lr0=1e-3)
        state = training.init_state(DIMS, config)
        theta0 = state.model.params.copy()
        beta0 = state.beta.copy()

        def f_theta(vec):
            np.copyto(state.model.params, vec)
            value = objective(state, scenes, config)
            np.copyto(state.model.params, theta0)
            return value

        def f_beta(vec):
            return objective(state, scenes, config, beta=vec)

        fd_theta = oracle.fd_gradient(f_theta, theta0)
        fd_beta = oracle.fd_gradient(f_beta, beta0)
        training.step(state, scenes[0], config)
        assert rel_err(state.model.params - theta0, -config.lr0 * fd_theta) < 1e-4
        assert rel_err(state.beta - beta0, -config.lr0 * fd_beta) < 1e-4

    def test_step_shares_the_scene_arrays(self, monkeypatch):
        # each step hands the CRF the prepared instance itself, whose graph
        # and targets are read-only, together with the regressor's fresh z
        scenes = tiny_scenes(count=2)
        seen = []
        nll_with_grads = crf.nll_with_grads

        def spy(instance, z, beta):
            seen.append((instance, z))
            return nll_with_grads(instance, z, beta)

        monkeypatch.setattr(crf, "nll_with_grads", spy)
        config = quiet_config()
        state = training.init_state(DIMS, config)
        for scene in scenes:
            training.step(state, scene, config)
        assert len(seen) == len(scenes)
        for scene, (instance, z) in zip(scenes, seen):
            assert instance is scene.instance
            assert z.shape == (scene.instance.n,)
            assert not np.shares_memory(z, scene.inputs)

    def test_an_epoch_builds_no_instance(self, monkeypatch):
        # the scenes' instances are built once, by prepare_dataset
        scenes = tiny_scenes()
        built = []
        post_init = CrfInstance.__post_init__

        def counting(instance):
            built.append(instance)
            post_init(instance)

        monkeypatch.setattr(CrfInstance, "__post_init__", counting)
        fresh_train(scenes, quiet_config(epochs=2))
        assert built == []

    def test_beta_projection_clamps_at_zero(self):
        # a violent depth jump across one edge makes every beta gradient
        # positive, so a huge learning rate drives beta through zero
        n = 2
        scene = training.PreparedScene(
            inputs=np.zeros((n, 3)),
            instance=CrfInstance(n=n, similarities=np.ones((3, 1)),
                                 edges=np.array([[0, 1]]), y=np.array([10.0, -10.0])),
        )
        config = quiet_config(lr0=1e9)
        state = training.init_state((3, 1), config)
        training.step(state, scene, config)
        assert np.array_equal(state.beta, np.zeros(3))

    def test_momentum_velocity_recursion(self):
        scenes = tiny_scenes(count=1, seed=5)
        config = quiet_config(momentum=0.5, lr0=1e-4)
        state = training.init_state(DIMS, config)
        g1 = np.zeros(0)

        theta0 = state.model.params.copy()
        f = lambda vec: (np.copyto(state.model.params, vec), objective(state, scenes, config))[1]
        g1 = oracle.fd_gradient(f, theta0)
        np.copyto(state.model.params, theta0)
        training.step(state, scenes[0], config)
        v1 = state.theta_velocity.copy()
        assert rel_err(v1, -config.lr0 * g1) < 1e-4
        theta1 = state.model.params.copy()
        g2 = oracle.fd_gradient(f, theta1)
        np.copyto(state.model.params, theta1)
        training.step(state, scenes[0], config)
        assert rel_err(state.theta_velocity, config.momentum * v1 - config.lr0 * g2) < 1e-4

    def test_zero_gradient_fixed_point(self):
        # coupling-free graph, regressor output already equal to the target
        n, d = 4, 3
        scene = training.PreparedScene(
            inputs=np.zeros((n, d)),
            instance=CrfInstance(n=n, similarities=np.zeros((3, 0)),
                                 edges=np.empty((0, 2), dtype=np.intp), y=np.zeros(n)),
        )
        config = quiet_config(lr0=0.5)
        state = training.init_state((d, 1), config)
        np.copyto(state.model.params, np.zeros(d + 1))
        training.step(state, scene, config)
        assert np.array_equal(state.model.params, np.zeros(d + 1))
        assert np.array_equal(state.beta, np.full(3, 0.5))


class TestTrain:
    def test_zero_epochs_is_identity(self):
        scenes = tiny_scenes()
        config = quiet_config(epochs=0)
        state = training.init_state(DIMS, config)
        theta0 = state.model.params.copy()
        out = training.train(scenes, config, state=state)
        assert out is state
        assert out.history == []
        assert np.array_equal(out.model.params, theta0)

    def test_rejects_no_scenes(self):
        config = quiet_config()
        with pytest.raises(ValueError, match="at least one scene"):
            training.train([], config, state=training.init_state(DIMS, config))

    def test_deterministic(self):
        scenes = tiny_scenes()
        config = quiet_config(epochs=3, dropout_keep=0.8, momentum=0.9, lr0=1e-3, train_seed=7)
        a = fresh_train(scenes, config)
        b = fresh_train(scenes, config)
        assert np.array_equal(a.model.params, b.model.params)
        assert np.array_equal(a.beta, b.beta)
        assert [s.mean_nll for s in a.history] == [s.mean_nll for s in b.history]

    def test_history_records_schedule(self):
        scenes = tiny_scenes()
        config = quiet_config(epochs=5, lr0=1e-3, train_seed=1)
        config = TrainConfig(**{**config.__dict__, "lr_decay": 0.5, "lr_decay_every": 2})
        state = fresh_train(scenes, config)
        assert [s.epoch for s in state.history] == [0, 1, 2, 3, 4]
        assert [s.lr for s in state.history] == [1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4]

    def test_loss_decreases_on_small_run(self):
        scenes = tiny_scenes(count=4, seed=9)
        config = quiet_config(epochs=12, lr0=3e-3, momentum=0.9, train_seed=2)
        state = fresh_train(scenes, config)
        assert state.history[-1].mean_nll < state.history[0].mean_nll

    def test_resume_continues_epoch_count(self):
        scenes = tiny_scenes()
        config = quiet_config(epochs=2, train_seed=3)
        state = fresh_train(scenes, config)
        training.train(scenes, config, state=state)
        assert [s.epoch for s in state.history] == [0, 1, 2, 3]


class TestUnaryOnly:
    def test_beta_stays_zero(self):
        scenes = tiny_scenes()
        config = quiet_config(epochs=2, lr0=1e-3, momentum=0.9)
        state = fresh_train(scenes, config, unary_only=True)
        assert np.array_equal(state.beta, np.zeros(3))

    def test_loss_is_squared_error_plus_constant(self):
        # with beta = 0 the NLL reduces to |y - z|^2 + (n/2) log pi;
        # zero lr keeps the regressor where it was when the loss was taken
        scenes = tiny_scenes(count=1)
        config = quiet_config(lr0=0.0)
        state = training.init_state(DIMS, config)
        loss = training.step(state, scenes[0], config, unary_only=True)
        z, _ = unary.forward(state.model, scenes[0].inputs)
        expected = float(np.sum((scenes[0].instance.y - z) ** 2))
        expected += 0.5 * scenes[0].instance.n * np.log(np.pi)
        assert rel_err(loss, expected) < 1e-9


def nan_first(values):
    """A copy of ``values`` with a NaN as its first entry."""
    values = np.array(values, dtype=float)
    values.flat[0] = np.nan
    return values


# each check of a step, and the piece patched to fail it: (module, function,
# what the patch makes of the real result, the message after the prefix;
# None for the factorization's own message)
DIVERGENCES = {
    "regressor-output": (unary, "forward", lambda out: (nan_first(out[0]), out[1]),
                         "non-finite regressor output"),
    "factorization": (crf, "coupling_matrix", nan_first, None),
    "loss": (crf, "nll_with_grads", lambda out: (np.inf, *out[1:]),
             "non-finite loss or gradient"),
    "regressor-gradient": (unary, "backward", nan_first, "non-finite loss or gradient"),
    "beta-gradient": (crf, "nll_with_grads", lambda out: (*out[:2], nan_first(out[2])),
                      "non-finite loss or gradient"),
    "update": (training, "current_lr", lambda lr: np.inf, "non-finite parameter update"),
}


class TestDivergence:
    @pytest.mark.parametrize("case", DIVERGENCES.values(), ids=DIVERGENCES.keys())
    def test_raises_its_message_before_any_parameter_moves(self, monkeypatch, case):
        module, name, poison, what = case
        scenes = tiny_scenes()
        config = quiet_config(momentum=0.9, lambda1=5e-4, lambda2=5e-4, dropout_keep=0.5)
        state = fresh_train(scenes, config)  # one epoch: nonzero velocities, beta moved
        before = {key: getattr(state, key).copy()
                  for key in ("theta_velocity", "beta_velocity", "beta")}
        before["params"] = state.model.params.copy()
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: poison(real(*args)))
        prefix = (f"training diverged in epoch 1 "
                  f"(beta = {np.array2string(state.beta, precision=4)}): ")
        with pytest.raises(DivergenceError) as raised:
            training.step(state, scenes[0], config)
        if what is None:
            assert isinstance(raised.value.__cause__, FactorizationError)
            what = str(raised.value.__cause__)
        assert str(raised.value) == prefix + what
        after = {key: getattr(state, key) for key in ("theta_velocity", "beta_velocity", "beta")}
        after["params"] = state.model.params
        assert {k: v.tobytes() for k, v in after.items()} == {
            k: v.tobytes() for k, v in before.items()}


# scenes at the default patch size: 150 superpixels give n = 144 nodes in 4
# CRF blocks and 700 give n = 676 in 21; the session digests train at 16
# superpixels, one block, so they cannot see a slip across blocks
MULTI_BLOCK = pytest.mark.parametrize(
    "superpixels, seeds, blocks", [(150, (31, 32), 4), (700, (31,), 21)], ids=["150x2", "700x1"]
)


@MULTI_BLOCK
@pytest.mark.parametrize("unary_only", [False, True], ids=["joint", "unary-only"])
def test_train_leaves_the_reference_steps_bits(superpixels, seeds, blocks, unary_only):
    samples = [synth.generate(SceneSpec(seed=seed)) for seed in seeds]
    scenes, _, _ = training.prepare_dataset(samples, GraphConfig(target_superpixels=superpixels))
    assert [len(s.instance.block_rows) for s in scenes] == [blocks] * len(seeds)
    # dropout 0.5, momentum 0.9 and both regularisers at their defaults
    config = TrainConfig(epochs=4, lr0=1e-3, lr_decay_every=2, train_seed=3)
    dims = (scenes[0].inputs.shape[1], 32, 16, 1)
    ours, theirs = (training.init_state(dims, config) for _ in range(2))
    training.train(scenes, config, ours, unary_only=unary_only)
    training_reference.train(scenes, config, theirs, unary_only=unary_only)
    for name in ("theta_velocity", "beta_velocity", "beta"):
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    assert ours.model.params.tobytes() == theirs.model.params.tobytes()
    assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
    assert [(s.epoch, s.lr.hex(), s.mean_nll.hex()) for s in ours.history] == [
        (s.epoch, s.lr.hex(), s.mean_nll.hex()) for s in theirs.history]
    assert len({s.mean_nll for s in ours.history}) == config.epochs


# one training gradient on a 700-superpixel scene: n = 676 nodes, three
# ``unary.GRAD_ROWS`` chunks of the weight gradients' contraction
THREAD_PROBE = """
import hashlib
import numpy as np
from depthcrf import crf, synth, training, unary
from depthcrf.graph import GraphConfig

sample = synth.generate(synth.SceneSpec(seed=31))
(scene,), _, _ = training.prepare_dataset([sample], GraphConfig(target_superpixels=700))
model = unary.build_model((scene.inputs.shape[1], 32, 16, 1), seed=0)
z, tape = unary.forward(model, scene.inputs)
_, grad_z, grad_beta = crf.nll_with_grads(scene.instance, z, np.full(3, 0.5))
grad_theta = unary.backward(model, tape, grad_z)
blob = b"".join(g.tobytes() for g in (grad_z, grad_beta, grad_theta))
print(scene.instance.n, hashlib.sha256(blob).hexdigest())
"""


def test_gradient_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count when numpy loads: one process per count
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(training.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert int(outputs[0].split()[0]) > 2 * unary.GRAD_ROWS
