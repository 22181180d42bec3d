"""Joint training of the regressor and the pairwise coupling coefficients.

The objective over a dataset of prepared scenes is

    sum_i nll_i(theta, beta) + (l1/2) |theta|^2 + (l2/2) |beta|^2

minimized by stochastic gradient descent, one image per step, with classic
momentum: v <- mu v - lr g, param <- param + v, each operator applied in place
on the gradient and velocity arrays the step allocated; these are the same
IEEE operations in the same order.  After every step beta is projected back
onto beta >= 0.  The learning rate starts at ``lr0`` and is multiplied by
``lr_decay`` every ``lr_decay_every`` epochs.  Scene order is reshuffled
every epoch from the run's own generator, so a (config, dataset) pair
determines the final state exactly.

A step that yields a non-finite regressor output, loss or gradient, or a
precision matrix that no longer factors, raises ``DivergenceError`` before
any parameter moves: with valid inputs only a runaway step size gets there.

Every run starts from ``init_state`` (seeded weights, beta at ``beta_init``,
zero velocities), and ``train`` continues whatever state it is given for
``config.epochs`` epochs, so a fresh run and a resumed one take one path.
The unary-only baseline is the identical loop with beta frozen at zero
(``unary_only=True``).  Regressor inputs are flattened patches standardized
per dimension with training-set statistics, kept with the model so that
prediction and resumed training reproduce them.  Each prepared scene keeps
only what ``graph.build_graph`` left for training: its patch rows,
standardized in place, and its graph, per-edge (3, E) similarities and
ground truth as the read-only ``CrfInstance``; each step passes the
regressor's ``z`` to the CRF alongside it, so training builds no instance.
The appearance channels that weighed the edges are gone by then.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crf, unary
from .crf import CrfInstance, FactorizationError
from .graph import NUM_CHANNELS, GraphConfig, build_graph, map_scenes

STD_FLOOR = 1e-8


class DivergenceError(ArithmeticError):
    """Training left the finite numbers; the message names the epoch and beta."""


@dataclass(frozen=True)
class TrainConfig:
    """The SGD schedule; each field is the run key of its name, with its default."""

    momentum: float = 0.9
    lambda1: float = 5e-4
    lambda2: float = 5e-4
    lr0: float = 1e-4
    lr_decay: float = 0.6
    lr_decay_every: int = 20
    epochs: int = 60
    dropout_keep: float = 0.5
    train_seed: int = 0
    beta_init: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 cannot be negative")
        if self.lr0 < 0 or not 0.0 < self.lr_decay <= 1.0 or self.lr_decay_every < 1:
            raise ValueError("need lr0 >= 0, lr_decay in (0, 1] and lr_decay_every >= 1")
        if self.epochs < 0:
            raise ValueError("epochs cannot be negative")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must lie in (0, 1]")
        if self.train_seed < 0:
            raise ValueError("train_seed cannot be negative")
        if self.beta_init < 0:
            raise ValueError("beta_init cannot be negative")


@dataclass
class PreparedScene:
    """One image, ready for the loss: regressor inputs (the graph's patch
    rows, standardized in place by ``prepare_dataset``) and the read-only CRF
    instance of its graph and ground truth."""

    inputs: np.ndarray
    instance: CrfInstance


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_nll: float


@dataclass
class TrainState:
    model: unary.UnaryModel
    beta: np.ndarray
    theta_velocity: np.ndarray
    beta_velocity: np.ndarray
    rng: np.random.Generator
    epoch: int = 0
    history: list[EpochStats] = field(default_factory=list)


def input_stats(scenes) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and (floored) standard deviation of raw inputs.

    The deviation is taken in place on the one stacked copy, in the steps of
    numpy's ``std`` (subtract the mean, square, sum, divide, root): the same
    bits as ``stacked.std(axis=0)`` without its second copy."""
    stacked = np.concatenate([s.inputs for s in scenes], axis=0)
    mean = stacked.mean(axis=0)
    stacked -= mean
    var = np.square(stacked, out=stacked).sum(axis=0) / len(stacked)
    return mean, np.maximum(np.sqrt(var), STD_FLOOR)


def prepare_scene(sample, graph_cfg: GraphConfig) -> PreparedScene:
    """Segment and featurize one training sample; inputs stay raw here."""
    data = build_graph(sample, graph_cfg)
    if data.instance.y is None:
        raise ValueError("training scenes need ground-truth depth")
    return PreparedScene(inputs=data.patches, instance=data.instance)


def prepare_dataset(samples, graph_cfg: GraphConfig, stats=None):
    """Prepared scenes, built over the usable CPUs by ``graph.map_scenes``, and
    the (mean, std) that standardized their inputs: ``stats`` when training
    resumes a model, else computed from these scenes."""
    scenes = map_scenes(prepare_scene, samples, graph_cfg)
    mean, std = input_stats(scenes) if stats is None else stats
    for scene in scenes:  # in place, as each scene owns its patch rows: the same bits
        scene.inputs -= mean
        scene.inputs /= std
    return scenes, mean, std


def init_state(layer_dims, config: TrainConfig) -> TrainState:
    """A fresh run: seeded weights, beta at ``beta_init``, zero velocities."""
    model = unary.build_model(layer_dims, seed=config.train_seed)
    return TrainState(
        model=model,
        beta=np.full(NUM_CHANNELS, float(config.beta_init)),
        theta_velocity=np.zeros_like(model.params),
        beta_velocity=np.zeros(NUM_CHANNELS),
        rng=np.random.default_rng(config.train_seed + 1),
    )


def current_lr(config: TrainConfig, epoch: int) -> float:
    return config.lr0 * config.lr_decay ** (epoch // config.lr_decay_every)


def _diverged(state: TrainState, what: str) -> DivergenceError:
    beta = np.array2string(state.beta, precision=4)
    return DivergenceError(f"training diverged in epoch {state.epoch} (beta = {beta}): {what}")


def _require_finite(state: TrainState, what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise _diverged(state, f"non-finite {what}")


@np.errstate(over="ignore", invalid="ignore")
def step(state: TrainState, scene, config: TrainConfig, *, unary_only: bool = False) -> float:
    """One SGD step on one prepared scene; returns the pre-update objective.

    Raises DivergenceError, before any parameter moves, when the step leaves
    the finite numbers; the overflow on the way there raises no warning.
    """
    lr = current_lr(config, state.epoch)
    theta = state.model.params
    beta = np.zeros_like(state.beta) if unary_only else state.beta
    z, tape = unary.forward(state.model, scene.inputs, state.rng, config.dropout_keep)
    _require_finite(state, "regressor output", z)
    try:
        loss, gz, grad_beta = crf.nll_with_grads(scene.instance, z, beta)
    except FactorizationError as exc:
        raise _diverged(state, str(exc)) from exc
    loss += 0.5 * config.lambda1 * float(theta @ theta)
    loss += 0.5 * config.lambda2 * float(beta @ beta)
    grad_theta = unary.backward(state.model, tape, gz)
    grad_theta += config.lambda1 * theta
    grad_beta = grad_beta + config.lambda2 * state.beta
    _require_finite(state, "loss or gradient", loss, grad_theta, grad_beta)
    grad_theta *= lr
    theta_velocity = config.momentum * state.theta_velocity
    theta_velocity -= grad_theta
    beta_velocity = config.momentum * state.beta_velocity - lr * grad_beta
    theta_next = np.add(theta, theta_velocity, out=grad_theta)
    beta_next = np.maximum(state.beta + beta_velocity, 0.0)
    _require_finite(state, "parameter update", theta_next, beta_next)
    state.theta_velocity = theta_velocity
    theta[...] = theta_next
    if not unary_only:
        state.beta_velocity, state.beta = beta_velocity, beta_next
    return loss


def train(scenes, config: TrainConfig, state: TrainState, *, unary_only=False) -> TrainState:
    """Run ``config.epochs`` more epochs from ``state``, in place; returns it."""
    if not scenes:
        raise ValueError("training needs at least one scene")
    if unary_only:
        state.beta = np.zeros_like(state.beta)
    for _ in range(config.epochs):
        lr = current_lr(config, state.epoch)
        order = state.rng.permutation(len(scenes))
        losses = [step(state, scenes[i], config, unary_only=unary_only) for i in order]
        state.history.append(
            EpochStats(epoch=state.epoch, lr=lr, mean_nll=float(np.mean(losses)))
        )
        state.epoch += 1
    return state

