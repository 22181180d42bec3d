"""The SGD step and epoch loop written with a fresh array per operator, kept
as a test reference.

``depthcrf.training.step`` applies the regulariser, the learning rate, the
momentum subtraction and the update in place on the gradient and velocity
arrays it allocated.  The step here writes each formula as one expression,
``g + l1 theta``, ``mu v - lr g`` and ``theta + v``, and checks finiteness
with ``np.all`` over every array, loss included.  Every floating-point
operation is the same and runs in the same order, so tests require the two
to leave the same bits: parameters, velocities, beta, the generator's state
and each epoch's mean NLL.
"""

from __future__ import annotations

import numpy as np

from depthcrf import crf, unary
from depthcrf.crf import FactorizationError
from depthcrf.training import EpochStats, _diverged, current_lr


def _require_finite(state, what, *arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise _diverged(state, f"non-finite {what}")


@np.errstate(over="ignore", invalid="ignore")
def step(state, scene, config, *, unary_only=False):
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
    grad_theta = unary.backward(state.model, tape, gz) + config.lambda1 * theta
    grad_beta = grad_beta + config.lambda2 * state.beta
    _require_finite(state, "loss or gradient", loss, grad_theta, grad_beta)
    theta_velocity = config.momentum * state.theta_velocity - lr * grad_theta
    beta_velocity = config.momentum * state.beta_velocity - lr * grad_beta
    theta_next = theta + theta_velocity
    beta_next = np.maximum(state.beta + beta_velocity, 0.0)
    _require_finite(state, "parameter update", theta_next, beta_next)
    state.theta_velocity = theta_velocity
    state.model.params[...] = theta_next
    if not unary_only:
        state.beta_velocity, state.beta = beta_velocity, beta_next
    return loss


def train(scenes, config, state, *, unary_only=False):
    """``training.train``'s loop over this module's ``step``."""
    if unary_only:
        state.beta = np.zeros_like(state.beta)
    for _ in range(config.epochs):
        lr = current_lr(config, state.epoch)
        order = state.rng.permutation(len(scenes))
        losses = [step(state, scenes[i], config, unary_only=unary_only) for i in order]
        state.history.append(EpochStats(epoch=state.epoch, lr=lr, mean_nll=float(np.mean(losses))))
        state.epoch += 1
    return state
