"""The per-superpixel regressor: forward, tape replay, gradients, init."""

import warnings

import numpy as np
import pytest
import scipy.special

from depthcrf import oracle, unary

from testutil import rel_err


def small_model(seed=0, dims=(5, 4, 3, 1)):
    return unary.build_model(dims, seed=seed)


def replay(model, tape):
    """Recompute the forward output with the recorded dropout masks."""
    out = tape.inputs
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        post = unary._apply(model.activations[i], out @ w + b)
        if tape.masks[i] is not None:
            post = post * tape.masks[i] / tape.keep_prob
        out = post
    return out[:, 0]


class TestActivationsAndInit:
    def test_standard_patterns(self):
        assert unary.standard_activations(1) == ("linear",)
        assert unary.standard_activations(2) == ("logistic", "linear")
        assert unary.standard_activations(4) == ("relu", "relu", "logistic", "linear")

    def test_params_size_formula(self):
        dims = (16, 8, 8, 4, 1)
        expected = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(4))
        assert expected == 249
        model = unary.build_model(dims, seed=0)
        assert model.num_layers == 4
        assert model.params.shape == (expected,)

    def test_init_bounds_and_zero_biases(self):
        model = unary.build_model((16, 8, 1), seed=3)
        for w in model.weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.all(np.abs(w) <= bound)
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_init_deterministic(self):
        a = unary.build_model((6, 4, 1), seed=11)
        b = unary.build_model((6, 4, 1), seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            unary.build_model((4, 0, 1), seed=0)
        with pytest.raises(ValueError):
            unary.build_model((4, 3, 2), seed=0)
        with pytest.raises(ValueError):
            unary.build_model((4,), seed=0)
        with pytest.raises(ValueError, match="at least one layer"):
            unary.standard_activations(0)
        with pytest.raises(ValueError, match="fan-in"):
            unary.UnaryModel(weights=(np.zeros((4, 3)), np.zeros((2, 1))),
                             biases=(np.zeros(3), np.zeros(1)))

    def test_dropout_layer_selection(self):
        # at most the first two rectified layers
        assert unary.build_model((8, 4, 1), seed=0).dropout_layers == ()
        assert unary.build_model((8, 4, 4, 1), seed=0).dropout_layers == (0,)
        assert unary.build_model((8, 4, 4, 4, 1), seed=0).dropout_layers == (0, 1)
        assert unary.build_model((8, 4, 4, 4, 4, 1), seed=0).dropout_layers == (0, 1)


class TestLogistic:
    @pytest.mark.parametrize("x, expected", [(800.0, 1.0), (-800.0, 0.0), (1e308, 1.0),
                                             (-1e308, 0.0)])
    def test_saturates_without_a_warning(self, x, expected):
        pre = np.array([x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unary._apply(unary.LOGISTIC, pre).tolist() == [expected]
        assert pre.tolist() == [x]

    def test_matches_scipy_expit(self):
        # below about -709.78 exp(-x) overflows and the result is 0, where
        # expit returns a subnormal; the grid stops short of that
        x = np.concatenate([np.linspace(-708.0, 708.0, 400_001), np.linspace(-40.0, 40.0, 400_001)])
        expected = scipy.special.expit(x)
        assert np.max(np.abs(unary._apply(unary.LOGISTIC, x) - expected) / expected) <= 5e-16


class TestForward:
    def test_single_linear_layer_is_affine(self):
        model = unary.build_model((3, 1), seed=0)
        model.weights[0][...] = np.array([[0.5], [-1.0], [2.0]])
        model.biases[0][...] = np.array([0.25])
        x = np.array([[1.0, 2.0, 3.0]])
        (value,), _ = unary.forward(model, x)
        assert abs(value - (0.5 - 2.0 + 6.0 + 0.25)) < 1e-12

    def test_two_layer_scalar_loop(self):
        model = unary.build_model((3, 2, 1), seed=7)
        x = np.array([0.3, -0.6, 1.1])
        (value,), _ = unary.forward(model, x[None, :])
        acc = 0.0
        for j in range(2):
            pre = model.biases[0][j]
            for i in range(3):
                pre += x[i] * model.weights[0][i, j]
            acc += model.weights[1][j, 0] / (1.0 + np.exp(-pre))
        acc += model.biases[1][0]
        assert abs(value - acc) < 1e-12

    def test_logistic_layer_output_is_bounded(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(0)
        _, tape = unary.forward(model, rng.normal(size=(40, 5)) * 10.0)
        logistic_out = tape.posts[-2]
        assert np.all(logistic_out > 0.0) and np.all(logistic_out < 1.0)

    def test_batch_matches_per_row(self):
        model = small_model(seed=9)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(7, 5))
        values, _ = unary.forward(model, batch)
        for row, expected in zip(batch, values):
            (got,), _ = unary.forward(model, row[None, :])
            assert abs(got - expected) < 1e-12

    def test_row_permutation_permutes_outputs(self):
        model = small_model(seed=2)
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(9, 5))
        perm = rng.permutation(9)
        values, _ = unary.forward(model, batch)
        shuffled, _ = unary.forward(model, batch[perm])
        assert np.max(np.abs(shuffled - values[perm])) < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            unary.forward(small_model(), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="batch"):  # a bare feature vector is not a batch
            unary.forward(small_model(), np.zeros(5))


class TestDropout:
    def test_default_keep_prob_has_no_masks(self):
        model = small_model()
        _, tape = unary.forward(model, np.ones((1, 5)))
        assert all(m is None for m in tape.masks)

    def test_dropout_needs_rng(self):
        with pytest.raises(ValueError):
            unary.forward(small_model(), np.ones((1, 5)), keep_prob=0.5)

    @pytest.mark.parametrize("keep_prob", [0.0, -0.5, 1.5, np.nan])
    def test_rejects_keep_prob_outside_zero_one(self, keep_prob):
        with pytest.raises(ValueError, match="keep_prob"):
            unary.forward(small_model(), np.ones((1, 5)), np.random.default_rng(0), keep_prob)

    def test_keep_prob_one_equals_eval(self):
        model = small_model(seed=4)
        x = np.random.default_rng(5).normal(size=(6, 5))
        eval_values, _ = unary.forward(model, x)
        rng = np.random.default_rng(0)
        drawn_from = rng.bit_generator.state
        train_values, tape = unary.forward(model, x, rng=rng, keep_prob=1.0)
        assert np.array_equal(eval_values, train_values)
        assert all(m is None for m in tape.masks)
        assert rng.bit_generator.state == drawn_from  # nothing drawn

    def test_masks_scale_surviving_units(self):
        model = unary.build_model((4, 8, 8, 6, 1), seed=6)
        x = np.abs(np.random.default_rng(7).normal(size=(5, 4))) + 0.5
        _, tape = unary.forward(model, x, rng=np.random.default_rng(8), keep_prob=0.5)
        for i in model.dropout_layers:
            kept = np.maximum(tape.pres[i], 0.0) * tape.masks[i] / 0.5
            assert np.allclose(tape.posts[i], kept)
        assert tape.masks[2] is None and tape.masks[3] is None

    def test_draws_one_uniform_array_per_dropout_layer(self):
        model = unary.build_model((4, 8, 6, 5, 1), seed=24)
        x = np.random.default_rng(25).normal(size=(7, 4))
        rng, twin = np.random.default_rng(26), np.random.default_rng(26)
        _, tape = unary.forward(model, x, rng=rng, keep_prob=0.7)
        draws = [twin.random((7, width)) for width in (8, 6)]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert model.dropout_layers == (0, 1)
        for i, draw in zip(model.dropout_layers, draws):
            assert tape.masks[i].dtype == bool
            assert np.array_equal(tape.masks[i], draw < 0.7)

    def test_forward_and_replay_share_the_activation_routine(self, monkeypatch):
        calls, apply = [], unary._apply

        def spy(activation, pre):
            calls.append(activation)
            return apply(activation, pre)

        monkeypatch.setattr(unary, "_apply", spy)
        model = unary.build_model((4, 8, 8, 6, 1), seed=27)
        x = np.random.default_rng(28).normal(size=(5, 4))
        values, tape = unary.forward(model, x, rng=np.random.default_rng(29), keep_prob=0.5)
        assert calls == list(model.activations)
        calls.clear()
        assert np.array_equal(replay(model, tape), values)
        assert calls == list(model.activations)

    def test_replay_reproduces_forward(self):
        model = unary.build_model((4, 8, 8, 6, 1), seed=1)
        x = np.random.default_rng(2).normal(size=(10, 4))
        values, tape = unary.forward(model, x, rng=np.random.default_rng(3), keep_prob=0.5)
        assert np.array_equal(replay(model, tape), values)


class TestBackward:
    def test_matches_finite_differences(self):
        model = small_model(seed=12)
        x = np.random.default_rng(13).normal(size=(1, 5))
        theta = model.params.copy()

        def f(vec):
            np.copyto(model.params, vec)
            (value,), _ = unary.forward(model, x)
            return value

        fd = oracle.fd_gradient(f, theta)
        np.copyto(model.params, theta)
        _, tape = unary.forward(model, x)
        grad = unary.backward(model, tape, np.ones(1))
        assert rel_err(grad, fd) < 1e-5

    def test_batch_gradient_is_sum_of_rows(self):
        model = small_model(seed=14)
        rng = np.random.default_rng(15)
        batch = rng.normal(size=(6, 5))
        residual = rng.normal(size=6)
        _, tape = unary.forward(model, batch)
        total = unary.backward(model, tape, residual)
        acc = np.zeros_like(total)
        for row, res in zip(batch, residual):
            _, row_tape = unary.forward(model, row[None, :])
            acc += unary.backward(model, row_tape, [res])
        assert rel_err(total, acc) < 1e-12

    def test_row_order_does_not_change_accumulated_gradient(self):
        model = small_model(seed=16)
        rng = np.random.default_rng(17)
        batch = rng.normal(size=(8, 5))
        residual = rng.normal(size=8)
        perm = rng.permutation(8)
        _, tape = unary.forward(model, batch)
        _, tape_perm = unary.forward(model, batch[perm])
        g1 = unary.backward(model, tape, residual)
        g2 = unary.backward(model, tape_perm, residual[perm])
        assert rel_err(g2, g1) < 1e-12

    def test_gradient_respects_dropout_masks(self):
        model = unary.build_model((4, 8, 8, 6, 1), seed=18)
        x = np.random.default_rng(19).normal(size=(3, 4))
        _, tape = unary.forward(model, x, rng=np.random.default_rng(20), keep_prob=0.5)
        theta = model.params.copy()

        def f(vec):
            np.copyto(model.params, vec)
            return float(np.sum(replay(model, tape)))

        fd = oracle.fd_gradient(f, theta)
        np.copyto(model.params, theta)
        grad = unary.backward(model, tape, np.ones(3))
        assert rel_err(grad, fd) < 1e-5

    def test_residual_shape_checked(self):
        model = small_model()
        _, tape = unary.forward(model, np.zeros((4, 5)))
        with pytest.raises(ValueError):
            unary.backward(model, tape, np.ones(3))


class TestParamVector:
    def test_layers_are_views_of_params(self):
        model = small_model(seed=21)
        layers = [a for layer in zip(model.weights, model.biases) for a in layer]
        assert np.array_equal(np.concatenate([a.ravel() for a in layers]), model.params)
        for a in layers:
            assert np.shares_memory(a, model.params)
        x = np.random.default_rng(22).normal(size=(4, 5))
        before, _ = unary.forward(model, x)
        model.params[-1] += 1.0  # the output bias
        after, _ = unary.forward(model, x)
        assert np.allclose(after, before + 1.0)

    def test_model_from_another_models_layers_shares_no_memory(self):
        model = small_model(seed=23)
        copy = unary.UnaryModel(model.weights, model.biases)
        assert np.array_equal(copy.params, model.params)
        assert not np.shares_memory(copy.params, model.params)
        copy.params[:] = 0.0
        assert not np.any(copy.params) and np.any(model.params)
