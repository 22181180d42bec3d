"""Per-superpixel regressor: a small fully-connected network.

One network is shared by all superpixels; each superpixel's feature vector
runs through it independently and produces a single real value (a log-depth
estimate).  The activation pattern is fixed: rectified linear units on every
hidden layer except the last, which is logistic, and a width-1 linear output
layer.  A network with a single layer is plain affine regression, kept for
tests.  The logistic is 1 / (1 + exp(-x)) in numpy, which saturates to 0
where exp(-x) overflows; where it is normal it lies within 5e-16 relative
of ``scipy.special.expit``.

Dropout (inverted scaling, so evaluation needs no correction) is applied to
the outputs of at most the first two rectified layers, only when the forward
pass is given a keep probability below 1.
The forward pass records a tape - inputs, pre-activations, dropout masks -
from which ``backward`` accumulates parameter gradients for a whole image in
one call; both passes work in place on the arrays they create.  A model's
layers are views of one flat vector, ``params``, and ``backward`` returns
the gradient in its layout, a new array that the SGD step scales in place.
Weight gradients sum their rows in chunks of ``GRAD_ROWS``, in order:
OpenBLAS splits a longer contraction by thread count, which moves its last
bits, and a shorter not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RELU = "relu"
LOGISTIC = "logistic"
LINEAR = "linear"
GRAD_ROWS = 256


def standard_activations(num_layers: int) -> tuple[str, ...]:
    """relu ... relu, logistic, linear; a single layer is bare linear."""
    if num_layers < 1:
        raise ValueError("need at least one layer")
    if num_layers == 1:
        return (LINEAR,)
    return (RELU,) * (num_layers - 2) + (LOGISTIC, LINEAR)


@dataclass
class UnaryModel:
    """Weights are (fan_in, fan_out); the forward pass is x @ W + b.

    The activation pattern and the dropout layers follow from the depth
    alone (``standard_activations``; at most the first two rectified layers),
    so a model is just its weights and biases.  They are copied into one
    vector, ``params`` (layer 0 W, b, layer 1 ...), and read back as tuples
    of views of it, so no two models share memory.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need one weight and one bias per layer, at least one layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight/bias shapes disagree")
            if i and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"layer {i}: fan-in does not match previous layer")
        if self.weights[-1].shape[1] != 1:
            raise ValueError("output width must be exactly 1")
        layers = zip(self.weights, self.biases)
        self.params = np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=float)
        self.weights, self.biases = self.layers_of(self.params)

    def layers_of(self, flat):
        """(weights, biases) as views of a vector laid out like ``params``."""
        weights, biases, end = [], [], 0
        for w, b in zip(self.weights, self.biases):
            start, end = end, end + w.size
            weights.append(flat[start:end].reshape(w.shape))
            start, end = end, end + b.size
            biases.append(flat[start:end])
        return tuple(weights), tuple(biases)

    @property
    def activations(self) -> tuple[str, ...]:
        return standard_activations(self.num_layers)

    @property
    def dropout_layers(self) -> tuple[int, ...]:
        return tuple(range(min(2, max(0, self.num_layers - 2))))

    @property
    def num_layers(self):
        return len(self.weights)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def layer_dims(self):
        return (self.input_dim,) + tuple(w.shape[1] for w in self.weights)


def build_model(layer_dims, seed: int) -> UnaryModel:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    dims = [int(d) for d in layer_dims]
    if any(d <= 0 for d in dims):  # UnaryModel checks the rest, not zero widths
        raise ValueError("layer widths must be positive")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return UnaryModel(weights=weights, biases=biases)


def _apply(activation, pre):
    """The activation of ``pre``, as a new array (``pre`` for linear)."""
    if activation == RELU:
        return np.maximum(pre, 0.0)
    if activation == LOGISTIC:
        post = np.negative(pre)
        with np.errstate(over="ignore"):  # exp(-x) -> inf saturates to 0
            np.exp(post, out=post)
        post += 1.0
        return np.divide(1.0, post, out=post)
    return pre


@dataclass
class ForwardTape:
    """Everything needed to rerun or differentiate one forward pass."""

    inputs: np.ndarray
    pres: list[np.ndarray]
    posts: list[np.ndarray]
    masks: list[np.ndarray | None]
    keep_prob: float


def forward(model: UnaryModel, features, rng=None, keep_prob: float = 1.0):
    """Run the network over a (count, dim) batch of feature rows.

    Returns (values, tape) with one value per row.  With ``keep_prob < 1``
    each row draws its own dropout masks from ``rng``; at 1 nothing drops.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected a (count, {model.input_dim}) batch of features")
    dropping = keep_prob < 1.0
    if dropping and rng is None:
        raise ValueError("dropout needs an rng")
    dropout_layers = model.dropout_layers if dropping else ()
    pres, posts, masks = [], [], []
    out = x
    for i, (w, b, act) in enumerate(zip(model.weights, model.biases, model.activations)):
        pre = out @ w
        pre += b
        post = _apply(act, pre)
        mask = None
        if i in dropout_layers:  # a rectified layer: post is new
            mask = rng.random(post.shape) < keep_prob
            post *= mask
            post /= keep_prob
        pres.append(pre)
        posts.append(post)
        masks.append(mask)
        out = post
    tape = ForwardTape(inputs=x, pres=pres, posts=posts, masks=masks, keep_prob=keep_prob)
    return out[:, 0], tape


def backward(model: UnaryModel, tape: ForwardTape, residual) -> np.ndarray:
    """Parameter gradient of sum_p residual_p * z_p, laid out like ``params``.

    Contributions of the batch rows accumulate additively, which is exactly
    the per-image chain rule when ``residual`` is the loss gradient wrt z.
    """
    res = np.array(residual, dtype=float)  # a copy: delta is updated in place
    if res.shape != (tape.inputs.shape[0],):
        raise ValueError("residual must have one entry per batch row")
    grad = np.empty_like(model.params)
    grads_w, grads_b = model.layers_of(grad)
    delta = res[:, None]
    for i, act in reversed(tuple(enumerate(model.activations))):
        if tape.masks[i] is not None:
            delta *= tape.masks[i]
            delta /= tape.keep_prob
        if act == RELU:
            delta *= tape.pres[i] > 0.0
        elif act == LOGISTIC:  # never a dropout layer, so its output is the sigmoid
            delta *= tape.posts[i]
            delta *= 1.0 - tape.posts[i]
        layer_in = tape.inputs if i == 0 else tape.posts[i - 1]
        grad_w, rows = grads_w[i], GRAD_ROWS
        np.matmul(layer_in[:rows].T, delta[:rows], out=grad_w)
        for start in range(rows, len(delta), rows):
            grad_w += layer_in[start : start + rows].T @ delta[start : start + rows]
        delta.sum(axis=0, out=grads_b[i])
        if i:
            delta = delta @ model.weights[i].T
    return grad
