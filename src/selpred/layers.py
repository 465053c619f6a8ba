"""Stateful network layers: dense, batch normalization, dropout, softmax.

Layers carry their parameters as ``Tensor`` leaves and expose a
``parameters()`` list in declaration order; the order is relied upon by the
optimizer and by checkpoint serialization.

These layers build the training graph only: batchnorm normalizes by the
batch moments and updates its running statistics, and dropout is active
whenever its rate is above 0. Eval mode has one implementation,
``SelectiveNet.freeze()``, which folds the running statistics into the dense
weights. ``TRAIN`` and ``EVAL`` name the modes of ``SelectiveNet.forward``.

Dense, batchnorm and softmax are each one tape node with a closed-form
backward, ``dense_bn_relu`` fuses a whole hidden block
dense -> batchnorm -> relu into one node, and ``dense_sigmoid`` fuses g's
one-unit output dense -> sigmoid -> flatten into one. The block folds
batchnorm's per-feature vectors into width-sized vectors and the
(in, width) weights, saving passes over the batch.
"""

from __future__ import annotations

import functools

import numpy as np

from .autograd import (
    DomainError,
    ShapeError,
    Tensor,
    note_kink_margin,
    relu,
    sigmoid,
    stable_sigmoid,
)

__all__ = [
    "ConfigurationError",
    "ContractError",
    "DenseLayer",
    "BatchNormLayer",
    "DropoutLayer",
    "dense_bn_relu",
    "dense_sigmoid",
    "softmax",
    "softmax_rows",
    "relu",
    "sigmoid",
    "TRAIN",
    "EVAL",
]

TRAIN = "train"
EVAL = "eval"


class ConfigurationError(ValueError):
    """Invalid layer or model configuration."""


class ContractError(ValueError):
    """A call violates a layer's usage contract."""


class DenseLayer:
    """Affine map x @ W + b with He- or Glorot-uniform initialization.

    Use ``init="he"`` when a ReLU follows, ``init="glorot"`` otherwise.
    """

    def __init__(self, in_dim, out_dim, rng, init="he"):
        if in_dim < 1 or out_dim < 1:
            raise ConfigurationError(
                f"dense layer extents must be positive, got {in_dim}x{out_dim}")
        if init == "he":
            limit = np.sqrt(6.0 / in_dim)
        elif init == "glorot":
            limit = np.sqrt(6.0 / (in_dim + out_dim))
        else:
            raise ConfigurationError(f"unknown init {init!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weights = Tensor(rng.uniform(-limit, limit, (in_dim, out_dim)),
                              requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x):
        """x @ W + b as one node."""
        return Tensor._op(self.affine(x), (x, self.weights, self.bias),
                          lambda g: self.backprop(x, g))

    def affine(self, x, bias=True):
        """x @ W + b (x @ W without ``bias``) for the tensor ``x``, new."""
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense layer expects (batch, {self.in_dim}), got {x.data.shape}")
        z = x.data @ self.weights.data
        if bias:
            z += self.bias.data
        return z

    def backprop(self, x, g):
        """Accumulate dW = x.T @ g, db = sum_rows(g) and dx = g @ W.T (as
        g * W[:, 0] for one unit, else g @ a contiguous copy of W.T, which
        is faster), given g = dL/d(x @ W + b)."""
        w, b = self.weights, self.bias
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(_column_sums(g))
        if x.requires_grad:
            w = w.data
            x._accum(g * w[:, 0] if w.shape[1] == 1
                     else g @ np.ascontiguousarray(w.T))

    def parameters(self):
        return [self.weights, self.bias]


def _column_sums(a):
    """``a.sum(axis=0)`` of a 2-D array as one matrix-vector product, several
    times faster on a batch of narrow rows (the rounding differs in the last
    bits)."""
    return _ones(a.shape[0]) @ a


@functools.lru_cache(maxsize=8)
def _ones(n):
    """A read-only vector of ``n`` ones, shared by every call with ``n``
    (a training run sees a few batch sizes)."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Normalizes by the batch mean and (biased) variance and updates the
    running statistics with momentum. ``FrozenNet`` folds the running
    statistics into the dense layer in front for eval mode.
    """

    def __init__(self, num_features, momentum=0.9, eps=1e-5):
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError(f"momentum must be in (0,1), got {momentum}")
        if eps <= 0.0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.scale = Tensor(np.ones(num_features), requires_grad=True)
        self.shift = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def __call__(self, x):
        """Normalize ``x`` as one node (see ``train_normalize``)."""
        y, backprop = self.train_normalize(x.data.copy())

        def backward(gy):
            d, r, a, gscale, gshift = backprop(gy)
            if x.requires_grad:
                x._accum((d - r) * a)
            self._accum(gscale, gshift)

        return Tensor._op(y, (x, self.scale, self.shift), backward)

    def train_normalize(self, z, offset=0.0):
        """``(y, backprop)`` of batchnorm on the array ``z``, which it
        centers in place to zc: y = zc * a + shift, a = scale / std by the
        biased batch moments. The running mean gets the batch mean plus
        ``offset`` (a bias in front, which y cancels). ``backprop(gy)`` gives
        ``(d, r, a, dL/dscale, dL/dshift)``: dL/dz = a * (d - r), with
        d = gy - zc * dL/dscale / (m std) and r = dL/dshift / m."""
        self._check_features(z)
        m = z.shape[0]
        if m < 2:
            raise ContractError("batchnorm requires batch >= 2")
        inv_m = 1.0 / m
        mean = _column_sums(z) * inv_m
        z -= mean
        var = _column_sums(z * z) * inv_m
        inv_std = 1.0 / np.sqrt(var + self.eps)
        mean += offset
        self.running_mean = (self.momentum * self.running_mean
                             + (1.0 - self.momentum) * mean)
        self.running_var = (self.momentum * self.running_var
                            + (1.0 - self.momentum) * var)
        a = self.scale.data * inv_std
        y = z * a
        y += self.shift.data

        def backprop(gy):
            gshift = _column_sums(gy)
            gscale = _column_sums(gy * z) * inv_std
            d = z * (gscale * inv_std * inv_m)
            np.subtract(gy, d, out=d)
            return d, gshift * inv_m, a, gscale, gshift

        return y, backprop

    def _check_features(self, x):
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(f"batchnorm expects {self.num_features} "
                             f"features, got {x.shape}")

    def _accum(self, gscale, gshift):
        if self.scale.requires_grad:
            self.scale._accum(gscale)
        if self.shift.requires_grad:
            self.shift._accum(gshift)

    def parameters(self):
        return [self.scale, self.shift]

    def running_stats(self):
        return [self.running_mean, self.running_var]


class DropoutLayer:
    """Inverted dropout: survivors scaled by 1/(1-p), so the expected output
    is the input and eval mode (``FrozenNet``) has no dropout at all.

    Active whenever the rate is above 0. MC-dropout draws the same masks,
    ``(rng.random(shape) >= rate) / (1 - rate)``, on the frozen arrays
    (``FrozenNet.dropout_f``)."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def __call__(self, x, rng=None):
        if self.rate == 0.0:
            return x
        if rng is None:
            raise ContractError("active dropout requires an rng")
        mask = (rng.random(x.data.shape) >= self.rate) / (1.0 - self.rate)
        return x * Tensor(mask)

    def parameters(self):
        return []


def dense_bn_relu(x, dense, bn):
    """relu(bn(dense(x))) as one node with closed-form backward.

    The forward values are those of the three layers applied in turn, and
    the relu pre-activations are reported to ``watch_kink_margins``.

    The block normalizes x @ W (the batch mean cancels the bias) and folds
    ``train_normalize``'s a and r into small arrays: dW = (x.T @ d - xr) * a
    with xr = colsum(x) (x) r, db = (colsum(d) - m r) * a, dx = (d - r) @
    (W * a).T."""
    out, bn_backprop = bn.train_normalize(dense.affine(x, bias=False),
                                          dense.bias.data)

    def backward(g):
        d, r, a, gscale, gshift = bn_backprop(g * (out > 0.0))
        w, b = dense.weights, dense.bias
        if w.requires_grad:
            xr = _column_sums(x.data)[:, None] * r
            w._accum((x.data.T @ d - xr) * a)
        if b.requires_grad:
            b._accum((_column_sums(d) - gshift) * a)
        if x.requires_grad:
            x._accum((d - r) @ np.ascontiguousarray((w.data * a).T))
        bn._accum(gscale, gshift)
    note_kink_margin(out)
    np.maximum(out, 0.0, out=out)

    return Tensor._op(out, (x, dense.weights, dense.bias, bn.scale, bn.shift),
                      backward)


def dense_sigmoid(x, dense):
    """sigmoid(dense(x)).reshape(-1) for a one-unit ``dense``, as one node.

    The forward values and the gradients are those of the three nodes in
    turn: dL/dz = g * s * (1 - s) on the (batch, 1) sigmoid output s.
    """
    s = stable_sigmoid(dense.affine(x))

    def backward(g):
        dense.backprop(x, g[:, None] * s * (1.0 - s))

    return Tensor._op(s.reshape(-1), (x, dense.weights, dense.bias), backward)


def softmax(logits):
    """Row softmax with max-subtraction stabilization; rows sum to 1.

    One node with the softmax Jacobian as backward. The output also keeps
    ``log_softmax = (logits, shifted, row_sums)``, from which cross-entropy
    takes exact log-probabilities ``shifted - log(row_sums)`` and sends its
    gradient ``p - onehot`` straight to the logits.
    """
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ShapeError(
            f"softmax expects (batch, classes>=2), got {logits.data.shape}")
    if not np.isfinite(logits.data).all():
        raise DomainError("softmax requires finite logits")
    p, shifted, row_sums = softmax_rows(logits.data)

    def backward(g):
        logits._accum(p * (g - (g * p).sum(axis=1, keepdims=True)))

    out = Tensor._op(p, (logits,), backward)
    out.log_softmax = (logits, shifted, row_sums)
    return out


def softmax_rows(logits):
    """Row softmax of the 2-D array ``logits``; returns ``(p, shifted,
    row_sums)`` with ``shifted`` the logits minus each row's max and
    ``p = exp(shifted) / row_sums``.

    The row max is an elementwise ``np.maximum`` fold over the columns:
    the same values as ``logits.max(axis=1)``, several times faster for the
    few columns of a class-logit matrix.
    """
    shifted = logits - functools.reduce(np.maximum, logits.T)[:, None]
    p = np.exp(shifted)
    row_sums = p.sum(axis=1, keepdims=True)
    p /= row_sums
    return p, shifted, row_sums
