"""Stateful network layers: dense, batch normalization, dropout, softmax.

Dense and batchnorm layers carry their parameters as ``Parameter`` leaves
and expose a ``parameters()`` list in declaration order; the order is relied
upon by the optimizer and by checkpoint serialization.

These layers build the training graph only: batchnorm normalizes by the
batch moments and updates its running statistics, and dropout always
draws its mask. Eval mode has one implementation,
``SelectiveNet.freeze()``, which folds the running statistics into the dense
weights. ``TRAIN`` and ``EVAL`` name the modes of ``SelectiveNet.forward``.

Dense, batchnorm and softmax (which training never builds: cross-entropy
takes logits) are each one tape node with a closed-form backward,
``dense_bn_relu`` fuses a whole hidden block dense -> batchnorm -> relu
into one node with batchnorm's closed-form backward (Ioffe & Szegedy
2015), and ``dense_sigmoid`` fuses g's one-unit output dense -> sigmoid ->
flatten into one. The block takes batchnorm's batch moments and its
gradients in the narrower of its two spaces, chosen by width alone: a
widening block (in < width, as on both benchmark bodies) from x's mean and
covariance, any other from z = x @ W through
``BatchNormLayer.train_normalize``; the input-space form measured slower on
a narrowing block. Either way batchnorm's per-feature vectors fold into
the (in, width) weights, saving passes over the batch. The block's dense
layer has no bias, which the batch mean would cancel.

Every product here and in ``FrozenNet`` is an ``ndarray.dot`` call, the
same BLAS call as ``@`` at less fixed cost, and a node hands a gradient
array it allocated to ``Tensor._accum`` without a defensive copy.
"""

from __future__ import annotations

import functools

import numpy as np

from .autograd import (
    Parameter,
    Tensor,
    note_kink_margin,
    stable_sigmoid,
    write_through,
)
from .checks import (ConfigurationError, ContractError, DomainError,
                     ShapeError, drop_rate)
from .data import _column_sums

__all__ = [
    "DenseLayer",
    "BatchNormLayer",
    "DropoutLayer",
    "dropout_mask",
    "dense_bn_relu",
    "dense_sigmoid",
    "softmax",
    "softmax_rows",
    "TRAIN",
    "EVAL",
]

TRAIN = "train"
EVAL = "eval"


class DenseLayer:
    """Affine map x @ W + b with He- or Glorot-uniform initialization.

    Use ``init="he"`` when a ReLU follows, ``init="glorot"`` otherwise, and
    ``bias=False`` (``bias`` None) when batchnorm follows: the map is then
    x @ W, for ``affine`` and ``parameters`` only.
    """

    def __init__(self, in_dim, out_dim, rng, init="he", bias=True):
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
        self.weights = Parameter(rng.uniform(-limit, limit, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x):
        """x @ W + b as one node."""
        return Tensor._op(self.affine(x), (x, self.weights, self.bias),
                          lambda g: self.backprop(x, g))

    def affine(self, x):
        """x @ W + b (x @ W without a bias) for the tensor ``x``, new."""
        self._check_input(x)
        z = x.data.dot(self.weights.data)
        if self.bias is not None:
            z += self.bias.data
        return z

    def _check_input(self, x):
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense layer expects (batch, {self.in_dim}), got {x.data.shape}")

    def backprop(self, x, g):
        """Accumulate dW = x.T @ g, db = sum_rows(g) and dx = g @ W.T, given
        g = dL/d(x @ W + b).

        dx multiplies by a contiguous copy of W.T, which is faster; for one
        unit W.T is already contiguous, and the k = 1 product gives the same
        bytes as g * W[:, 0] in a fraction of its time. dx is handed to
        ``x`` without a copy."""
        w = self.weights
        w._accum(x.data.T.dot(g))
        self.bias._accum(_column_sums(g))
        if x.requires_grad:
            x._accum(g.dot(np.ascontiguousarray(w.data.T)), owned=True)

    def parameters(self):
        return [p for p in (self.weights, self.bias) if p is not None]


class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Normalizes by the batch mean and (biased) variance plus ``eps`` and
    updates the running statistics with ``momentum``. ``FrozenNet`` folds the
    running statistics into the dense layer in front for eval mode.

    The running statistics are updated in place and are write-through:
    assigning an array to ``running_mean`` or ``running_var`` copies its
    values into the array already there (ShapeError on a shape mismatch),
    so a buffer that holds them as views (``keep_stats_in``) stays current.
    """

    momentum = 0.9
    eps = 1e-5

    def __init__(self, num_features):
        self.num_features = num_features
        self.scale = Parameter(np.ones(num_features))
        self.shift = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def __setattr__(self, name, value):
        if name in ("running_mean", "running_var") and name in self.__dict__:
            write_through(self.__dict__[name], value, name)
        else:
            object.__setattr__(self, name, value)

    def keep_stats_in(self, buffer):
        """Move the running statistics into ``buffer``, a float64 vector of
        2 * num_features: ``running_mean`` and ``running_var`` become views
        of its two halves."""
        n = self.num_features
        buffer[:n], buffer[n:] = self.running_mean, self.running_var
        self.__dict__.update(running_mean=buffer[:n], running_var=buffer[n:])

    def __call__(self, x):
        """Normalize ``x`` as one node (see ``train_normalize``)."""
        y, backprop = self.train_normalize(x.data.copy())

        def backward(gy):
            d, r, a, gscale, gshift = backprop(gy)
            if x.requires_grad:
                x._accum((d - r) * a, owned=True)
            self._accum(gscale, gshift)

        return Tensor._op(y, (x, self.scale, self.shift), backward)

    def train_normalize(self, z):
        """``(y, backprop)`` of batchnorm on the array ``z``, which it
        centers in place to zc: y = zc * a + shift, a = scale / std by the
        biased batch moments. ``backprop(gy)`` gives ``(d, r, a, dL/dscale,
        dL/dshift)``: dL/dz = a * (d - r), with d = gy - zc * dL/dscale /
        (m std) and r = dL/dshift / m."""
        inv_m = self._inv_batch(z.shape)
        mean = _column_sums(z) * inv_m
        z -= mean
        var = _column_sums(z * z) * inv_m
        inv_std = self._train_moments(mean, var)
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

    def _inv_batch(self, shape):
        """1 / m for a train-mode batch of ``shape`` (m, num_features)."""
        if len(shape) != 2 or shape[1] != self.num_features:
            raise ShapeError(f"batchnorm expects {self.num_features} "
                             f"features, got {shape}")
        if shape[0] < 2:
            raise ContractError("batchnorm requires batch >= 2")
        return 1.0 / shape[0]

    def _train_moments(self, mean, var):
        """Fold a batch's mean and biased variance into the running
        statistics, in place: stat * momentum + (1 - momentum) * batch, the
        same products and sum as a new array would take. Returns
        1 / std = 1 / sqrt(var + eps)."""
        m, running_mean, running_var = (self.momentum, self.running_mean,
                                        self.running_var)
        running_mean *= m
        running_mean += (1.0 - m) * mean
        running_var *= m
        running_var += (1.0 - m) * var
        return 1.0 / np.sqrt(var + self.eps)

    def _accum(self, gscale, gshift):
        self.scale._accum(gscale)
        self.shift._accum(gshift)

    def parameters(self):
        return [self.scale, self.shift]

    def running_stats(self):
        return [self.running_mean, self.running_var]


def dropout_mask(rng, shape, rate):
    """Inverted dropout's mask of ``shape``: a unit survives where
    ``rng.random`` draws at least ``rate`` and is scaled by 1/(1-rate), so
    the expected output is the input. ``DropoutLayer`` and MC-dropout
    (``FrozenNet.dropout_f``) both draw it."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


class DropoutLayer:
    """Inverted dropout (``dropout_mask``), so eval mode (``FrozenNet``) has
    no dropout at all. Always active (``_Block`` builds none at rate 0)."""

    def __init__(self, rate):
        drop_rate(rate, "rate")
        self.rate = rate

    def __call__(self, x, rng=None):
        if rng is None:
            raise ContractError("active dropout requires an rng")
        return x * Tensor(dropout_mask(rng, x.data.shape, self.rate))


def dense_bn_relu(x, dense, bn):
    """relu(bn(dense(x))) as one node with closed-form backward.

    The forward values are those of the three layers applied in turn, and
    the relu pre-activations are reported to ``watch_kink_margins``.

    ``dense`` has no bias, which the batch mean would cancel. The batch
    moments and the gradients are taken in the narrower of the block's two
    spaces. A widening block (``in_dim < out_dim``) works on x, from its
    centered copy xc and covariance C (``_input_space_block``); any other
    block normalizes z = x @ W with ``train_normalize``
    (``_output_space_block``)."""
    if dense.in_dim < dense.out_dim:
        out, backprop = _input_space_block(x, dense, bn)
    else:
        out, backprop = _output_space_block(x, dense, bn)
    note_kink_margin(out)
    np.maximum(out, 0.0, out=out)

    return Tensor._op(out, (x, dense.weights, bn.scale, bn.shift),
                      lambda g: backprop(g * (out > 0.0)))


def _output_space_block(x, dense, bn):
    """``(pre, backprop)`` of the block by z = x @ W: ``train_normalize``'s
    a and r go to small arrays, dW = (x.T @ d - colsum(x) (x) r) * a and
    dx = (d - r) @ (W * a).T. ``backprop(gy)`` takes gy = dL/d(relu input)."""
    pre, bn_backprop = bn.train_normalize(dense.affine(x))

    def backprop(gy):
        d, r, a, gscale, gshift = bn_backprop(gy)
        w = dense.weights
        xr = _column_sums(x.data)[:, None] * r
        w._accum((x.data.T.dot(d) - xr) * a)
        if x.requires_grad:
            x._accum((d - r).dot(np.ascontiguousarray((w.data * a).T)),
                     owned=True)
        bn._accum(gscale, gshift)

    return pre, backprop


def _input_space_block(x, dense, bn):
    """``(pre, backprop)`` of the block from x's batch moments, for a block
    wider than its input; m rows, mu = colsum(x) / m, xc = x - mu and
    C = xc.T @ xc / m.

    z's batch mean is mu @ W and its variance colsum(C W * W), so
    pre = xc @ (W * a) + shift with a = scale / std. With gy = dL/dpre and
    P = xc.T @ gy, the one batch-wide product of the backward,
    dL/dscale = colsum(P * W) / std, c = dL/dscale / (m std) and
    r = dL/dshift / m: dW = (P - m C W * c) * a and
    dx = gy @ (W a).T - xc @ ((W c) (W a).T) - r @ (W a).T."""
    dense._check_input(x)
    w, xd = dense.weights.data, x.data
    inv_m = bn._inv_batch((xd.shape[0], dense.out_dim))
    mu = _column_sums(xd) * inv_m
    xc = xd - mu
    xtx_w = xc.T.dot(xc).dot(w)  # m C W
    # C's roundoff can take a zero variance below 0, as for two collinear
    # columns whose weights cancel
    var = np.maximum(_column_sums(xtx_w * w) * inv_m, 0.0)
    inv_std = bn._train_moments(mu.dot(w), var)
    a = bn.scale.data * inv_std
    wa = w * a
    pre = xc.dot(wa)
    pre += bn.shift.data

    def backprop(gy):
        gshift = _column_sums(gy)
        p = xc.T.dot(gy)
        gscale = _column_sums(p * w) * inv_std
        c = gscale * (inv_std * inv_m)
        dense.weights._accum((p - xtx_w * c) * a, owned=True)
        if x.requires_grad:
            wa_t = np.ascontiguousarray(wa.T)
            dx = gy.dot(wa_t)
            dx -= xc.dot((w * c).dot(wa_t)) + (gshift * inv_m).dot(wa_t)
            x._accum(dx, owned=True)
        bn._accum(gscale, gshift)

    return pre, backprop


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

    One node with the softmax Jacobian as backward. Training does not use
    it: cross-entropy takes the logits (``losses.task_loss``).
    """
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ShapeError(
            f"softmax expects (batch, classes>=2), got {logits.data.shape}")
    if not np.isfinite(logits.data).all():
        raise DomainError("softmax requires finite logits")
    p = softmax_rows(logits.data)[0]

    def backward(g):
        logits._accum(p * (g - (g * p).sum(axis=1, keepdims=True)))

    return Tensor._op(p, (logits,), backward)


def softmax_rows(logits):
    """Row softmax of the 2-D array ``logits``; returns ``(p, shifted,
    row_sums)`` with ``shifted`` the logits minus each row's max and
    ``p = exp(shifted) / row_sums``.

    The row max and the row sums are those of ``max(axis=1)`` and
    ``sum(axis=1)``, bit for bit (see ``_row_reduce``).
    """
    shifted = logits - _row_reduce(np.maximum, logits)
    p = np.exp(shifted)
    row_sums = _row_reduce(np.add, p)
    p /= row_sums
    return p, shifted, row_sums


# Rows narrower than this are reduced by a column fold. numpy adds a row of
# fewer than 8 values left to right, as the fold does; from 8 values on it
# sums in blocks, and one call per column would cost more than it saves.
_FOLD_COLUMNS = 8


def _row_reduce(ufunc, a):
    """``ufunc.reduce(a, axis=1, keepdims=True)`` of the 2-D array ``a``.

    Below ``_FOLD_COLUMNS`` columns it is an elementwise fold over the
    columns, ((a0 op a1) op a2) ..., with the same bits as the reduction
    for ``np.maximum`` and ``np.add`` and several times faster on the few
    columns of a class-logit matrix.
    """
    if a.shape[1] < _FOLD_COLUMNS:
        return functools.reduce(ufunc, a.T)[:, None]
    return ufunc.reduce(a, axis=1, keepdims=True)
