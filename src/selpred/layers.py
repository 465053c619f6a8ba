"""Stateful network layers: dense, batch normalization, dropout, softmax.

Dense and batchnorm layers carry their parameters as ``Parameter`` leaves
and expose a ``parameters()`` list in declaration order; the order is relied
upon by the optimizer and by checkpoint serialization.

These layers build the training graph only: batchnorm normalizes by the
batch moments and updates its running statistics, and dropout always
draws its mask. Eval mode has one implementation,
``SelectiveNet.freeze()``, which folds the running statistics into the dense
weights. ``TRAIN`` and ``EVAL`` name the modes of ``SelectiveNet.forward``.

Each block's math is written once, on arrays: ``DenseLayer.affine`` and
``DenseLayer.backprop``, ``dense_bn_relu_arrays`` (a whole hidden block
dense -> batchnorm -> relu with batchnorm's closed-form backward, Ioffe &
Szegedy 2015) and ``dense_sigmoid_arrays`` (g's one-unit output dense ->
sigmoid -> flatten). Training runs them inside one network node
(``SelectiveNet.forward`` in ``TRAIN`` mode), which with the five loss
nodes makes the whole training graph. The per-layer nodes are thin tape
wrappers over the same forms: ``DenseLayer.__call__``, ``dense_bn_relu``
and ``dense_sigmoid``, with batchnorm, dropout and softmax (which
training never builds: cross-entropy takes logits) each one node too.
The tests compose them as the network node's reference, and the
benchmark's spans wrap some of them.

A hidden block takes batchnorm's batch moments and its gradients in the
narrower of its two spaces, chosen by width alone: a widening block (in <
width, as on both benchmark bodies) from x's mean and covariance, any
other from z = x @ W through
``BatchNormLayer.train_normalize``; the input-space form measured slower on
a narrowing block. Either way batchnorm's per-feature vectors fold into
the (in, width) weights, saving passes over the batch. The block's dense
layer has no bias, which the batch mean would cancel.

Every product here and in ``FrozenNet`` is an ``ndarray.dot`` call, the
same BLAS call as ``@`` at less fixed cost, and a node hands a gradient
array it allocated to ``Tensor._accum`` without a defensive copy.

``softmax_rows`` is the one softmax: the cross-entropy node
(``losses.task_loss``), the ``softmax`` node and every eval caller
(``forward`` in ``EVAL`` mode, MC-dropout, softmax response) take their
probabilities from it, the eval callers as the (rows, classes) transposed
view of its class-major (classes, rows) result. The head products that
feed it stay row-major, since a transposed product changes BLAS's result
bits.
"""

from __future__ import annotations

import numpy as np

from .autograd import (
    Parameter,
    Tensor,
    _ONE,
    _ZERO,
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
    "dense_bn_relu_arrays",
    "dense_sigmoid",
    "dense_sigmoid_arrays",
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
        """x @ W + b as one node over ``affine`` and ``backprop``."""
        return _node(x, self.affine(x.data), (self.weights, self.bias),
                     lambda g: self.backprop(x.data, g, x.requires_grad))

    def affine(self, x):
        """x @ W + b (x @ W without a bias) for the array ``x``, new."""
        self._check_input(x)
        z = x.dot(self.weights.data)
        if self.bias is not None:
            z += self.bias.data
        return z

    def _check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense layer expects (batch, {self.in_dim}), got {x.shape}")

    def backprop(self, x, g, need_dx=True):
        """Accumulate dW = x.T @ g and db = sum_rows(g), given the input
        array x and g = dL/d(x @ W + b); return dx = g @ W.T, a new array,
        or None unless ``need_dx``.

        dx multiplies by a contiguous copy of W.T, which is faster; for one
        unit W.T is already contiguous, and the k = 1 product gives the same
        bytes as g * W[:, 0] in a fraction of its time."""
        w = self.weights
        w._accum(x.T.dot(g))
        self.bias._accum(_column_sums(g))
        if need_dx:
            return g.dot(np.ascontiguousarray(w.data.T))
        return None

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
    # the same values as 0-d float64 arrays, which numpy applies to an
    # array faster than Python floats
    _m, _1m, _eps = np.array(momentum), np.array(1.0 - momentum), np.array(eps)

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
        """1 / m for a train-mode batch of ``shape`` (m, num_features), as
        a 0-d float64 array."""
        if len(shape) != 2 or shape[1] != self.num_features:
            raise ShapeError(f"batchnorm expects {self.num_features} "
                             f"features, got {shape}")
        if shape[0] < 2:
            raise ContractError("batchnorm requires batch >= 2")
        return np.array(1.0 / shape[0])

    def _train_moments(self, mean, var):
        """Fold a batch's mean and biased variance into the running
        statistics, in place: stat * momentum + (1 - momentum) * batch, the
        same products and sum as a new array would take. Returns
        1 / std = 1 / sqrt(var + eps)."""
        m, m1, running_mean, running_var = (self._m, self._1m,
                                            self.running_mean,
                                            self.running_var)
        running_mean *= m
        running_mean += m1 * mean
        running_var *= m
        running_var += m1 * var
        return _ONE / np.sqrt(var + self._eps)

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
        return x * Tensor(self.mask(rng, x.data.shape))

    def mask(self, rng, shape):
        """This layer's ``dropout_mask`` of ``shape``, drawn from ``rng``;
        ContractError without one."""
        if rng is None:
            raise ContractError("active dropout requires an rng")
        return dropout_mask(rng, shape, self.rate)


def _node(x, out, params, backprop):
    """``out`` as one node over the input ``x`` and ``params``. Its
    backward runs ``backprop(g)``, an array form built with need_dx =
    ``x.requires_grad``, and hands the dx it returns to ``x``."""
    def backward(g):
        dx = backprop(g)
        if dx is not None:
            x._accum(dx, owned=True)

    return Tensor._op(out, (x, *params), backward)


def dense_bn_relu(x, dense, bn):
    """relu(bn(dense(x))) as one node over ``dense_bn_relu_arrays``."""
    out, backprop = dense_bn_relu_arrays(x.data, dense, bn, x.requires_grad)
    return _node(x, out, (dense.weights, bn.scale, bn.shift), backprop)


def dense_bn_relu_arrays(x, dense, bn, need_dx=True):
    """``(out, backprop)`` of relu(bn(dense(x))) on the array ``x``, with a
    closed-form backward: ``backprop(g)``, given g = dL/dout, accumulates
    the block's parameter gradients and returns dL/dx (None unless
    ``need_dx``).

    The forward values are those of the three layers applied in turn, and
    the relu pre-activations are reported to ``watch_kink_margins``.

    ``dense`` has no bias, which the batch mean would cancel. The batch
    moments and the gradients are taken in the narrower of the block's two
    spaces. A widening block (``in_dim < out_dim``) works on x, from its
    centered copy xc and covariance C (``_input_space_block``); any other
    block normalizes z = x @ W with ``train_normalize``
    (``_output_space_block``)."""
    if dense.in_dim < dense.out_dim:
        out, backprop = _input_space_block(x, dense, bn, need_dx)
    else:
        out, backprop = _output_space_block(x, dense, bn, need_dx)
    note_kink_margin(out)
    np.maximum(out, _ZERO, out=out)
    return out, lambda g: backprop(g * (out > _ZERO))


def _output_space_block(x, dense, bn, need_dx):
    """``(pre, backprop)`` of the block by z = x @ W: ``train_normalize``'s
    a and r go to small arrays, dW = (x.T @ d - colsum(x) (x) r) * a and
    dx = (d - r) @ (W * a).T. ``backprop(gy)`` takes gy = dL/d(relu input)
    and returns dx, or None unless ``need_dx``."""
    pre, bn_backprop = bn.train_normalize(dense.affine(x))

    def backprop(gy):
        d, r, a, gscale, gshift = bn_backprop(gy)
        w = dense.weights
        xr = _column_sums(x)[:, None] * r
        w._accum((x.T.dot(d) - xr) * a)
        bn._accum(gscale, gshift)
        if need_dx:
            return (d - r).dot(np.ascontiguousarray((w.data * a).T))
        return None

    return pre, backprop


def _input_space_block(x, dense, bn, need_dx):
    """``(pre, backprop)`` of the block from x's batch moments, for a block
    wider than its input; m rows, mu = colsum(x) / m, xc = x - mu and
    C = xc.T @ xc / m.

    z's batch mean is mu @ W and its variance colsum(C W * W), so
    pre = xc @ (W * a) + shift with a = scale / std. With gy = dL/dpre and
    P = xc.T @ gy, the one batch-wide product of the backward,
    dL/dscale = colsum(P * W) / std, c = dL/dscale / (m std) and
    r = dL/dshift / m: dW = (P - m C W * c) * a and
    dx = gy @ (W a).T - xc @ ((W c) (W a).T) - r @ (W a).T, returned
    unless ``need_dx`` is false (then None)."""
    dense._check_input(x)
    w = dense.weights.data
    inv_m = bn._inv_batch((x.shape[0], dense.out_dim))
    mu = _column_sums(x) * inv_m
    xc = x - mu
    xtx_w = xc.T.dot(xc).dot(w)  # m C W
    # C's roundoff can take a zero variance below 0, as for two collinear
    # columns whose weights cancel
    var = np.maximum(_column_sums(xtx_w * w) * inv_m, _ZERO)
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
        bn._accum(gscale, gshift)
        if need_dx:
            wa_t = np.ascontiguousarray(wa.T)
            dx = gy.dot(wa_t)
            dx -= xc.dot((w * c).dot(wa_t)) + (gshift * inv_m).dot(wa_t)
            return dx
        return None

    return pre, backprop


def dense_sigmoid(x, dense):
    """sigmoid(dense(x)).reshape(-1) for a one-unit ``dense``, as one node
    over ``dense_sigmoid_arrays``."""
    s, backprop = dense_sigmoid_arrays(x.data, dense, x.requires_grad)
    return _node(x, s, (dense.weights, dense.bias), backprop)


def dense_sigmoid_arrays(x, dense, need_dx=True):
    """``(s, backprop)`` of sigmoid(dense(x)).reshape(-1) for a one-unit
    ``dense`` on the array ``x``: s has one value per row, and
    ``backprop(g)``, given g = dL/ds, accumulates the layer's gradients
    with dL/dz = g * s * (1 - s) and returns dL/dx (None unless
    ``need_dx``). The values and gradients are those of the three nodes
    dense, sigmoid and reshape in turn."""
    s = stable_sigmoid(dense.affine(x))
    return s.reshape(-1), lambda g: dense.backprop(
        x, g[:, None] * s * (_ONE - s), need_dx)


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
    p = softmax_rows(logits.data)[0].T

    def backward(g):
        logits._accum(p * (g - (g * p).sum(axis=1, keepdims=True)))

    return Tensor._op(p, (logits,), backward)


# numpy sums a row of at least this many values pairwise, in blocks of 8
_PAIRWISE_CLASSES = 8


def softmax_rows(logits):
    """Row softmax of the (m, k) array ``logits``, computed class-major:
    returns ``(p, shifted, row_sums)`` with ``p`` and ``shifted`` new
    contiguous (k, m) arrays and ``row_sums`` of length m. ``shifted`` is
    the logits minus each row's max and ``p = exp(shifted) / row_sums``, so
    ``p.T`` is the (m, k) softmax.

    The logits are copied once, transposed, so the max, the shift, ``exp``,
    the sums and the normalization run over length-m rows (one class
    each) rather than broadcasting (m, 1) columns. The values are those of
    the row-major ``max(axis=1)`` and ``sum(axis=1)``, bit for bit: a max
    is exact in any order, and numpy adds a row of fewer than
    ``_PAIRWISE_CLASSES`` values left to right, as the class-major
    reduction does. From that many classes on numpy sums a row in pairwise
    blocks, so those rows are summed from a row-major copy of exp(shifted).
    """
    shifted = logits.T.copy()
    shifted -= np.maximum.reduce(shifted, axis=0)
    p = np.exp(shifted)
    if len(p) < _PAIRWISE_CLASSES:
        row_sums = np.add.reduce(p, axis=0)
    else:
        row_sums = np.add.reduce(p.T.copy(), axis=1)
    p /= row_sums
    return p, shifted, row_sums
