"""Unfused tape operations and compositions that only the tests use.

They serve as oracles: the tests build the same functions as the fused
nodes of ``selpred`` from these elementwise operations, and check the
engine's backward rules on them against central differences.
``ref_forward`` composes a whole model from them, in train mode for the
fused training graph and in eval mode for the frozen inference path.
"""

import numpy as np

from selpred.autograd import (
    Tensor,
    _as_tensor,
    _check_axis,
    _check_nonempty,
    _restore_dims,
    _unary,
    relu,
    sigmoid,
)
from selpred.checks import CLASSIFICATION, DomainError, ShapeError
from selpred.layers import TRAIN


def matmul(a, b):
    """2-D matrix product with dA = g @ B.T and dB = A.T @ g."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul requires (m,k) x (k,n), got {a.data.shape} and {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._op(out_data, (a, b), backward)


def reshape(x, *shape):
    """``x``'s values in ``shape``; the gradient takes x's shape back."""
    old = x.data.shape

    def backward(g):
        x._accum(g.reshape(old))

    return Tensor._op(x.data.reshape(*shape), (x,), backward)


def exp(x):
    return _unary(x, np.exp, lambda d, o, g: g * o)


def log(x):
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    return _unary(x, np.log, lambda d, o, g: g / d)


def sqrt(x):
    x = _as_tensor(x)
    if np.any(x.data < 0.0):
        raise DomainError("sqrt requires non-negative input")
    return _unary(x, np.sqrt, lambda d, o, g: g * 0.5 / o)


def tensor_max(x, axis=None, keepdims=False):
    """Max reduction; ties share the gradient equally."""
    _check_axis(x, axis)
    _check_nonempty(x, "max")
    out_data = x.data.max(axis=axis, keepdims=keepdims)

    def backward(g):
        full = _restore_dims(g, x.data.shape, axis, keepdims)
        peak = _restore_dims(out_data, x.data.shape, axis, keepdims)
        mask = (x.data == peak)
        ties = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        x._accum(mask * full / ties)

    return Tensor._op(out_data, (x,), backward)


def abs_sigmoid(t):
    """``stable_sigmoid`` in its exp(-|t|) form, which the one-ufunc
    exp(copysign(t, -1)) form must match bit for bit."""
    e = np.exp(-np.abs(t))
    return np.maximum(e, t >= 0.0) / (1.0 + e)


def ref_dense(x, w, b):
    """x @ w + b, or x @ w for a layer without bias (``b`` None)."""
    z = matmul(x, w)
    return z if b is None else z + b


def ref_batchnorm(z, bn, mode):
    """Batchnorm of ``z`` by the biased batch moments in ``TRAIN`` mode,
    else by ``bn``'s running statistics; the running statistics are read,
    never updated."""
    if mode == TRAIN:
        mean = z.mean(axis=0)
        centered = z - mean
        var = (centered * centered).mean(axis=0)
        return centered / sqrt(var + bn.eps) * bn.scale + bn.shift
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    return (z - Tensor(bn.running_mean)) * Tensor(inv) * bn.scale + bn.shift


def ref_softmax(z):
    shifted = z - Tensor(z.data.max(axis=1, keepdims=True))
    e = exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_major_softmax(logits):
    """``(p, shifted, row_sums)`` of the (m, k) array ``logits`` by numpy's
    row reductions, each (m, k) or (m, 1): the row-major formula whose
    values ``layers.softmax_rows`` keeps bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    row_sums = p.sum(axis=1, keepdims=True)
    p /= row_sums
    return p, shifted, row_sums


def row_major_cross_entropy(logits, labels, g):
    """``(losses, dL/dlogits)`` of per-row cross-entropy on the (m, k)
    array ``logits``, written row-major from ``row_major_softmax``: each
    row's log row sum minus its label's shifted logit, and
    (p - onehot) * g[:, None] for the upstream gradient ``g``."""
    p, shifted, row_sums = row_major_softmax(logits)
    rows = np.arange(len(logits))
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad *= g[:, None]
    return np.log(row_sums[:, 0]) - shifted[rows, labels], grad


def ref_forward(model, x, mode, dropout=None):
    """``(f, g, h)`` of ``model`` on the rows of ``x``, from unfused
    operations on its parameters: f and h as class logits or regression
    outputs, g as selection scores in [0, 1]. g and h are None for the
    baseline twin. ``dropout``, if given, maps the output of each body
    block."""
    def hidden(rep, dense, bn):
        z = ref_dense(rep, dense.weights, dense.bias)
        return relu(ref_batchnorm(z, bn, mode))

    def head(layer, rep):
        z = ref_dense(rep, layer.weights, layer.bias)
        return z if model.config.task == CLASSIFICATION else reshape(z, -1)

    rep = Tensor(x)
    for block in model.body:
        rep = hidden(rep, block.dense, block.bn)
        if dropout is not None:
            rep = dropout(rep)
    if not model.selective:
        return head(model.f_head, rep), None, None
    g = hidden(rep, model.g_block.dense, model.g_block.bn)
    g = reshape(sigmoid(ref_dense(g, model.g_out.weights, model.g_out.bias)),
                -1)
    return head(model.f_head, rep), g, head(model.h_head, rep)
