"""Unfused tape operations that only the tests use.

They serve as oracles: the tests build the same functions as the fused
nodes of ``selpred`` from these elementwise operations, and check the
engine's backward rules on them against central differences.
"""

import numpy as np

from selpred.autograd import (
    DomainError,
    ShapeError,
    Tensor,
    _as_tensor,
    _check_axis,
    _check_nonempty,
    _restore_dims,
    _unary,
)


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
