"""Dense float64 arrays with reverse-mode automatic differentiation.

Small tape-based engine, just enough for multilayer perceptrons and the
coverage-penalized selective objective. Every operation records a backward
closure on the participating tensors; ``Tensor.backward()`` walks the tape
in reverse topological order and accumulates gradients into the leaves.

The elementwise operations here are the general-purpose building blocks.
The training path uses a few fused nodes instead (``layers`` and
``losses``), each with a closed-form backward, and keeps a model's
parameters in one ``Parameters`` buffer so an optimizer step is a single
vectorized update. The ops that only the tests use as unfused oracles
(``exp``, ``log``, ``sqrt``, ``matmul``, ``reshape``, a max reduction) live
in ``tests/oracles.py``, with ``ref_forward``, a whole model built of them.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .checks import (ConfigurationError, DomainError, SelpredError,
                     ShapeError, real)

__all__ = [
    "Tensor",
    "Parameter",
    "Parameters",
    "GradCheckError",
    "no_grad",
    "relu",
    "sigmoid",
    "stable_sigmoid",
    "zero_grads",
    "finite_difference_check",
]


class GradCheckError(SelpredError, RuntimeError):
    """The finite-difference oracle cannot be applied (e.g. non-deterministic fn)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (eval/inference speed-up)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array in the gradient tape. A leaf is a constant; an
    op's output takes gradients when a parent does (see ``Parameter``)."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = False
        self.grad = None
        self._parents = ()
        self._backward = None
        self._consumed = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _op(data, parents, backward):
        """Build a non-leaf tensor; skips tape recording when grads are off."""
        out = Tensor(data)
        if _grad_enabled:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    break
        return out

    def item(self):
        return float(self.data)

    def _accum(self, g, owned=False):
        """Add ``g`` (already shaped like ``data``) into ``grad`` in place.

        A first gradient is copied, since ``g`` may be shared with another
        tensor (the elementwise ops send one ``g`` to both operands) or be a
        view of one (``broadcast_to``). A node that allocated
        the float64 array ``g`` for this call alone and keeps no reference
        to it passes ``owned=True``: the array becomes ``grad`` without the
        copy, and later gradients are added into it."""
        grad = self.grad  # added through a local: no attribute store
        if grad is None:
            self.grad = g if owned else np.array(g, dtype=np.float64)
        else:
            grad += g

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, np.add, lambda a, b, g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, lambda a, b, g: (g, -g))

    def __rsub__(self, other):
        return _as_tensor(other) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply,
                       lambda a, b, g: (g * b.data, g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide,
                       lambda a, b, g: (g / b.data,
                                        -g * a.data / (b.data * b.data)))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        _check_axis(self, axis)
        _check_nonempty(self, "sum")
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            self._accum(np.broadcast_to(_restore_dims(g, self.data.shape, axis, keepdims),
                                        self.data.shape))

        return Tensor._op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        """Sum times 1/count, as one node."""
        _check_axis(self, axis)
        _check_nonempty(self, "mean")
        scale = 1.0 / (self.data.size if axis is None else self.data.shape[axis])
        out_data = self.data.sum(axis=axis, keepdims=keepdims) * scale

        def backward(g):
            if axis is None:
                self._accum(np.full(self.data.shape, g * scale), owned=True)
            else:
                self._accum(np.broadcast_to(
                    _restore_dims(g * scale, self.data.shape, axis, keepdims),
                    self.data.shape))

        return Tensor._op(out_data, (self,), backward)

    # -- backward pass --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every ``Parameter`` leaf.

        ``self`` must be scalar. A second backward from the same root without
        re-running the forward pass is rejected.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward root must be scalar, got shape {self.data.shape}")
        if self._consumed:
            raise RuntimeError(
                "backward already ran from this tensor; re-run the forward pass")
        self._consumed = True

        # Reverse topological order of the nodes that have a backward rule.
        # Leaves only receive gradients, so they are never pushed; skipping
        # them leaves the order of every other node unchanged.
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and p not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient over axes that were expanded by numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _binary(a, b, fwd, grads):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"shapes {a.data.shape} and {b.data.shape} are not broadcast-compatible")
    out_data = fwd(a.data, b.data)

    def backward(g):
        ga, gb = grads(a, b, g)
        if a.requires_grad:
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(gb, b.data.shape))

    return Tensor._op(out_data, (a, b), backward)


def _unary(x, fwd, grad):
    x = _as_tensor(x)
    out_data = fwd(x.data)

    def backward(g):
        x._accum(grad(x.data, out_data, g))

    return Tensor._op(out_data, (x,), backward)


def _check_axis(t, axis):
    if axis is not None and not (-t.data.ndim <= axis < t.data.ndim):
        raise ShapeError(f"axis {axis} out of range for rank {t.data.ndim}")


def _check_nonempty(t, opname):
    if t.data.size == 0:
        raise DomainError(f"{opname} of an empty tensor is undefined")


def _restore_dims(g, shape, axis, keepdims):
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape) if axis is not None else g


# -- named operations ---------------------------------------------------------


# When set (via watch_kink_margins), collects min |input| of every relu
# evaluation, fused ones included, so gradient checks can verify the function
# is differentiable at the probe point (central differences are invalid
# across the kink).
_kink_watch = None


@contextlib.contextmanager
def watch_kink_margins():
    global _kink_watch
    prev = _kink_watch
    _kink_watch = []
    try:
        yield _kink_watch
    finally:
        _kink_watch = prev


def note_kink_margin(pre):
    """Report the relu pre-activations ``pre`` to an active
    ``watch_kink_margins`` block; a no-op outside one."""
    if _kink_watch is not None and pre.size:
        _kink_watch.append(float(np.min(np.abs(pre))))


def relu(x):
    x = _as_tensor(x)
    note_kink_margin(x.data)
    return _unary(x, lambda d: np.maximum(d, 0.0),
                  lambda d, o, g: g * (d > 0.0))


# 0-d float64 constants of ``stable_sigmoid``, the relu and sigmoid of the
# training blocks and the frozen net's relu: numpy dispatches them faster
# than Python floats.
_MINUS_ONE, _ZERO, _ONE = np.array(-1.0), np.array(0.0), np.array(1.0)


def stable_sigmoid(t):
    """Logistic function of the float64 array ``t`` without overflow, for
    the tape's ``sigmoid`` and ``FrozenNet`` alike: with e = exp(-|t|),
    1/(1+e) where t >= 0 and e/(1+e) elsewhere, which are 1/(1+e^-t) and
    e^t/(1+e^t).

    The numerator is max(e, t >= 0): 1 where t >= 0, since e <= 1, and e
    elsewhere, since e >= 0; NaN stays NaN. It is the same array as
    ``np.where(t >= 0, 1, e)`` from a cheaper call. ``copysign(t, -1)`` is
    -|t| in one ufunc, bit for bit (signed zeros, infinities and NaNs
    included).

    The constants -1, 0 and 1 are 0-d float64 arrays, so under numpy's
    promotion rules (NEP 50) a float32 ``t`` gives a float64 result, where
    Python float constants kept float32. Every caller in ``selpred`` passes
    float64."""
    e = np.exp(np.copysign(t, _MINUS_ONE))
    return np.maximum(e, t >= _ZERO) / (_ONE + e)


def sigmoid(x):
    return _unary(x, stable_sigmoid, lambda d, o, g: g * o * (1.0 - o))


class Parameters(tuple):
    """``Parameter`` leaves whose ``data`` and ``grad`` are views of two
    contiguous float64 buffers, ``self.data`` and ``self.grad``, in member
    order.

    Building one moves the members' values and gradients into the buffers;
    from then on an in-place update of a buffer is an update of every
    member, which lets an optimizer step be one vectorized operation.

    A held member's ``data`` and ``grad`` stay its views for good:
    assigning to either copies into the view, so the two buffers always
    hold every member's state. Each member must be a ``Parameter``
    (TypeError), held by no other ``Parameters`` and listed once
    (ValueError), with no ``grad`` or one of its tensor's shape
    (ShapeError); a violation raises before any member is touched.
    """

    def __init__(self, tensors):
        for p in self:
            if not isinstance(p, Parameter):
                raise TypeError(f"a Parameters holds Parameter leaves, "
                                f"got {type(p).__name__}")
            if p._held:
                raise ValueError("a tensor is already held by a Parameters")
            if p.grad is not None and np.shape(p.grad) != p.data.shape:
                raise ShapeError(f"grad shape {np.shape(p.grad)} does not "
                                 f"match {p.data.shape}")
        if len({id(p) for p in self}) != len(self):
            raise ValueError("a tensor is listed twice")
        self.data = np.concatenate(
            [p.data.reshape(-1) for p in self] or [np.zeros(0)])
        self.grad = np.zeros_like(self.data)
        store = object.__setattr__
        offset = 0
        for p in self:
            shape, end = p.data.shape, offset + p.data.size
            grad = self.grad[offset:end].reshape(shape)
            if p.grad is not None:
                grad[...] = p.grad
            store(p, "data", self.data[offset:end].reshape(shape))
            store(p, "grad", grad)
            store(p, "_held", True)
            offset = end


class Parameter(Tensor):
    """A trainable leaf: it always takes gradients, and its
    ``requires_grad`` is read-only (AttributeError on assignment). Once a
    ``Parameters`` holds it, its ``data`` and ``grad`` are views of the
    buffers, and an assignment to either copies into the view instead of
    rebinding it: an array is copied (ShapeError on a shape mismatch), and
    ``grad = None`` zeroes the view. Training stores no attribute on a
    parameter, so the hook costs a step nothing. Building a leaf and
    putting it into a ``Parameters`` run the hook no time."""

    _held = False  # set once a Parameters holds it
    requires_grad = property(lambda self: True)

    def __init__(self, data):
        # Tensor.__init__'s other stores, in its order, past the hook: until
        # a Parameters holds the leaf there is nothing to write through.
        store = object.__setattr__
        store(self, "data", np.asarray(data, dtype=np.float64))
        store(self, "grad", None)
        store(self, "_parents", ())
        store(self, "_backward", None)
        store(self, "_consumed", False)

    def __setattr__(self, name, value):
        if not (self._held and name in ("data", "grad")):
            object.__setattr__(self, name, value)
        elif value is None and name == "grad":
            self.grad.fill(0.0)
        else:
            write_through(getattr(self, name), value, name)


def write_through(array, value, name):
    """Copy ``value`` into ``array`` unless it is ``array`` itself: an
    assignment to the attribute ``name`` that keeps its array. ShapeError
    on a shape mismatch."""
    if value is not array:
        if np.shape(value) != array.shape:
            raise ShapeError(f"{name} shape {np.shape(value)} does not "
                             f"match {array.shape}")
        array[...] = value


def zero_grads(params):
    """Reset gradients before a backward pass: a ``Parameters`` buffer is
    zeroed in place. A list of parameters has each ``grad`` set to None,
    which zeroes a held one's view and drops an unheld one's array."""
    if isinstance(params, Parameters):
        params.grad.fill(0.0)
        return
    for p in params:
        p.grad = None


def finite_difference_check(scalar_fn, params, h=1e-5, floor=1e-8):
    """Compare analytic gradients of ``scalar_fn()`` against central differences.

    ``scalar_fn`` must be a deterministic zero-argument callable returning a
    scalar Tensor built from ``params``. Returns the worst relative error
    |analytic - numeric| / max(|analytic|, |numeric|) over every parameter
    coordinate, with an absolute floor: differences below ``floor`` count as
    exact agreement (they are indistinguishable from central-difference
    roundoff noise); a non-finite one gives inf. ``h`` must be a real > 0
    and ``floor`` a real.
    """
    h, floor = real(h, "h"), real(floor, "floor")
    if h <= 0:
        raise ConfigurationError(f"step h must be positive, got {h}")
    v1 = float(scalar_fn().data)
    v2 = float(scalar_fn().data)
    if v1 != v2:
        raise GradCheckError(
            f"scalar_fn is not deterministic ({v1!r} != {v2!r})")

    zero_grads(params)
    out = scalar_fn()
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(scalar_fn().data)
            flat[i] = orig - h
            fm = float(scalar_fn().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            diff = abs(numeric - gflat[i])
            if not np.isfinite(diff):  # max() would drop a NaN
                return np.inf
            if diff > floor:
                worst = max(worst, diff / max(abs(numeric), abs(gflat[i])))
    return worst
