"""Coverage-penalized selective training objective.

The selective loss is the empirical selective risk plus a quadratic penalty
on the coverage shortfall,

    L(f, g) = r_hat + lambda * psi(c - phi_hat),    psi(a) = max(0, a)^2,

where phi_hat is the mean of the soft selection values and r_hat the
coverage-normalized weighted mean task loss. The auxiliary head is trained
with the plain (full-coverage) mean loss, and the two are mixed by a convex
combination with weight alpha.

The per-sample task losses, the selective loss and the combination are each
one tape node with a closed-form backward. Cross-entropy works on
``softmax_rows``' class-major (classes, rows) arrays: its value is each
row's log row sum minus the label's shifted logit, and its gradient
(p - onehot) * g is formed there, with g a length-m row, and handed back
to the (rows, classes) head as one transposed copy; the values are the
row-major formula's bit for bit. ``selective_loss`` takes its value
from ``empirical_coverage``, ``empirical_selective_risk`` and ``psi``, which
compute phi_hat, r_hat and psi off the tape as float64 scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .checks import (CLASSIFICATION, ConfigurationError, ContractError,
                     DegenerateCoverageError, DomainError, ShapeError,
                     fraction, real)
from .layers import softmax_rows

__all__ = [
    "CROSS_ENTROPY",
    "SQUARED",
    "LossConfig",
    "task_loss",
    "task_loss_for",
    "psi",
    "empirical_coverage",
    "empirical_selective_risk",
    "selective_loss",
    "auxiliary_loss",
    "total_loss",
]

CROSS_ENTROPY = "cross-entropy"
SQUARED = "squared"

@dataclass
class LossConfig:
    target_coverage: float = 0.8
    penalty_weight: float = 32.0
    alpha: float = 0.5
    task_loss: str = SQUARED

    def validate(self):
        # each kept as the Python float its check returns: training stamps
        # the coverage on the model, which saves it, and a numpy float32
        # weight would keep selective_loss's backward in float32
        self.target_coverage = fraction(self.target_coverage,
                                        "target_coverage")
        self.penalty_weight = real(self.penalty_weight, "penalty_weight")
        if self.penalty_weight < 0.0:
            raise ConfigurationError("penalty weight must be >= 0")
        alpha = real(self.alpha, "alpha")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0,1], got {self.alpha}")
        self.alpha = alpha
        if self.task_loss not in (CROSS_ENTROPY, SQUARED):
            raise ConfigurationError(f"unknown task loss {self.task_loss!r}")


def task_loss_for(task):
    """The task loss that fits ``task``: cross-entropy for classification,
    squared loss for regression."""
    return CROSS_ENTROPY if task == CLASSIFICATION else SQUARED


def task_loss(kind, prediction, labels):
    """Per-sample loss vector for the given task loss, as one node.

    Cross-entropy takes finite (batch, classes>=2) logits (else ShapeError,
    DomainError) and integer class labels: log-softmax cross-entropy with
    gradient ``softmax(logits) - onehot``. Squared loss expects a real
    prediction (any shape with one value per sample) and real targets.
    """
    if kind == CROSS_ENTROPY:
        return _cross_entropy(prediction, labels)
    if kind == SQUARED:
        return _squared(prediction, labels)
    raise ConfigurationError(f"unknown task loss {kind!r}")


def _class_indices(labels, n_classes):
    """The 1-D ``labels`` as int64 class indices; DomainError naming the first
    label that is not an integer in [0, n_classes). An integral float
    passes, as ``load_csv`` reads a class column; a bool or a string never
    does."""
    labels = np.asarray(labels)
    kind = labels.dtype.kind
    if kind in "iu" and (labels.size == 0 or labels.min() >= 0
                         and labels.max() < n_classes):
        return labels.astype(np.int64, copy=False)
    if kind in "iuf":
        ok = (labels >= 0) & (labels < n_classes) & (labels == np.floor(labels))
    else:
        ok = np.zeros(labels.shape, dtype=bool)
    if ok.all():
        return labels.astype(np.int64)
    raise DomainError(f"class label {labels[np.argmin(ok)].item()!r} is not "
                      f"an integer in [0, {n_classes})")


def _cross_entropy(logits, labels):
    z = logits.data
    if z.ndim != 2 or z.shape[1] < 2:
        raise ShapeError(
            f"cross-entropy expects (batch, classes>=2) logits, got {z.shape}")
    if not np.isfinite(z).all():
        raise DomainError("cross-entropy requires finite logits")
    labels = np.asarray(labels)
    m, k = z.shape
    if labels.shape != (m,):
        raise ShapeError(f"expected {m} labels, got shape {labels.shape}")
    # each row's label in the flat class-major (k, m) arrays
    at = _class_indices(labels, k) * m + np.arange(m)
    p, shifted, row_sums = softmax_rows(z)

    def backward(g):
        dz = p  # a node's backward runs once, so p is free to overwrite
        dz.ravel()[at] -= 1.0
        dz *= g
        logits._accum(dz.T.copy(), owned=True)

    return Tensor._op(np.log(row_sums) - shifted.take(at), (logits,),
                      backward)


def _squared(prediction, labels):
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    shape = prediction.data.shape
    if prediction.data.size != y.size:
        raise ShapeError(f"prediction shape {shape} != target shape {y.shape}")
    d = prediction.data.reshape(-1) - y

    def backward(g):
        prediction._accum((2.0 * g * d).reshape(shape), owned=True)

    return Tensor._op(d * d, (prediction,), backward)


def psi(a):
    """The coverage penalty max(0, a)^2 of a real ``a``."""
    a = max(a, 0.0)
    return np.float64(a * a)


def empirical_coverage(g_values):
    """phi_hat, the mean of the (soft) selection values."""
    g = g_values.data
    if g.size == 0:
        raise ContractError("empirical coverage of an empty batch is undefined")
    return g.sum() * (1.0 / g.size)


def empirical_selective_risk(losses, g_values):
    """r_hat, the coverage-normalized weighted mean loss."""
    return np.float64(_coverage_and_risk(losses, g_values)[1])


def _coverage_and_risk(losses, g_values):
    """``(phi_hat, r_hat)`` as floats. ContractError unless the losses and g
    values have one shape; DegenerateCoverageError if every g value is 0."""
    l, g = losses.data, g_values.data
    if l.shape != g.shape:
        raise ContractError(f"losses {l.shape} and g {g.shape} must match")
    phi = float(empirical_coverage(g_values))
    if phi == 0.0:
        raise DegenerateCoverageError(
            "all selection values are zero; selective risk is undefined")
    return phi, float((l * g).sum() * (1.0 / g.size) / phi)


def selective_loss(losses, g_values, config):
    """r_hat + lambda * psi(c - phi_hat) over one batch, as one node.

    ``config`` is taken as valid (``train`` validates it once per call).
    The result also carries the batch's ``coverage`` (phi_hat) and
    ``risk`` (r_hat) as floats. With a = max(0, c - phi_hat) and m samples,
    the gradients are dL/dl_i = g_i / (m phi_hat) and
    dL/dg_i = (l_i - r_hat) / (m phi_hat) - 2 lambda a / m.
    """
    l, g = losses.data, g_values.data
    phi, risk = _coverage_and_risk(losses, g_values)
    inv_m = 1.0 / g.size
    shortfall = config.target_coverage - phi
    weight = config.penalty_weight

    def backward(grad):
        grad = float(grad)
        per_sample = grad / phi * inv_m
        if losses.requires_grad:
            losses._accum(per_sample * g, owned=True)
        if g_values.requires_grad:
            g_values._accum(per_sample * (l - risk) - 2.0 * weight
                            * max(shortfall, 0.0) * inv_m * grad, owned=True)

    out = Tensor._op(risk + weight * psi(shortfall), (losses, g_values),
                     backward)
    out.risk, out.coverage = risk, phi
    return out


def auxiliary_loss(h_losses):
    """Plain mean of the auxiliary head's per-sample losses (full coverage)."""
    if h_losses.data.size == 0:
        raise ContractError("auxiliary loss of an empty batch is undefined")
    return h_losses.mean()


def total_loss(selective, auxiliary, alpha):
    """Convex combination alpha * selective + (1 - alpha) * auxiliary, as
    one node."""
    alpha = real(alpha, "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0,1], got {alpha}")

    def backward(g):
        if selective.requires_grad:
            selective._accum(alpha * g)
        if auxiliary.requires_grad:
            auxiliary._accum((1.0 - alpha) * g)

    return Tensor._op(alpha * selective.data + (1.0 - alpha) * auxiliary.data,
                      (selective, auxiliary), backward)
