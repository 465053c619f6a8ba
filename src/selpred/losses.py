"""Coverage-penalized selective training objective.

The selective loss is the empirical selective risk plus a quadratic penalty
on the coverage shortfall,

    L(f, g) = r_hat + lambda * psi(c - phi_hat),    psi(a) = max(0, a)^2,

where phi_hat is the mean of the soft selection values and r_hat the
coverage-normalized weighted mean task loss. The auxiliary head is trained
with the plain (full-coverage) mean loss, and the two are mixed by a convex
combination with weight alpha.

The per-sample task losses, the selective loss and the combination are each
one tape node with a closed-form backward; ``empirical_coverage``,
``empirical_selective_risk`` and ``psi`` are the same quantities built from
elementwise tape operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, relu, square
from .layers import ConfigurationError, ContractError, _real

__all__ = [
    "CROSS_ENTROPY",
    "SQUARED",
    "LossConfig",
    "DegenerateCoverageError",
    "task_loss",
    "psi",
    "empirical_coverage",
    "empirical_selective_risk",
    "selective_loss",
    "auxiliary_loss",
    "total_loss",
]

CROSS_ENTROPY = "cross-entropy"
SQUARED = "squared"

# Floor on a plain probability inside the log, so cross-entropy stays finite
# when it is given probabilities that are exactly zero. Softmax outputs
# carry their exact log-probabilities and need no floor.
_CE_FLOOR = 1e-12


class DegenerateCoverageError(ValueError):
    """All selection values are zero: the selective risk is undefined."""


@dataclass
class LossConfig:
    target_coverage: float = 0.8
    penalty_weight: float = 32.0
    alpha: float = 0.5
    task_loss: str = SQUARED

    def validate(self):
        if not 0.0 < _real(self.target_coverage, "target_coverage") <= 1.0:
            raise ConfigurationError(
                f"target coverage must be in (0,1], got {self.target_coverage}")
        if _real(self.penalty_weight, "penalty_weight") < 0.0:
            raise ConfigurationError("penalty weight must be >= 0")
        if not 0.0 <= _real(self.alpha, "alpha") <= 1.0:
            raise ConfigurationError(f"alpha must be in [0,1], got {self.alpha}")
        if self.task_loss not in (CROSS_ENTROPY, SQUARED):
            raise ConfigurationError(f"unknown task loss {self.task_loss!r}")


class DataError(ValueError):
    """Labels inconsistent with the prediction shape."""


def task_loss(kind, prediction, labels):
    """Per-sample loss vector for the given task loss, as one node.

    Cross-entropy expects row-stochastic predictions and integer class
    labels. On a ``softmax`` output it is log-softmax cross-entropy on the
    logits, with gradient ``p - onehot``; on plain probabilities it is
    ``-log(max(p_true, 1e-12))``. Squared loss expects a real prediction
    (any shape with one value per sample) and real targets.
    """
    if kind == CROSS_ENTROPY:
        return _cross_entropy(prediction, labels)
    if kind == SQUARED:
        return _squared(prediction, labels)
    raise ConfigurationError(f"unknown task loss {kind!r}")


def _class_indices(labels, n_classes):
    """The 1-D ``labels`` as int64 class indices; DataError naming the first
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
    raise DataError(f"class label {labels[np.argmin(ok)].item()!r} is not "
                    f"an integer in [0, {n_classes})")


def _cross_entropy(prediction, labels):
    labels = np.asarray(labels)
    m, k = prediction.data.shape
    if labels.shape != (m,):
        raise DataError(f"expected {m} labels, got shape {labels.shape}")
    idx = _class_indices(labels, k)
    rows = np.arange(m)
    p = prediction.data
    log_softmax = getattr(prediction, "log_softmax", None)
    if log_softmax is not None:
        logits, shifted, row_sums = log_softmax

        def backward(g):
            dz = p.copy()
            dz.ravel()[rows * k + idx] -= 1.0
            dz *= g[:, None]
            logits._accum(dz, owned=True)

        return Tensor._op(np.log(row_sums[:, 0]) - shifted[rows, idx],
                          (logits,), backward)

    true_prob = p[rows, idx]
    floored = np.maximum(true_prob, _CE_FLOOR)

    def backward(g):
        dp = np.zeros_like(p)
        dp[rows, idx] = np.where(true_prob > _CE_FLOOR, -g / floored, 0.0)
        prediction._accum(dp, owned=True)

    return Tensor._op(-np.log(floored), (prediction,), backward)


def _squared(prediction, labels):
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    shape = prediction.data.shape
    if prediction.data.size != y.size:
        raise DataError(f"prediction shape {shape} != target shape {y.shape}")
    d = prediction.data.reshape(-1) - y

    def backward(g):
        prediction._accum((2.0 * g * d).reshape(shape), owned=True)

    return Tensor._op(d * d, (prediction,), backward)


def psi(a):
    """Quadratic penalty max(0, a)^2; derivative 2*max(0, a)."""
    if not isinstance(a, Tensor):
        a = Tensor(a)
    return square(relu(a))


def empirical_coverage(g_values):
    """Mean of the (soft) selection values."""
    if g_values.data.size == 0:
        raise ContractError("empirical coverage of an empty batch is undefined")
    return g_values.mean()


def empirical_selective_risk(losses, g_values):
    """Coverage-normalized weighted mean loss, differentiable in both inputs."""
    if losses.data.shape != g_values.data.shape:
        raise ContractError(
            f"losses {losses.data.shape} and g {g_values.data.shape} must match")
    phi = empirical_coverage(g_values)
    if phi.data == 0.0:
        raise DegenerateCoverageError(
            "all selection values are zero; selective risk is undefined")
    return (losses * g_values).mean() / phi


def selective_loss(losses, g_values, config):
    """r_hat + lambda * psi(c - phi_hat) over one batch, as one node.

    ``config`` is taken as valid (``train`` validates it once per call).
    The result also carries the batch's ``coverage`` (phi_hat) and
    ``risk`` (r_hat) as floats. With a = max(0, c - phi_hat) and m samples,
    the gradients are dL/dl_i = g_i / (m phi_hat) and
    dL/dg_i = (l_i - r_hat) / (m phi_hat) - 2 lambda a / m.
    """
    l, g = losses.data, g_values.data
    if l.shape != g.shape:
        raise ContractError(
            f"losses {l.shape} and g {g.shape} must match")
    if g.size == 0:
        raise ContractError("empirical coverage of an empty batch is undefined")
    inv_m = 1.0 / g.size
    phi = float(g.sum() * inv_m)
    if phi == 0.0:
        raise DegenerateCoverageError(
            "all selection values are zero; selective risk is undefined")
    risk = float((l * g).sum() * inv_m / phi)
    shortfall = max(config.target_coverage - phi, 0.0)
    weight = config.penalty_weight

    def backward(grad):
        grad = float(grad)
        per_sample = grad / phi * inv_m
        if losses.requires_grad:
            losses._accum(per_sample * g, owned=True)
        if g_values.requires_grad:
            g_values._accum(per_sample * (l - risk)
                            - 2.0 * weight * shortfall * inv_m * grad,
                            owned=True)

    out = Tensor._op(risk + weight * (shortfall * shortfall),
                     (losses, g_values), backward)
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
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0,1], got {alpha}")

    def backward(g):
        if selective.requires_grad:
            selective._accum(alpha * g)
        if auxiliary.requires_grad:
            auxiliary._accum((1.0 - alpha) * g)

    return Tensor._op(alpha * selective.data + (1.0 - alpha) * auxiliary.data,
                      (selective, auxiliary), backward)
