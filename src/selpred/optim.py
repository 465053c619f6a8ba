"""Parameter update rules and the training loop.

SGD with momentum (halving learning-rate schedule) and Adam with bias
correction. Neither adds weight decay to the gradient: SGD subtracts
``lr * wd * theta`` beside the momentum buffer, and Adam applies decoupled
decay (AdamW, Loshchilov & Hutter 2019) after its update. Both keep their
state in flat arrays over the model's ``Parameters`` buffer, so a step is
one vectorized update. The training loop reshuffles the rows every epoch
and is deterministic given (seed, config, dataset): the shuffles and
dropout masks are drawn from a generator seeded by the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Parameters, zero_grads
from .checks import (CLASSIFICATION, ConfigurationError,
                     DegenerateCoverageError, DomainError, SelpredError,
                     integer, real, size)
from .layers import TRAIN
from .losses import (
    LossConfig,
    _class_indices,
    auxiliary_loss,
    selective_loss,
    task_loss,
    task_loss_for,
    total_loss,
)

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "SGD",
    "Adam",
    "lr_schedule",
    "train",
]


class TrainingDivergedError(SelpredError, RuntimeError):
    """The training loss became non-finite."""


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # "adam" | "sgd"
    learning_rate: float = 5e-4
    epochs: int = 800
    batch_size: int = 256
    weight_decay: float = 1e-4
    momentum: float = 0.9            # sgd only
    lr_halving_period: int = 25      # sgd only; 0 disables
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self):
        if real(self.learning_rate, "learning_rate") <= 0:
            raise ConfigurationError("learning rate must be positive")
        if real(self.weight_decay, "weight_decay") < 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 <= real(self.momentum, "momentum") < 1:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {self.momentum}")
        size(self.epochs, "epochs")
        size(self.batch_size, "batch_size")
        integer(self.lr_halving_period, "lr_halving_period", least=0)
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        self.loss.validate()


@dataclass
class TrainHistory:
    """One record per completed epoch (batch-size weighted epoch means)."""

    total_loss: list = field(default_factory=list)
    selective_loss: list = field(default_factory=list)
    auxiliary_loss: list = field(default_factory=list)
    soft_coverage: list = field(default_factory=list)
    hard_coverage: list = field(default_factory=list)
    selective_risk: list = field(default_factory=list)


def _checked(params):
    """``params`` if it is a ``Parameters``, else TypeError."""
    if not isinstance(params, Parameters):
        raise TypeError(f"an optimizer takes a Parameters (say "
                        f"model.parameters()), got {type(params).__name__}")
    return params


class SGD:
    """Momentum SGD with weight decay kept out of the momentum buffer:

        v <- mu*v + grad;  theta <- theta - lr*(v + wd*theta)

    One vectorized update per step over the flat ``Parameters`` buffers,
    read as ``params.data`` and ``params.grad``; a gradient that was never
    set, or set to None, is zero there. ``params`` is a ``Parameters``,
    such as ``model.parameters()``; anything else raises TypeError.
    """

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = _checked(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(self.params.data)

    def step(self):
        theta, grad = self.params.data, self.params.grad
        v = self.velocity
        v *= self.momentum
        v += grad
        theta -= self.lr * (v + self.weight_decay * theta)


class Adam:
    """Adam with bias correction, then decoupled weight decay (AdamW):

        m <- b1*m + (1-b1)*grad;  v <- b2*v + (1-b2)*grad^2
        theta <- theta - lr * (m/c1) / (sqrt(v/c2) + eps)
        theta <- theta - lr*wd*theta

    with b1 = ``beta1``, b2 = ``beta2``, c1 = 1 - b1^t and c2 = 1 - b2^t at
    step t. The decay acts on the parameters after the Adam update and never
    enters m or v. ``params`` and the update are as for ``SGD``.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = _checked(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(self.params.data)
        self.v = np.zeros_like(self.params.data)
        # scratch for the step's temporaries
        self._a = np.empty_like(self.params.data)
        self._b = np.empty_like(self.params.data)

    def step(self):
        """One update, in place: the operations and their order are those of
        the formulas above, so the result is the same to the last bit."""
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        theta, grad = self.params.data, self.params.grad
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=a)
        a *= grad
        v += a
        np.divide(m, c1, out=a)  # lr * (m/c1) / (sqrt(v/c2) + eps)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        theta -= a
        np.multiply(theta, self.lr * self.weight_decay, out=a)
        theta -= a


def lr_schedule(epoch, config):
    """Halving schedule for SGD; Adam runs at a constant rate."""
    if epoch < 0:
        raise ConfigurationError("epoch must be >= 0")
    if config.optimizer == "sgd" and config.lr_halving_period:
        return config.learning_rate * 0.5 ** (epoch // config.lr_halving_period)
    return config.learning_rate


def _batches(indices, batch_size):
    """Contiguous slices of ``indices`` (an array or a ``range``); a trailing
    slice of one sample is merged into the previous batch, since batchnorm
    needs batch >= 2."""
    starts = list(range(0, len(indices), batch_size))
    if len(starts) > 1 and len(indices) - starts[-1] < 2:
        starts.pop()
    return [indices[a:b] for a, b in zip(starts, starts[1:] + [len(indices)])]


def train(model, features, labels, config):
    """Minimize the combined objective over the given training split.

    For a selective model this is alpha*L(f,g) + (1-alpha)*Lh per batch; the
    baseline twin is trained on the plain mean task loss. Returns a
    ``TrainHistory``; the model is updated in place and its
    ``trained_coverage`` is stamped from the loss config. Before the first
    update, features and regression targets are checked to be finite,
    labels to be (rows,) (ConfigurationError), class labels to be integers
    in [0, n_classes) (DomainError; integral floats pass) and the task loss
    to fit the task (``task_loss_for``).
    A batch whose loss is not finite, logits that overflowed included,
    raises ``TrainingDivergedError`` before its update, as do a collapsed
    selection head, non-finite parameters after the last update and
    finite parameters whose eval-mode fold (``freeze()``, run once here)
    overflows, so every model ``train()`` returns can serve; a diverging
    run warns nothing.
    """
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    m = features.shape[0]
    if m == 0:
        raise ConfigurationError("training set is empty")
    if not np.isfinite(features).all():
        raise ConfigurationError("features must be finite")
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise ConfigurationError(
            f"expected {m} labels for {m} feature rows, "
            f"got shape {labels.shape}")
    arch = model.config
    kind = config.loss.task_loss
    if kind != task_loss_for(arch.task):
        raise ConfigurationError(
            f"task_loss {kind!r} does not apply to a {arch.task} model")
    if arch.task == CLASSIFICATION:
        labels = _class_indices(labels, arch.n_classes)
    elif not np.isfinite(labels.astype(np.float64)).all():
        raise ConfigurationError("labels must be finite")
    if config.batch_size < 2 and m > 1:
        raise ConfigurationError("batch size must be >= 2 with batchnorm")

    params = model.parameters()
    if config.optimizer == "adam":
        opt = Adam(params, config.learning_rate,
                   weight_decay=config.weight_decay)
    else:
        opt = SGD(params, config.learning_rate, config.momentum,
                  config.weight_decay)

    rng = np.random.default_rng(config.seed)
    lcfg = config.loss
    history = TrainHistory()

    batches = _batches(range(m), config.batch_size)
    # overflow and invalid values are refused as a diverged run, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            opt.lr = lr_schedule(epoch, config)
            order = rng.permutation(m)
            # the epoch's rows in batch order, so each batch is a slice of them
            xs, ys = np.take(features, order, axis=0), labels[order]
            # batch-size weighted sums of total, selective and auxiliary loss,
            # soft coverage, accepted count and selective risk
            tot = sel_sum = aux_sum = soft = hard = risk = 0.0
            for b, rows in enumerate(batches):
                yb = ys[rows.start:rows.stop]
                n = len(rows)
                f_out, g_out, h_out = model.forward(xs[rows.start:rows.stop],
                                                    mode=TRAIN, rng=rng)
                try:
                    losses = task_loss(kind, f_out, yb)
                    if model.selective:
                        sel = selective_loss(losses, g_out, lcfg)
                        aux = auxiliary_loss(task_loss(kind, h_out, yb))
                        loss = total_loss(sel, aux, lcfg.alpha)
                        value = float(loss.data)
                        sel_v, aux_v = float(sel.data), float(aux.data)
                        soft += n * sel.coverage
                        hard += np.count_nonzero(g_out.data >= 0.5)
                        risk += n * sel.risk
                    else:
                        loss = losses.mean()
                        value = sel_v = aux_v = float(loss.data)
                        soft += n
                        hard += n
                        risk += n * value
                except DegenerateCoverageError:
                    raise TrainingDivergedError(
                        f"selection head collapsed to zero at epoch {epoch}, "
                        f"batch {b}")
                except DomainError:  # the task loss refuses non-finite logits
                    value = math.inf
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {b}")
                zero_grads(params)
                loss.backward()
                opt.step()
                # free the step's graph before the next forward allocates
                loss = losses = sel = aux = f_out = g_out = h_out = None
                tot += n * value
                sel_sum += n * sel_v
                aux_sum += n * aux_v
            history.total_loss.append(tot / m)
            history.selective_loss.append(sel_sum / m)
            history.auxiliary_loss.append(aux_sum / m)
            history.soft_coverage.append(soft / m)
            history.hard_coverage.append(hard / m)
            history.selective_risk.append(risk / m)

    if not np.isfinite(params.data).all():
        raise TrainingDivergedError(
            "non-finite parameters after the last update")
    try:  # cached for the first eval call after training
        model.freeze()
    except DomainError:
        raise TrainingDivergedError(
            "the trained weights do not fold to finite arrays")
    model.trained_coverage = lcfg.target_coverage if model.selective else 1.0
    return history
