"""Three-headed selective network and its single-headed full-coverage twin.

A shared main body feeds a prediction head f, a selection head g (single
sigmoid unit) and an auxiliary head h that mirrors f and is used only during
training. The baseline variant keeps the body and f only and is what the
softmax-response and MC-dropout baselines are built on.

The autograd engine serves training only: ``SelectiveNet.forward`` in
``TRAIN`` mode builds the training graph. Every eval path (``forward`` in
any other mode, ``predict``, ``selection_scores``, softmax response and
MC-dropout) runs on ``SelectiveNet.freeze()``, the same network with its
batchnorm folded into plain arrays, ``BLOCK_ROWS`` rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    DomainError,
    Parameters,
    ShapeError,
    Tensor,
    relu,
    # unused: bench/spans.py SITES wraps it until a benchmark change drops both
    sigmoid,
    stable_sigmoid,
)
from .layers import (
    EVAL,
    TRAIN,
    BatchNormLayer,
    ConfigurationError,
    DenseLayer,
    DropoutLayer,
    dense_bn_relu,
    dense_sigmoid,
    softmax,
    softmax_rows,
)

__all__ = ["ArchitectureConfig", "FrozenNet", "SelectiveNet", "build_model",
           "build_baseline", "BLOCK_ROWS"]

CLASSIFICATION = "classification"
REGRESSION = "regression"

# Rows per block of a frozen forward: a larger input is evaluated block by
# block into preallocated outputs, so its working set stays that of one block.
BLOCK_ROWS = 8192


@dataclass
class ArchitectureConfig:
    """Widths and switches defining the network.

    ``dropout_rate=None`` means no dropout layers at all; a numeric rate
    (including 0.0) places a dropout layer after every hidden activation,
    which the MC-dropout baseline requires.
    """

    input_dim: int
    body_widths: list = field(default_factory=lambda: [64])
    task: str = REGRESSION
    n_classes: int = 0
    selection_hidden: int = 16
    batchnorm: bool = True
    dropout_rate: float | None = None
    auxiliary_head: bool = True

    def output_dim(self):
        return self.n_classes if self.task == CLASSIFICATION else 1

    def validate(self):
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be positive")
        if not self.body_widths or any(w < 1 for w in self.body_widths):
            raise ConfigurationError(f"invalid body widths {self.body_widths}")
        if self.selection_hidden < 1:
            raise ConfigurationError("selection_hidden must be positive")
        if self.task == CLASSIFICATION:
            if self.n_classes < 2:
                raise ConfigurationError("classification needs n_classes >= 2")
        elif self.task != REGRESSION:
            raise ConfigurationError(f"unknown task {self.task!r}")

    def to_dict(self):
        return {
            "input_dim": self.input_dim,
            "body_widths": list(self.body_widths),
            "task": self.task,
            "n_classes": self.n_classes,
            "selection_hidden": self.selection_hidden,
            "batchnorm": self.batchnorm,
            "dropout_rate": self.dropout_rate,
            "auxiliary_head": self.auxiliary_head,
        }

    @staticmethod
    def from_dict(d):
        return ArchitectureConfig(**d)


def _hidden(x, dense, bn):
    """dense -> [batchnorm] -> relu; one fused node when batchnorm is on."""
    if bn is None:
        return relu(dense(x))
    return dense_bn_relu(x, dense, bn)


class _Block:
    """One hidden block: dense -> [batchnorm] -> relu -> [dropout]."""

    def __init__(self, in_dim, out_dim, config, rng):
        self.dense = DenseLayer(in_dim, out_dim, rng, init="he")
        self.bn = BatchNormLayer(out_dim) if config.batchnorm else None
        self.dropout = (DropoutLayer(config.dropout_rate)
                        if config.dropout_rate is not None else None)

    def __call__(self, x, rng=None):
        x = _hidden(x, self.dense, self.bn)
        if self.dropout is not None:
            x = self.dropout(x, rng)
        return x

    def parameters(self):
        ps = self.dense.parameters()
        if self.bn is not None:
            ps += self.bn.parameters()
        return ps

    def running_stats(self):
        return self.bn.running_stats() if self.bn is not None else []


class SelectiveNet:
    """Selective model (f, g) with auxiliary head h on a shared body.

    ``selective`` is False for the baseline twin, whose forward returns
    ``(f_out, None, None)``. All parameters live in one ``Parameters``
    buffer (``parameters()``), in declaration order.
    """

    def __init__(self, config, seed, selective=True):
        config.validate()
        self.config = config
        self.seed = seed
        self.selective = selective
        self.target_coverage = None  # set by training
        rng = np.random.default_rng(seed)

        self.body = []
        width = config.input_dim
        for w in config.body_widths:
            self.body.append(_Block(width, w, config, rng))
            width = w
        self.rep_dim = width

        out_dim = config.output_dim()
        f_init = "glorot"
        self.f_head = DenseLayer(width, out_dim, rng, init=f_init)

        if selective:
            self.g_hidden = DenseLayer(width, config.selection_hidden, rng, init="he")
            self.g_bn = (BatchNormLayer(config.selection_hidden)
                         if config.batchnorm else None)
            self.g_out = DenseLayer(config.selection_hidden, 1, rng, init="glorot")
            self.h_head = (DenseLayer(width, out_dim, rng, init=f_init)
                           if config.auxiliary_head else None)
        else:
            self.g_hidden = self.g_bn = self.g_out = self.h_head = None
        self._params = Parameters(self._declared_parameters())
        self._frozen = None  # (key, FrozenNet) of the last freeze()

    # -- forward --------------------------------------------------------------

    def forward(self, x, mode=EVAL, rng=None):
        """``(f_out, g_out, h_out)`` for the rows of ``x``.

        In ``TRAIN`` mode the shared body feeds all heads on the autograd
        tape, with batch-statistics batchnorm and active dropout (``rng``
        draws the masks): f_out holds class probabilities or regression
        outputs, g_out is a [0,1] vector of length batch and h_out shares
        f's form. Any other mode evaluates the frozen net once
        (``freeze().heads``): f_out and g_out are constant tensors off the
        tape, and h_out, used only in training, is None. For the baseline
        twin, g_out and h_out are None.
        """
        if mode != TRAIN:
            f, g = self.freeze().heads(x)
            if self.config.task == CLASSIFICATION:
                f = softmax_rows(f)[0]
            return Tensor(f), None if g is None else Tensor(g), None
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"expected input (batch, {self.config.input_dim}), got {x.data.shape}")
        rep = x
        for block in self.body:
            rep = block(rep, rng)

        f_out = self._head_output(self.f_head, rep)
        if not self.selective:
            return f_out, None, None

        g = _hidden(rep, self.g_hidden, self.g_bn)
        g_out = dense_sigmoid(g, self.g_out)
        h_out = self._head_output(self.h_head, rep) if self.h_head else None
        return f_out, g_out, h_out

    def _head_output(self, head, rep):
        z = head(rep)
        if self.config.task == CLASSIFICATION:
            return softmax(z)
        return z.reshape(-1)

    # -- inference ------------------------------------------------------------

    def freeze(self):
        """The eval-mode network as a ``FrozenNet``, cached on the instance.

        The cache key is the exact bytes of the parameter buffer and of the
        batchnorm running statistics, so training, ``load_model`` and any
        in-place edit of a parameter rebuild the frozen net on the next call.
        A member whose ``data`` was rebound is first copied into the buffer.
        """
        data, _ = self._params.sync()
        key = (data.tobytes(), *(a.tobytes() for a in self.running_stats()))
        if self._frozen is None or self._frozen[0] != key:
            self._frozen = (key, FrozenNet(self))
        return self._frozen[1]

    def selection_scores(self, x):
        """Eval-mode g(x) values as a plain array."""
        if not self.selective:
            raise ConfigurationError("baseline model has no selection head")
        return self.freeze().heads(x)[1]

    def predict(self, x, tau=0.5):
        """Predict-or-abstain at threshold tau (accept iff g(x) >= tau).

        Returns ``(predictions, accepted)``: class indices or regression
        values, and a boolean accept mask. Baseline models accept everything.
        """
        preds, accepted, _ = self.freeze()(x, tau)
        return preds, accepted

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self):
        """The model's ``Parameters``: every leaf, as views of one buffer.
        The same object on every call."""
        return self._params

    def _declared_parameters(self):
        ps = []
        for block in self.body:
            ps += block.parameters()
        ps += self.f_head.parameters()
        if self.selective:
            ps += self.g_hidden.parameters()
            if self.g_bn is not None:
                ps += self.g_bn.parameters()
            ps += self.g_out.parameters()
            if self.h_head is not None:
                ps += self.h_head.parameters()
        return ps

    def running_stats(self):
        stats = []
        for block in self.body:
            stats += block.running_stats()
        if self.selective and self.g_bn is not None:
            stats += self.g_bn.running_stats()
        return stats

    def num_parameters(self):
        return self._params.data.size


def _folded(dense, bn):
    """``(W, b)`` of ``dense`` followed by eval-mode ``bn`` (if any) as one
    affine map: with s = scale / sqrt(running_var + eps), W*s and
    (b - running_mean)*s + shift (Ioffe & Szegedy 2015). New arrays."""
    w, b = dense.weights.data, dense.bias.data
    if bn is None:
        return w.copy(), b.copy()
    s = bn.scale.data / np.sqrt(bn.running_var + bn.eps)
    return w * s, (b - bn.running_mean) * s + bn.shift.data


class FrozenNet:
    """Eval-mode SelectiveNet over plain numpy arrays: no ``Tensor``, no tape.

    Each body block is relu(x @ W + b) with its batchnorm folded into W and
    b; dropout is the identity in eval mode and h is used only in training,
    so neither appears (``dropout_f`` applies dropout for MC-dropout). f and
    g's batchnorm-folded first layer are one matrix, so a single matmul on
    the representation gives both. The arrays are a snapshot: later edits of
    the model do not reach them.
    """

    def __init__(self, model):
        cfg = model.config
        self.input_dim = cfg.input_dim
        self.classification = cfg.task == CLASSIFICATION
        self.body = [_folded(block.dense, block.bn) for block in model.body]
        w, b = _folded(model.f_head, None)
        self.n_f = w.shape[1]
        self.g_w = self.g_b = None
        if model.selective:
            gw, gb = _folded(model.g_hidden, model.g_bn)
            w, b = np.hstack([w, gw]), np.concatenate([b, gb])
            self.g_w = model.g_out.weights.data[:, 0].copy()
            self.g_b = float(model.g_out.bias.data[0])
        self.head_w, self.head_b = w, b

    def heads(self, x):
        """``(f, g)`` for the rows of ``x``: class logits (batch, classes) or
        regression outputs (batch,), and g(x) in [0, 1] (None for the
        baseline twin). More than ``BLOCK_ROWS`` rows are evaluated block by
        block, each block with the same checks."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(
                f"expected input (batch, {self.input_dim}), got {x.shape}")
        if x.shape[0] > BLOCK_ROWS:
            return self._blocked_heads(x)
        for w, b in self.body:
            x = x @ w
            x += b
            np.maximum(x, 0.0, out=x)
        z = x @ self.head_w
        z += self.head_b
        if not np.isfinite(z).all():
            raise DomainError("head outputs are not finite")
        if self.classification:
            f = z[:, :self.n_f]
        else:
            f = np.ascontiguousarray(z[:, 0])  # not a view that keeps z alive
        if self.g_w is None:
            return f, None
        t = np.maximum(z[:, self.n_f:], 0.0) @ self.g_w
        t += self.g_b
        return f, stable_sigmoid(t)

    def _blocked_heads(self, x):
        """``heads`` of each ``BLOCK_ROWS`` rows of ``x``, concatenated."""
        n = x.shape[0]
        f = np.empty((n, self.n_f) if self.classification else n)
        g = None if self.g_w is None else np.empty(n)
        for start in range(0, n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            f[rows], g_rows = self.heads(x[rows])
            if g is not None:
                g[rows] = g_rows
        return f, g

    def dropout_f(self, x, rate, rng):
        """f for the rows of ``x`` with inverted dropout at ``rate`` after
        every body block: class probabilities (softmax) or regression
        outputs. The masks are drawn block after block from ``rng`` as
        ``DropoutLayer`` draws them, none at rate 0."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(
                f"expected input (batch, {self.input_dim}), got {x.shape}")
        for w, b in self.body:
            x = x @ w
            x += b
            np.maximum(x, 0.0, out=x)
            if rate != 0.0:
                x *= (rng.random(x.shape) >= rate) / (1.0 - rate)
        z = x @ self.head_w[:, :self.n_f]
        z += self.head_b[:self.n_f]
        if not np.isfinite(z).all():
            raise DomainError("head outputs are not finite")
        return softmax_rows(z)[0] if self.classification else z[:, 0]

    def __call__(self, x, tau=-np.inf):
        """``(predictions, accepted, g)``: class indices (argmax of the
        logits) or regression values, the mask g(x) >= tau (all True for the
        baseline twin) and g(x) (None for the twin)."""
        f, g = self.heads(x)
        preds = f.argmax(axis=1) if self.classification else f
        accepted = np.ones(len(preds), dtype=bool) if g is None else g >= tau
        return preds, accepted, g

    def probabilities(self, x):
        """Softmax class probabilities of f (classification only)."""
        if not self.classification:
            raise ConfigurationError("class probabilities need a classifier")
        return softmax_rows(self.heads(x)[0])[0]


def build_model(config, seed):
    """Build the three-headed model with seed-deterministic initialization."""
    return SelectiveNet(config, seed, selective=True)


def build_baseline(config, seed):
    """Build the full-coverage twin: same body and f head, no g or h.

    With the same seed, body and f initialization are bit-identical to the
    selective model's because the heads are drawn after them.
    """
    return SelectiveNet(config, seed, selective=False)
