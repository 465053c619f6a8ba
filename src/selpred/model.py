"""Three-headed selective network and its single-headed full-coverage twin.

A shared main body feeds a prediction head f, a selection head g (single
sigmoid unit) and an auxiliary head h that mirrors f and is used only during
training. A selective model always builds h; the loss's ``alpha`` sets its
weight, and ``alpha: 1.0`` trains f and g on the selective loss alone.
Every hidden block, the body's and g's (which never has dropout), is
dense -> batchnorm -> relu. The baseline variant keeps the body and f only
and is what the softmax-response and MC-dropout baselines are built on.

The autograd engine serves training only: ``SelectiveNet.forward`` in
``TRAIN`` mode builds the network as one tape node over the layers' array
forms, with f, g and h (f and h as raw head outputs) as its thin outputs;
with the five loss nodes that is the whole training graph. The per-layer
nodes of ``layers`` compose the same network node by node, as the tests'
reference.
Every eval path (``forward`` in ``EVAL`` mode, ``predict``,
``selection_scores``, softmax response and MC-dropout) runs on
``SelectiveNet.freeze()``, the same network with its batchnorm folded into
plain arrays, ``BLOCK_ROWS`` rows at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    Parameters,
    Tensor,
    _ZERO,
    # unused: bench/spans.py SITES wraps them until a benchmark change drops
    # the sites and these imports
    relu,
    sigmoid,
    stable_sigmoid,
)
from .checks import (CLASSIFICATION, REGRESSION, ConfigurationError,
                     DomainError, ShapeError, drop_rate, integer, size)
from .layers import (
    EVAL,
    TRAIN,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    dense_bn_relu_arrays,
    dense_sigmoid_arrays,
    dropout_mask,
    # unused: bench/spans.py SITES wraps it until a benchmark change drops both
    softmax,
    softmax_rows,
)

__all__ = ["ArchitectureConfig", "FrozenNet", "SelectiveNet", "build_model",
           "build_baseline", "BLOCK_ROWS"]

# Rows per block of a frozen forward: a larger input is evaluated block by
# block into preallocated outputs, so its working set stays that of one block.
BLOCK_ROWS = 8192


@dataclass
class ArchitectureConfig:
    """Widths defining the network, and its dropout rate.

    A ``dropout_rate`` above 0 places a dropout layer after every body
    block's activation; 0.0, the default, builds no dropout layer at all.
    The MC-dropout baseline needs none: it applies its own rate to the
    frozen body.
    """

    input_dim: int
    body_widths: list = field(default_factory=lambda: [64])
    task: str = REGRESSION
    n_classes: int = 0
    selection_hidden: int = 16
    dropout_rate: float = 0.0

    def output_dim(self):
        return self.n_classes if self.task == CLASSIFICATION else 1

    def validate(self):
        """Check every field, keeping each as the plain Python value its
        check returns, so a numpy scalar setting saves as JSON."""
        self.input_dim = size(self.input_dim, "input_dim")
        widths = self.body_widths
        if not isinstance(widths, (list, tuple)) or not widths or any(
                size(w, "body_widths", least=None) < 1 for w in widths):
            raise ConfigurationError(f"invalid body widths {widths}")
        self.body_widths = [int(w) for w in widths]
        self.selection_hidden = size(self.selection_hidden, "selection_hidden")
        self.dropout_rate = drop_rate(self.dropout_rate, "dropout_rate")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ConfigurationError(f"unknown task {self.task!r}")
        self.n_classes = size(self.n_classes, "n_classes", least=(
            2 if self.task == CLASSIFICATION else 0))


class _Block:
    """One hidden block: dense -> batchnorm -> relu -> [dropout], the dense
    without bias (batchnorm's shift is the block's offset); the dropout
    layer exists only for a rate above 0."""

    def __init__(self, in_dim, out_dim, dropout_rate, rng):
        self.dense = DenseLayer(in_dim, out_dim, rng, bias=False)
        self.bn = BatchNormLayer(out_dim)
        self.dropout = DropoutLayer(dropout_rate) if dropout_rate else None

    def parameters(self):
        return self.dense.parameters() + self.bn.parameters()


class SelectiveNet:
    """Selective model (f, g) with auxiliary head h on a shared body.

    ``selective`` is False for the baseline twin, whose forward returns
    ``(f_out, None, None)``. All parameters live in one ``Parameters``
    (``parameters()``), in declaration order, and all batchnorm running
    statistics in one more buffer, ``stats``, whose views are each
    batchnorm's ``running_mean`` and ``running_var`` in ``running_stats()``
    order. Both are write-through, so the two buffers are the model's whole
    state. The ``Parameters`` holds its leaves for good: an optimizer is
    built on it (``SGD(model.parameters(), ...)``), and a second
    ``Parameters`` over the same leaves raises ValueError.
    """

    def __init__(self, config, seed, selective=True):
        self.seed = integer(seed, "seed", least=0)
        config.validate()
        self.config = config
        self.selective = selective
        self.trained_coverage = None  # set by training
        rng = np.random.default_rng(seed)

        self.body = []
        width = config.input_dim
        for w in config.body_widths:
            self.body.append(_Block(width, w, config.dropout_rate, rng))
            width = w

        out_dim = config.output_dim()
        f_init = "glorot"
        self.f_head = DenseLayer(width, out_dim, rng, init=f_init)

        if selective:
            self.g_block = _Block(width, config.selection_hidden, 0.0, rng)
            self.g_out = DenseLayer(config.selection_hidden, 1, rng, init="glorot")
            self.h_head = DenseLayer(width, out_dim, rng, init=f_init)
        else:
            self.g_block = self.g_out = self.h_head = None
        # every layer in declaration order, the twin's absent heads skipped
        layers = [layer for layer in (*self.body, self.f_head, self.g_block,
                                      self.g_out, self.h_head)
                  if layer is not None]
        self._params = Parameters(
            [p for layer in layers for p in layer.parameters()])
        self._bns = [layer.bn for layer in layers if isinstance(layer, _Block)]
        self.stats = np.empty(2 * sum(bn.num_features for bn in self._bns))
        offset = 0
        for bn in self._bns:
            end = offset + 2 * bn.num_features
            bn.keep_stats_in(self.stats[offset:end])
            offset = end
        self._frozen = None  # (key, FrozenNet) of the last freeze()

    # -- forward --------------------------------------------------------------

    def forward(self, x, mode=EVAL, rng=None):
        """``(f_out, g_out, h_out)`` for the rows of ``x``.

        In ``TRAIN`` mode the shared body feeds all heads inside one tape
        node (``_network_node``), with batch-statistics batchnorm and
        active dropout (``rng`` draws the masks): f_out and h_out are (batch, classes) logits or
        (batch, 1) outputs, as ``task_loss`` takes them, and g_out is a
        [0,1] vector of length batch. ``EVAL`` mode evaluates the frozen
        net once (``freeze().heads``): f_out, class probabilities or
        (batch,) outputs, and g_out are constant tensors off the tape, and
        h_out, used only in training, is None. Any other mode raises
        ConfigurationError. For the baseline twin, g_out and h_out are None.
        """
        if mode != TRAIN:
            if mode != EVAL:
                raise ConfigurationError(f"unknown forward mode {mode!r}")
            f, g = self.freeze().heads(x)
            if self.config.task == CLASSIFICATION:
                f = softmax_rows(f)[0].T
            return Tensor(f), None if g is None else Tensor(g), None
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"expected input (batch, {self.config.input_dim}), got {x.data.shape}")
        return self._network_node(x, rng)

    def _network_node(self, x, rng):
        """``(f_out, g_out, h_out)`` of ``forward(x, TRAIN)``: thin outputs
        of one tape node over ``x`` and every parameter.

        The node runs the body blocks, f, g's block and sigmoid and h on
        arrays, through the layers' array forms, and its backward is theirs
        in reverse. Each output's backward only hands its gradient to the
        node, so the node's backward runs once, after the losses; a head
        that no loss reached counts as a zero gradient. The gradients of
        the shared representation are added in the order f, g, h, the
        order in which the tape ran the per-layer nodes (``dense_bn_relu``,
        ``DropoutLayer``, ``DenseLayer`` and ``dense_sigmoid``, which the
        tests compose as the reference), so every value is theirs bit for
        bit. Nothing the node's backward holds refers back to a tensor, so
        a step's graph is freed as soon as its loss is dropped."""
        body = []  # (backprop, dropout mask or None) of each body block
        rep, need_dx = x.data, x.requires_grad
        for block in self.body:
            rep, backprop = dense_bn_relu_arrays(rep, block.dense, block.bn,
                                                 need_dx)
            mask = None
            if block.dropout is not None:
                mask = block.dropout.mask(rng, rep.shape)
                rep = rep * mask
            body.append((backprop, mask))
            need_dx = True
        heads = [self.f_head.affine(rep)]
        if self.selective:
            hidden, g_backprop = dense_bn_relu_arrays(
                rep, self.g_block.dense, self.g_block.bn)
            g, s_backprop = dense_sigmoid_arrays(hidden, self.g_out)
            heads += [g, self.h_head.affine(rep)]
        grads = [None] * len(heads)  # set by each output's backward

        def backward(_):
            d = [np.zeros_like(o) if g is None else g
                 for o, g in zip(heads, grads)]
            drep = self.f_head.backprop(rep, d[0])
            if self.selective:
                drep += g_backprop(s_backprop(d[1]))
                drep += self.h_head.backprop(rep, d[2])
            for backprop, mask in reversed(body):
                drep = backprop(drep if mask is None else drep * mask)
            if x.requires_grad:
                x._accum(drep, owned=True)

        net = Tensor._op(rep, (x, *self._params), backward)
        outs = tuple(Tensor._op(o, (net,),
                                functools.partial(grads.__setitem__, i))
                     for i, o in enumerate(heads))
        return outs if self.selective else (outs[0], None, None)

    # -- inference ------------------------------------------------------------

    def freeze(self):
        """The eval-mode network as a ``FrozenNet``, cached on the instance.

        The cache key is the exact bytes of the parameter buffer and of the
        running statistics buffer, one bytes compare per call. Every write
        to the model's state lands in those buffers, in place or by
        assignment (an array assigned to a parameter's ``data`` or to a
        running statistic is copied in), so training, ``load_model`` and
        any edit of a parameter or a statistic rebuild the frozen net on
        the next call (see ``state``).
        """
        data, stats = self.state()
        key = data.tobytes() + stats.tobytes()
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
        return self.freeze()(x, tau)

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self):
        """The model's ``Parameters``: every leaf, as views of one buffer.
        The same object on every call."""
        return self._params

    def state(self):
        """``(parameters, statistics)``: the model's two state buffers, the
        ``Parameters`` buffer and ``stats``."""
        return self._params.data, self.stats

    def running_stats(self):
        """The batchnorm running statistics, in declaration order."""
        stats = []
        for bn in self._bns:
            stats += bn.running_stats()
        return stats

    def num_parameters(self):
        return self._params.data.size


def _folded(dense, bn):
    """``(W, b)`` of ``dense`` followed by eval-mode ``bn`` (if any; then
    ``dense`` has no bias) as one affine map: with s = scale /
    sqrt(running_var + eps), W*s and shift - running_mean*s (Ioffe &
    Szegedy 2015). New arrays, b a (1, out) row."""
    w = dense.weights.data
    if bn is None:
        return w.copy(), dense.bias.data.reshape(1, -1).copy()
    s = bn.scale.data / np.sqrt(bn.running_var + bn.eps)
    return w * s, (bn.shift.data - bn.running_mean * s).reshape(1, -1)


class FrozenNet:
    """Eval-mode SelectiveNet over plain numpy arrays: no ``Tensor``, no tape.

    Each body block is relu(x @ W + b) with its batchnorm folded into W and
    b; dropout is the identity in eval mode and h is used only in training,
    so neither appears (``dropout_f`` applies dropout for MC-dropout). f and
    g's block, folded like a body block, are one matrix, so a single matmul
    on the representation gives both. The arrays are a snapshot: later edits of
    the model do not reach them.

    Every bias is stored in the form that numpy adds fastest to a one-row
    query: each folded bias as a (1, width) row, so ``(1, k) += (1, k)``
    takes the same-shape path rather than broadcasting, and g's output bias
    as a 0-d float64 array rather than a Python float, as is the relu's 0.
    These forms change no output bit at any batch size.

    It keeps the tape's checks: ShapeError for an input that is not
    (batch, input_dim), DomainError for non-finite head outputs, f's and
    g's hidden layer alike. A model whose weights do not fold to finite
    arrays (finite parameters so large that the fold overflows, or a
    non-finite state) raises DomainError when frozen, with no numpy
    warning. Its outputs agree to 1e-12 relative with the
    unfused eval-mode oracle ``ref_forward`` (``tests/oracles.py``; folding
    changes the rounding), and its predictions and accept masks are equal.
    """

    def __init__(self, model):
        cfg = model.config
        self.input_dim = cfg.input_dim
        self.classification = cfg.task == CLASSIFICATION
        # a fold that overflows is refused below, not warned
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.body = [_folded(block.dense, block.bn)
                         for block in model.body]
            w, b = _folded(model.f_head, None)
            self.n_f = w.shape[1]
            self.g_w = self.g_b = None
            if model.selective:
                gw, gb = _folded(model.g_block.dense, model.g_block.bn)
                w, b = np.hstack([w, gw]), np.hstack([b, gb])
                self.g_w = model.g_out.weights.data[:, 0].copy()
                self.g_b = np.array(model.g_out.bias.data[0])  # 0-d float64
        self.head_w, self.head_b = w, b
        self.f_w, self.f_b = w[:, :self.n_f], b[:, :self.n_f]  # views
        folded = [a for pair in self.body for a in pair] + [w, b]
        if model.selective:
            folded += [self.g_w, self.g_b]
        if not all(np.isfinite(a).all() for a in folded):
            raise DomainError("folded weights are not finite")

    def _checked(self, x):
        """``x`` as a float64 array of shape (batch, input_dim);
        ShapeError otherwise."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(
                f"expected input (batch, {self.input_dim}), got {x.shape}")
        return x

    def heads(self, x):
        """``(f, g)`` for the rows of ``x``: class logits (batch, classes) or
        regression outputs (batch,), and g(x) in [0, 1] (None for the
        baseline twin). More than ``BLOCK_ROWS`` rows are evaluated block by
        block, each block with the same checks, and equal the per-block
        calls' concatenation bit for bit; fewer take the plain path with no
        extra call, copy or allocation."""
        x = self._checked(x)
        if x.shape[0] > BLOCK_ROWS:
            return self._blocked_heads(x)
        z = self._pass(x, self.body, self.head_w, self.head_b)
        if self.classification:
            f = z[:, :self.n_f]
        else:
            f = np.ascontiguousarray(z[:, 0])  # not a view that keeps z alive
        if self.g_w is None:
            return f, None
        t = np.maximum(z[:, self.n_f:], _ZERO).dot(self.g_w)
        t += self.g_b
        return f, stable_sigmoid(t)

    def _pass(self, x, blocks, head_w, head_b, rate=0.0, rng=None):
        """``rep @ head_w + head_b`` for the rows of the checked ``x``, with
        rep the output of the folded body ``blocks``, each followed by
        inverted dropout at ``rate``. The masks (``dropout_mask``) are drawn
        block after block from ``rng`` as ``DropoutLayer`` draws them; rate
        0 draws none."""
        for w, b in blocks:
            x = x.dot(w)
            x += b
            np.maximum(x, _ZERO, out=x)
            if rate != 0.0:
                x *= dropout_mask(rng, x.shape, rate)
        z = x.dot(head_w)
        z += head_b
        if not np.isfinite(z).all():
            raise DomainError("head outputs are not finite")
        return z

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

    def dropout_f(self, x, rate, rng, passes):
        """f for the rows of ``x`` in each of ``passes`` passes with
        inverted dropout at ``rate`` after every body block, from f's head
        columns only, stacked: (passes, rows, classes) class probabilities
        (softmax) or (passes, rows) regression outputs. The input is checked
        and the first block computed once; each pass then draws its masks
        from ``rng`` block after block, so it equals one ``_pass`` over all
        the blocks bit for bit."""
        (w, b), *rest = self.body
        first = self._checked(x).dot(w)
        first += b
        np.maximum(first, _ZERO, out=first)
        n = first.shape[0]
        outs = np.empty((passes, n, self.n_f) if self.classification
                        else (passes, n))
        for i in range(passes):
            rep = (first if rate == 0.0
                   else first * dropout_mask(rng, first.shape, rate))
            z = self._pass(rep, rest, self.f_w, self.f_b, rate, rng)
            outs[i] = softmax_rows(z)[0].T if self.classification else z[:, 0]
        return outs

    def __call__(self, x, tau):
        """``(predictions, accepted)``: class indices (argmax of the logits)
        or regression values, and the mask g(x) >= tau (all True for the
        baseline twin)."""
        f, g = self.heads(x)
        preds = f.argmax(axis=1) if self.classification else f
        accepted = np.ones(len(preds), dtype=bool) if g is None else g >= tau
        return preds, accepted


def build_model(config, seed):
    """Build the three-headed model with seed-deterministic initialization."""
    return SelectiveNet(config, seed, selective=True)


def build_baseline(config, seed):
    """Build the full-coverage twin: same body and f head, no g or h.

    With the same seed, body and f initialization are bit-identical to the
    selective model's because the heads are drawn after them.
    """
    return SelectiveNet(config, seed, selective=False)
