"""Fused tape nodes against finite differences and against the unfused tape
composition of the same math.

Each fused node (dense, batchnorm, the dense -> batchnorm -> relu block,
softmax, both task losses, the selective loss and the loss combination) is
checked twice: its gradients against central differences, and its values and
gradients against the same function built from elementwise tape operations,
to 1e-12 relative to the largest value compared.

The g-output node (dense -> sigmoid -> flatten) and the training loop are
held to the bit: ``train()`` must give exactly the parameters, running
statistics and history of a plain reference loop built from unfused parts.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    abs_sigmoid,
    exp,
    log,
    ref_batchnorm,
    ref_dense,
    ref_forward,
    ref_softmax,
    reshape,
)
from selpred import optim
from selpred.autograd import (
    Parameter,
    Parameters,
    Tensor,
    finite_difference_check,
    relu,
    sigmoid,
    stable_sigmoid,
    watch_kink_margins,
    zero_grads,
)
from selpred.checks import CLASSIFICATION, REGRESSION
from selpred.data import SplitSpec, split, standardize, synth_classification
from selpred.layers import (
    EVAL,
    TRAIN,
    BatchNormLayer,
    DenseLayer,
    _input_space_block,
    dense_bn_relu,
    dense_sigmoid,
    softmax,
)
from selpred.losses import (
    CROSS_ENTROPY,
    SQUARED,
    LossConfig,
    auxiliary_loss,
    empirical_coverage,
    empirical_selective_risk,
    selective_loss,
    task_loss,
    total_loss,
)
from selpred.model import (
    ArchitectureConfig,
    SelectiveNet,
    build_baseline,
    build_model,
)
from selpred.optim import Adam, TrainConfig, TrainHistory, _batches, train

REL = 1e-12
BATCHES = [2, 7]  # the smallest train-mode batch and a ragged one


def assert_same(fused, reference):
    """Equal to 1e-12 relative to the largest reference magnitude."""
    fused, reference = np.asarray(fused), np.asarray(reference)
    assert fused.shape == reference.shape
    scale = max(float(np.max(np.abs(reference), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(fused - reference), initial=0.0)) <= REL * scale


def leaves(rng, *shapes):
    return [Parameter(rng.normal(size=s)) for s in shapes]


def grads_of(params, scalar_fn):
    zero_grads(params)
    out = scalar_fn()
    out.backward()
    return out.data.copy(), [p.grad.copy() for p in params]


def compare(params, fused_fn, reference_fn):
    """Fused and reference scalars and gradients agree; the scale of a
    gradient is that of all gradients, so one that is small next to the
    others is held to the same absolute error."""
    v_f, g_f = grads_of(params, fused_fn)
    v_r, g_r = grads_of(params, reference_fn)
    assert_same(v_f, v_r)
    scale = max(float(np.max(np.abs(g))) for g in g_r)
    for a, b in zip(g_f, g_r):
        assert float(np.max(np.abs(a - b))) <= REL * scale


# -- unfused reference compositions -------------------------------------------


def ref_cross_entropy(z, labels):
    """-log_softmax(z)[label] from elementwise operations."""
    shifted = z - Tensor(z.data.max(axis=1, keepdims=True))
    log_p = shifted - log(exp(shifted).sum(axis=1, keepdims=True))
    onehot = np.zeros(z.data.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    return (log_p * Tensor(onehot)).sum(axis=1) * -1.0


def ref_squared(pred, y):
    d = pred - Tensor(y)
    return d * d


def ref_selective(losses, g, cfg):
    """r_hat + lambda * max(0, c - phi_hat)^2 from elementwise operations."""
    phi = g.mean()
    shortfall = relu(cfg.target_coverage - phi)
    return ((losses * g).mean() / phi
            + cfg.penalty_weight * (shortfall * shortfall))


def ref_total(sel, aux, alpha):
    return alpha * sel + (1.0 - alpha) * aux


# -- dense --------------------------------------------------------------------


@pytest.mark.parametrize("m", BATCHES)
def test_dense_node(m):
    rng = np.random.default_rng(m)
    layer = DenseLayer(3, 4, rng)
    layer.bias.data[...] = rng.normal(size=4)
    (x,) = leaves(rng, (m, 3))
    probe = Tensor(rng.normal(size=(m, 4)))
    params = [x, layer.weights, layer.bias]
    compare(params, lambda: (layer(x) * probe).sum(),
            lambda: (ref_dense(x, layer.weights, layer.bias) * probe).sum())
    assert finite_difference_check(
        lambda: (layer(x) * probe).sum(), params) < 1e-7


@pytest.mark.parametrize("node", ["dense", "dense_bn_relu widening",
                                  "dense_bn_relu narrowing", "dense_sigmoid"])
def test_constant_input_gets_no_gradient(node):
    """On a constant input a node skips dx and gives its parameters the
    bytes that it gives them on an input that takes gradients."""
    rng = np.random.default_rng(8)
    if node == "dense_sigmoid":
        layer = DenseLayer(4, 1, rng, init="glorot")
        params, fn = layer.parameters(), lambda x: dense_sigmoid(x, layer)
    elif node == "dense":
        layer = DenseLayer(4, 3, rng)
        params, fn = layer.parameters(), layer
    else:
        dense = DenseLayer(4, 6 if node.endswith("widening") else 3, rng,
                           bias=False)
        bn = _bn(rng, dense.out_dim)
        params = [dense.weights, bn.scale, bn.shift]
        def fn(x):
            return _frozen_stats([bn], lambda: dense_bn_relu(x, dense, bn))()
    data = rng.normal(size=(7, 4))
    probe = rng.normal(size=fn(Tensor(data)).data.shape)
    grads = []
    for x in (Tensor(data), Parameter(data)):
        grads.append(grads_of(params, lambda: (fn(x) * Tensor(probe)).sum()))
    assert x.grad is not None
    assert [a.tobytes() for a in grads[0][1]] == [
        a.tobytes() for a in grads[1][1]]


# -- batchnorm and the fused block ---------------------------------------------


def _bn(rng, n):
    bn = BatchNormLayer(n)
    bn.scale.data[...] = rng.uniform(0.5, 1.5, n)
    bn.shift.data[...] = rng.normal(size=n)
    bn.running_mean = rng.normal(size=n)
    bn.running_var = rng.uniform(0.5, 2.0, n)
    return bn


def _frozen_stats(bns, fn):
    """``fn`` wrapped to put the running statistics of ``bns`` back after
    each call, so repeated train-mode calls see the same state. The
    statistics are updated in place, so the saved values are copies."""
    def run():
        saved = [(bn.running_mean.copy(), bn.running_var.copy())
                 for bn in bns]
        try:
            return fn()
        finally:
            for bn, (mean, var) in zip(bns, saved):
                bn.running_mean, bn.running_var = mean, var
    return run


def test_frozen_stats_puts_the_statistics_back():
    rng = np.random.default_rng(2)
    bn = _bn(rng, 3)
    before = [bn.running_mean.copy(), bn.running_var.copy()]
    _frozen_stats([bn], lambda: bn(Tensor(rng.normal(size=(5, 3)))))()
    for want, got in zip(before, bn.running_stats()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", BATCHES, ids=[f"{m}-train" for m in BATCHES])
def test_batchnorm_node(m):
    rng = np.random.default_rng(10 + m)
    bn = _bn(rng, 3)
    (z,) = leaves(rng, (m, 3))
    probe = Tensor(rng.normal(size=(m, 3)))
    params = [z, bn.scale, bn.shift]
    fused = _frozen_stats([bn], lambda: (bn(z) * probe).sum())
    ref = _frozen_stats([bn], lambda: (ref_batchnorm(z, bn, TRAIN) * probe).sum())
    compare(params, fused, ref)
    assert finite_difference_check(fused, params) < 1e-6


def test_batchnorm_running_stats_match_reference():
    rng = np.random.default_rng(3)
    bn = _bn(rng, 4)
    x = rng.normal(2.0, 3.0, size=(9, 4))
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    bn(Tensor(x))
    mean = Tensor(x).mean(axis=0).data
    var = ((Tensor(x) - mean) * (Tensor(x) - mean)).mean(axis=0).data
    np.testing.assert_array_equal(bn.running_mean,
                                  0.9 * rm + (1.0 - 0.9) * mean)
    np.testing.assert_array_equal(bn.running_var, 0.9 * rv + (1.0 - 0.9) * var)


def _kink_safe_block(seed, m):
    """A block and input whose relu pre-activations stay 1e-3 away from 0,
    so central differences are valid."""
    for attempt in range(50):
        rng = np.random.default_rng(1000 * seed + attempt)
        dense = DenseLayer(3, 4, rng, bias=False)
        bn = _bn(rng, 4)
        (x,) = leaves(rng, (m, 3))
        with watch_kink_margins() as margins:
            _frozen_stats([bn], lambda: dense_bn_relu(x, dense, bn))()
        if margins and min(margins) > 1e-3:
            return dense, bn, x, rng
    raise RuntimeError("no kink-safe draw")


@pytest.mark.parametrize("m", BATCHES, ids=[f"{m}-train" for m in BATCHES])
def test_dense_bn_relu_node(m):
    dense, bn, x, rng = _kink_safe_block(m, m)
    probe = Tensor(rng.normal(size=(m, 4)))
    params = [x, dense.weights, bn.scale, bn.shift]
    fused = _frozen_stats(
        [bn], lambda: (dense_bn_relu(x, dense, bn) * probe).sum())
    ref = _frozen_stats([bn], lambda: (relu(ref_batchnorm(
        ref_dense(x, dense.weights, dense.bias), bn, TRAIN)) * probe).sum())
    compare(params, fused, ref)
    assert finite_difference_check(fused, params) < 1e-6


def _train_block_case(rng, in_dim, width, m, offset, constant_column):
    """A train-mode block, an input ``offset`` away from zero (with one
    constant column if asked), a probe and the parameters to compare."""
    dense = DenseLayer(in_dim, width, rng, bias=False)
    bn = _bn(rng, width)
    (x,) = leaves(rng, (m, in_dim))
    x.data += offset
    if constant_column:
        x.data[:, 0] = offset
    probe = Tensor(rng.normal(size=(m, width)))
    return dense, bn, x, probe, [x, dense.weights, bn.scale, bn.shift]


def _train_block_outputs(dense, bn, x):
    """(fused, reference) outputs of one train-mode block, as functions
    that leave the running statistics as they found them."""
    return (_frozen_stats([bn], lambda: dense_bn_relu(x, dense, bn)),
            _frozen_stats([bn], lambda: relu(ref_batchnorm(
                ref_dense(x, dense.weights, dense.bias), bn, TRAIN))))


@settings(max_examples=60)
@given(in_dim=st.integers(1, 64), width=st.integers(1, 64),
       m=st.integers(2, 300), offset=st.floats(-10.0, 10.0),
       constant_column=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_train_block_matches_unfused_tape(in_dim, width, m, offset,
                                          constant_column, seed):
    """The weight-side fold of the train-mode block against the unfused
    tape, over shapes, input offsets and a zero-variance input column."""
    dense, bn, x, probe, params = _train_block_case(
        np.random.default_rng(seed), in_dim, width, m, offset,
        constant_column)
    fused, ref = _train_block_outputs(dense, bn, x)
    assert_same(fused().data, ref().data)
    compare(params, lambda: (fused() * probe).sum(),
            lambda: (ref() * probe).sum())


def _assert_block_close(case, rel):
    """Outputs, a probed scalar and its gradients of the fused block within
    ``rel`` of the unfused tape."""
    dense, bn, x, probe, params = case
    fused, ref = _train_block_outputs(dense, bn, x)
    out_f, out_r = fused().data, ref().data
    assert np.max(np.abs(out_f - out_r)) <= rel * np.max(np.abs(out_r))
    v_f, g_f = grads_of(params, lambda: (fused() * probe).sum())
    v_r, g_r = grads_of(params, lambda: (ref() * probe).sum())
    assert abs(v_f - v_r) <= rel * abs(v_r)
    scale = max(float(np.max(np.abs(g))) for g in g_r)
    for a, b in zip(g_f, g_r):
        assert float(np.max(np.abs(a - b))) <= rel * scale


@pytest.mark.parametrize("seed", range(3))
def test_train_block_far_from_zero(seed):
    """Inputs 1e3 away from zero cancel in the batch mean, which the
    widening 8 -> 32 block takes in the input space; it stays within 1e-9 of
    the unfused tape, no worse than the batch-wide form it replaced."""
    _assert_block_close(_train_block_case(
        np.random.default_rng(seed), 8, 32, 256, 1e3, False), 1e-9)


@pytest.mark.parametrize("offset, rel", [(0.0, REL), (1e3, 1e-9)],
                         ids=["centered", "offset 1e3"])
@pytest.mark.parametrize("in_dim, width", [(8, 32), (8, 64), (64, 16)])
def test_train_block_at_benchmark_shapes(in_dim, width, offset, rel):
    """The benchmark models' hidden blocks at a full batch: both bodies
    widen (input space), g's hidden block narrows (z space)."""
    _assert_block_close(_train_block_case(
        np.random.default_rng(in_dim + width), in_dim, width, 256, offset,
        False), rel)


def _degenerate_input(kind, rng, dense):
    """A (256, in) batch with a zero-variance direction: a constant column,
    two equal columns, one column three times another with weight rows
    that cancel (every unit's exact batch variance is 0, and C W * W
    rounds either side of it), or one row repeated."""
    x = rng.normal(size=(256, dense.in_dim)) + 3.0
    if kind == "constant column":
        x[:, 0] = 0.1
    elif kind == "two equal columns":
        x[:, 1] = x[:, 0]
    elif kind == "cancelling columns":
        x[:, 1] = 3.0 * x[:, 0]
        dense.weights.data[1] = -dense.weights.data[0] / 3.0
        dense.weights.data[2:] = 0.0
    else:  # all rows equal
        x[:] = x[0]
    return Parameter(x)


@pytest.mark.parametrize("kind", ["constant column", "two equal columns",
                                  "cancelling columns", "all rows equal"])
@pytest.mark.parametrize("in_dim, width", [(8, 32), (64, 16)])
def test_train_block_degenerate_inputs_stay_finite(in_dim, width, kind):
    """A zero batch variance, which roundoff may take a hair below 0, still
    gives finite outputs, gradients and running statistics, and a running
    variance >= 0 (from a running variance of 0)."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        dense = DenseLayer(in_dim, width, rng, bias=False)
        bn = _bn(rng, width)
        bn.running_var = np.zeros(width)
        x = _degenerate_input(kind, rng, dense)
        params = [x, dense.weights, bn.scale, bn.shift]
        zero_grads(params)
        out = dense_bn_relu(x, dense, bn)
        (out * Tensor(rng.normal(size=out.data.shape))).sum().backward()
        for a in [out.data, bn.running_mean, bn.running_var,
                  *(p.grad for p in params)]:
            assert np.isfinite(a).all()
        assert (bn.running_var >= 0.0).all()


def test_widening_block_with_input_gradient_matches_unfused_tape():
    """Body [16, 64] on 8 inputs: the second block widens from a hidden
    representation, so its dx term runs; g's block narrows 64 -> 16."""
    model = build_model(ArchitectureConfig(input_dim=8, body_widths=[16, 64],
                                           dropout_rate=0.0), 4)
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(256, 8)), rng.normal(size=256)
    cfg = LossConfig(target_coverage=0.8, task_loss=SQUARED)
    bns = [b.bn for b in model.body] + [model.g_block.bn]
    compare(model.parameters(),
            _frozen_stats(bns, lambda: fused_objective(model, x, y, cfg)),
            _frozen_stats(bns, lambda: ref_objective(model, x, y, cfg)))


@pytest.mark.parametrize("out_dim", [1, 4, 32])
def test_dense_backprop_dx_equals_matmul_with_transpose(out_dim):
    rng = np.random.default_rng(out_dim)
    layer = DenseLayer(16, out_dim, rng)
    (x,) = leaves(rng, (256, 16))
    g = rng.normal(size=(256, out_dim))
    assert_same(layer.backprop(x.data, g), g @ layer.weights.data.T)


# (rows, in, out) of every dense product in the benchmark's training steps:
# the criterion-4 model (body [32], 4 classes) and the compare_reg model
# (body [64], regression), each with g of 16, at a full and a ragged batch.
TRAIN_PRODUCT_SHAPES = [
    (rows, n_in, n_out)
    for rows in (256, 106)
    for n_in, n_out in ((8, 32), (32, 4), (32, 16), (16, 1),
                        (8, 64), (64, 1), (64, 16))]


@pytest.mark.parametrize("rows, n_in, n_out", TRAIN_PRODUCT_SHAPES)
def test_dense_products_give_the_bytes_of_matmul(rows, n_in, n_out):
    """``ndarray.dot`` on the operand layouts of ``DenseLayer`` (which the
    fused block's dW and dx share) gives the bytes of ``@``."""
    rng = np.random.default_rng(rows + n_in + n_out)
    layer = DenseLayer(n_in, n_out, rng)
    layer.bias.data[...] = rng.normal(size=n_out)
    (x,) = leaves(rng, (rows, n_in))
    g = rng.normal(size=(rows, n_out))
    w, b = layer.weights.data, layer.bias.data
    assert layer.affine(x.data).tobytes() == (x.data @ w + b).tobytes()
    zero_grads([layer.weights, layer.bias])
    dx = layer.backprop(x.data, g)
    assert layer.weights.grad.tobytes() == (x.data.T @ g).tobytes()
    assert layer.bias.grad.tobytes() == (np.ones(rows) @ g).tobytes()
    assert dx.tobytes() == (g @ np.ascontiguousarray(w.T)).tobytes()


@pytest.mark.parametrize("in_dim", [1, 16, 64])
def test_one_unit_dx_gives_the_bytes_of_the_broadcast_product(in_dim):
    """For one unit, dx = g @ W.T is a k = 1 product: each entry is one
    multiplication, g * W[:, 0]."""
    rng = np.random.default_rng(in_dim)
    layer = DenseLayer(in_dim, 1, rng, init="glorot")
    (x,) = leaves(rng, (256, in_dim))
    g = rng.normal(size=(256, 1))
    dx = layer.backprop(x.data, g)
    assert dx.tobytes() == (g * layer.weights.data[:, 0]).tobytes()


def test_dense_bn_relu_reports_kink_margin():
    """The margin is min |pre| of the path the block takes, to the byte: a
    widening block's pre-activations come from x's moments, a narrowing
    block's from ``train_normalize`` on x @ W. The relu of those same
    pre-activations is the block's output."""
    for in_dim, width, pre_of in (
            (3, 4, lambda x, dense, bn: _input_space_block(
                x.data, dense, bn, False)[0]),
            (4, 3, lambda x, dense, bn: bn.train_normalize(
                x.data @ dense.weights.data)[0])):
        rng = np.random.default_rng(4)
        dense = DenseLayer(in_dim, width, rng, bias=False)
        bn = _bn(rng, width)
        x = Tensor(rng.normal(size=(5, in_dim)))
        pre = _frozen_stats([bn], lambda: pre_of(x, dense, bn))()
        with watch_kink_margins() as margins:
            out = dense_bn_relu(x, dense, bn)
        assert margins == [float(np.min(np.abs(pre)))]
        assert out.data.tobytes() == np.maximum(pre, 0.0).tobytes()


# -- softmax and the task losses ---------------------------------------------


@pytest.mark.parametrize("m", BATCHES)
def test_softmax_node(m):
    rng = np.random.default_rng(20 + m)
    (z,) = leaves(rng, (m, 4))
    probe = Tensor(rng.normal(size=(m, 4)))
    compare([z], lambda: (softmax(z) * probe).sum(),
            lambda: (ref_softmax(z) * probe).sum())
    assert finite_difference_check(
        lambda: (softmax(z) * probe).sum(), [z]) < 1e-6


@pytest.mark.parametrize("m", BATCHES)
def test_cross_entropy_node(m):
    rng = np.random.default_rng(30 + m)
    (z,) = leaves(rng, (m, 4))
    z.data *= 3.0
    labels = rng.integers(0, 4, size=m)
    probe = Tensor(rng.normal(size=m))

    def fused():
        return (task_loss(CROSS_ENTROPY, z, labels) * probe).sum()

    compare([z], fused, lambda: (ref_cross_entropy(z, labels) * probe).sum())
    assert finite_difference_check(fused, [z]) < 1e-6


@pytest.mark.parametrize("m", BATCHES)
def test_squared_node(m):
    rng = np.random.default_rng(40 + m)
    (pred,) = leaves(rng, (m,))
    y = rng.normal(size=m)
    probe = Tensor(rng.normal(size=m))

    def fused():
        return (task_loss(SQUARED, pred, y) * probe).sum()

    compare([pred], fused, lambda: (ref_squared(pred, y) * probe).sum())
    assert finite_difference_check(fused, [pred]) < 1e-7


# -- selective loss and combination -------------------------------------------


@pytest.mark.parametrize("coverage", [0.3, 0.95])  # constraint met / violated
@pytest.mark.parametrize("m", BATCHES)
def test_selective_loss_node(coverage, m):
    rng = np.random.default_rng(50 + m)
    losses = Parameter(rng.uniform(0.0, 2.0, size=m))
    raw = Parameter(rng.normal(size=m))
    cfg = LossConfig(target_coverage=coverage, penalty_weight=32.0)
    compare([losses, raw], lambda: selective_loss(losses, sigmoid(raw), cfg),
            lambda: ref_selective(losses, sigmoid(raw), cfg))
    assert finite_difference_check(
        lambda: selective_loss(losses, sigmoid(raw), cfg), [losses, raw]) < 1e-6


def test_selective_loss_reports_coverage_and_risk():
    losses, g = Tensor([1.0, 0.0, 3.0]), Tensor([1.0, 0.5, 0.25])
    out = selective_loss(losses, g, LossConfig(target_coverage=0.9))
    assert out.coverage == empirical_coverage(g).item()
    assert out.risk == empirical_selective_risk(losses, g).item()


def test_total_loss_node():
    sel, aux = Parameter(1.5), Parameter(-0.5)
    compare([sel, aux], lambda: total_loss(sel, aux, 0.3),
            lambda: ref_total(sel, aux, 0.3))


# -- the whole training objective through the model ---------------------------


def _model(task, seed):
    arch = ArchitectureConfig(
        input_dim=3, body_widths=[5], task=task,
        n_classes=3 if task == CLASSIFICATION else 0, selection_hidden=4)
    return build_model(arch, seed)


def fused_objective(model, x, y, cfg):
    f, g, h = model.forward(x, mode=TRAIN)
    sel = selective_loss(task_loss(cfg.task_loss, f, y), g, cfg)
    aux = auxiliary_loss(task_loss(cfg.task_loss, h, y))
    return total_loss(sel, aux, cfg.alpha)


def ref_objective(model, x, y, cfg):
    f, g, h = ref_forward(model, x, TRAIN)
    loss = ref_cross_entropy if cfg.task_loss == CROSS_ENTROPY else ref_squared
    return ref_total(ref_selective(loss(f, y), g, cfg),
                     auxiliary_loss(loss(h, y)), cfg.alpha)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@pytest.mark.parametrize("m", BATCHES)
def test_training_objective_matches_unfused_tape(task, m):
    model = _model(task, seed=m)
    rng = np.random.default_rng(60 + m)
    x = rng.normal(size=(m, 3))
    if task == CLASSIFICATION:
        y = rng.integers(0, 3, size=m)
        cfg = LossConfig(target_coverage=0.9, task_loss=CROSS_ENTROPY)
    else:
        y = rng.normal(size=m)
        cfg = LossConfig(target_coverage=0.9, task_loss=SQUARED)
    bns = [b.bn for b in model.body] + [model.g_block.bn]
    compare(model.parameters(),
            _frozen_stats(bns, lambda: fused_objective(model, x, y, cfg)),
            _frozen_stats(bns, lambda: ref_objective(model, x, y, cfg)))


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_eval_forward_matches_unfused_tape(task):
    model = _model(task, seed=9)
    for bn in [b.bn for b in model.body] + [model.g_block.bn]:
        bn.running_mean = np.full(bn.num_features, 0.1)
        bn.running_var = np.full(bn.num_features, 1.7)
    x = np.random.default_rng(9).normal(size=(7, 3))
    f, g, h = model.forward(x)
    rf, rg, _ = ref_forward(model, x, EVAL)
    if task == CLASSIFICATION:
        rf = ref_softmax(rf)
    for a, b in ((f, rf), (g, rg)):
        assert_same(a.data, b.data)
    assert h is None


# -- the network node against the per-layer nodes, to the byte ----------------


def layered_forward(model, x, rng=None, g_output=dense_sigmoid):
    """``forward(x, TRAIN)`` as the per-layer nodes: a ``dense_bn_relu``
    node per hidden block, then a ``DropoutLayer`` node where the block has
    one, a ``DenseLayer`` node per head and ``g_output(hidden, model.g_out)``
    for g's output."""
    rep = x if isinstance(x, Tensor) else Tensor(x)
    for block in model.body:
        rep = dense_bn_relu(rep, block.dense, block.bn)
        if block.dropout is not None:
            rep = block.dropout(rep, rng)
    f = model.f_head(rep)
    if not model.selective:
        return f, None, None
    hidden = dense_bn_relu(rep, model.g_block.dense, model.g_block.bn)
    return f, g_output(hidden, model.g_out), model.h_head(rep)


def _objective(forward, model, x, y, cfg, rng):
    """The training objective of ``train()`` on ``forward``'s outputs."""
    f, g, h = forward(model, x, rng)
    losses = task_loss(cfg.task_loss, f, y)
    if g is None:
        return losses.mean()
    sel = selective_loss(losses, g, cfg)
    return total_loss(sel, auxiliary_loss(task_loss(cfg.task_loss, h, y)),
                      cfg.alpha)


def _network_forward(model, x, rng):
    return model.forward(x, mode=TRAIN, rng=rng)


# name -> (architecture, selective, rows); regression unless n_classes is set
LAYERED_CASES = {
    "criterion 4": (dict(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                         n_classes=4, selection_hidden=16), True, 256),
    "compare_reg shape": (dict(input_dim=8, body_widths=[64]), True, 256),
    "body [16, 8]": (dict(input_dim=8, body_widths=[16, 8]), True, 100),
    "[32, 64] at dropout 0.2": (dict(input_dim=8, body_widths=[32, 64],
                                     task=CLASSIFICATION, n_classes=3,
                                     dropout_rate=0.2), True, 150),
    "twin": (dict(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                  n_classes=4), False, 256),
}


def _layered_case(name, seed=0):
    """``(build, x, y, LossConfig)`` of one ``LAYERED_CASES`` entry."""
    arch, selective, rows = LAYERED_CASES[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 8))
    if arch.get("task") == CLASSIFICATION:
        y, kind = rng.integers(0, arch["n_classes"], size=rows), CROSS_ENTROPY
    else:
        y, kind = x @ rng.normal(size=8) + rng.normal(size=rows), SQUARED
    cfg = LossConfig(target_coverage=0.8 if selective else 1.0,
                     task_loss=kind)
    return (lambda: SelectiveNet(ArchitectureConfig(**arch), seed,
                                 selective=selective), x, y, cfg)


def _step_bytes(forward, build, x, y, cfg):
    """The loss, every gradient and the model's state after one forward and
    backward of the objective, as bytes."""
    model = build()
    params = model.parameters()
    zero_grads(params)
    loss = _objective(forward, model, x, y, cfg, np.random.default_rng(5))
    loss.backward()
    return [loss.data.tobytes(), params.grad.tobytes(),
            *(a.tobytes() for a in model.state())]


@pytest.mark.parametrize("name", sorted(LAYERED_CASES))
def test_network_node_step_equals_per_layer_nodes_bytes(name):
    build, x, y, cfg = _layered_case(name)
    assert (_step_bytes(_network_forward, build, x, y, cfg)
            == _step_bytes(layered_forward, build, x, y, cfg))


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("name", sorted(LAYERED_CASES))
def test_train_state_equals_per_layer_nodes_bytes(name, optimizer,
                                                  monkeypatch):
    """``model.state()`` and the history after ``train()`` are those of the
    same ``train()`` with ``forward(x, TRAIN)`` as the per-layer nodes."""
    build, x, y, loss = _layered_case(name)
    cfg = TrainConfig(optimizer=optimizer, epochs=2, batch_size=64,
                      learning_rate=2e-3, seed=3, loss=loss)
    model, ref = build(), build()
    history = train(model, x, y, cfg)
    monkeypatch.setattr(SelectiveNet, "forward",
                        lambda self, x, mode, rng: layered_forward(self, x, rng))
    ref_history = train(ref, x, y, cfg)
    assert ([a.tobytes() for a in model.state()]
            == [a.tobytes() for a in ref.state()])
    assert history == ref_history


def test_network_node_input_gradient_equals_per_layer_nodes_bytes():
    """An input that takes gradients gets the first block's dx."""
    build, x, y, cfg = _layered_case("body [16, 8]")
    dx = []
    for forward in (_network_forward, layered_forward):
        xp = Parameter(x)
        _objective(forward, build(), xp, y, cfg, None).backward()
        dx.append(xp.grad.tobytes())
    assert dx[0] == dx[1]


def test_head_no_loss_reaches_gets_zero_gradients():
    """A loss on f alone: g's and h's parameters get zero gradients, and
    every gradient equals that of the per-layer nodes."""
    build, x, y, cfg = _layered_case("compare_reg shape")
    grads = []
    for forward in (_network_forward, layered_forward):
        model = build()
        zero_grads(model.parameters())
        task_loss(SQUARED, forward(model, x, None)[0], y).mean().backward()
        grads.append(model.parameters().grad.copy())
    heads = [p for layer in (model.g_block, model.g_out, model.h_head)
             for p in layer.parameters()]
    assert not any(p.grad.any() for p in heads)
    assert np.array_equal(grads[0], grads[1])


def tape_tensors(root):
    """Distinct tensors reachable from ``root``, leaves included."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_criterion_4_training_step_tape_is_small():
    """12 parameters, the input, the network node with its three outputs
    and five loss nodes."""
    arch = ArchitectureConfig(input_dim=8, body_widths=[32],
                              task=CLASSIFICATION, n_classes=4,
                              selection_hidden=16, dropout_rate=0.0)
    model = build_model(arch, 0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(256, 8)), rng.integers(0, 4, size=256)
    cfg = LossConfig(target_coverage=0.8, task_loss=CROSS_ENTROPY)
    assert len(tape_tensors(fused_objective(model, x, y, cfg))) == 22


def test_compare_reg_training_step_tape_is_small():
    """The benchmark's compare models: body [64], squared loss on the
    (batch, 1) outputs of f and h, with no reshape node."""
    model = build_model(ArchitectureConfig(input_dim=8, body_widths=[64],
                                           dropout_rate=0.0), 0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(256, 8)), rng.normal(size=256)
    cfg = LossConfig(target_coverage=0.8, task_loss=SQUARED)
    assert len(tape_tensors(fused_objective(model, x, y, cfg))) == 22


def _benchmark_step(task):
    """``(model, x, y, cfg)`` of one benchmark training step: the
    criterion-4 step of ``train_cls`` or the step of ``compare_reg``."""
    if task == CLASSIFICATION:
        arch = ArchitectureConfig(input_dim=8, body_widths=[32],
                                  task=CLASSIFICATION, n_classes=4,
                                  selection_hidden=16, dropout_rate=0.0)
        cfg = LossConfig(target_coverage=0.8, task_loss=CROSS_ENTROPY)
    else:
        arch = ArchitectureConfig(input_dim=8, body_widths=[64],
                                  dropout_rate=0.0)
        cfg = LossConfig(target_coverage=0.8, task_loss=SQUARED)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(256, 8))
    y = (rng.integers(0, 4, size=256) if task == CLASSIFICATION
         else rng.normal(size=256))
    return build_model(arch, 0), x, y, cfg


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_every_parameter_gets_a_gradient(task):
    """After one ``train()`` step every parameter holds a gradient that is
    not all zeros: no parameter is one that training can never move."""
    model, x, y, cfg = _benchmark_step(task)
    train(model, x, y, TrainConfig(epochs=1, batch_size=len(y), loss=cfg))
    dead = [i for i, p in enumerate(model.parameters())
            if not p.grad.any()]
    assert dead == []


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_training_step_builds_no_dead_tensor(task, monkeypatch):
    """Every tensor that one TRAIN forward and the training objective
    build is reachable from the loss: the step builds no node that its
    backward never visits."""
    model, x, y, cfg = _benchmark_step(task)
    built = []
    init = Tensor.__init__

    def recording_init(self, data):
        init(self, data)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    loss = fused_objective(model, x, y, cfg)
    monkeypatch.undo()
    reachable = {id(t) for t in tape_tensors(loss)}
    assert len(built) > 1
    assert [t.data.shape for t in built if id(t) not in reachable] == []


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_backward_gradients_share_no_memory(task):
    """Nodes hand their own arrays to ``_accum`` without a copy; no two
    gradients of a training step may end up one array. The parameters'
    gradients are disjoint views of one buffer, so they pass too."""
    model, x, y, cfg = _benchmark_step(task)
    zero_grads(model.parameters())
    loss = fused_objective(model, x, y, cfg)
    loss.backward()
    grads = [t.grad for t in tape_tensors(loss) if t.grad is not None]
    assert len(grads) > len(model.parameters())
    for i, a in enumerate(grads):
        for b in grads[:i]:
            assert not np.shares_memory(a, b)


# -- the g-output node and the sigmoid it shares with FrozenNet ---------------


def two_branch_sigmoid(t):
    """1/(1+e^-t) where t >= 0 and e^t/(1+e^t) elsewhere, on masked parts."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ez = np.exp(t[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_stable_sigmoid_equals_two_branch_form_bit_for_bit():
    t = np.array([720.0, -720.0, 800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300,
                  np.inf, -np.inf, np.nan, *np.linspace(-40.0, 40.0, 801)])
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        got = stable_sigmoid(t)
    ref = two_branch_sigmoid(t)
    number = ~np.isnan(t)
    # the bytes, so the sign of a zero counts too
    assert got[number].tobytes() == ref[number].tobytes()
    assert np.isnan(got[~number]).all() and np.isnan(ref[~number]).all()


@settings(max_examples=300)
@given(t=st.lists(st.floats(), min_size=1, max_size=64))
@example(t=[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
            745.2, -745.2])
def test_stable_sigmoid_equals_its_abs_form_bit_for_bit(t):
    """exp(copysign(t, -1)) is exp(-|t|), NaN payloads and signed zeros
    included, so the whole output has the same bytes."""
    t = np.array(t)
    assert stable_sigmoid(t).tobytes() == abs_sigmoid(t).tobytes()


@pytest.mark.parametrize("m", BATCHES)
def test_dense_sigmoid_node_equals_its_three_nodes_exactly(m):
    rng = np.random.default_rng(70 + m)
    layer = DenseLayer(4, 1, rng, init="glorot")
    layer.bias.data[...] = 0.3
    (x,) = leaves(rng, (m, 4))
    x.data *= 4.0  # logits of both signs
    probe = Tensor(rng.normal(size=m))
    params = [x, layer.weights, layer.bias]
    fused = dense_sigmoid(x, layer)
    ref = reshape(sigmoid(layer(x)), -1)
    assert fused.data.tobytes() == ref.data.tobytes()
    v_f, g_f = grads_of(
        params, lambda: (dense_sigmoid(x, layer) * probe).sum())
    v_r, g_r = grads_of(
        params, lambda: (reshape(sigmoid(layer(x)), -1) * probe).sum())
    assert v_f.tobytes() == v_r.tobytes()
    for a, b in zip(g_f, g_r):
        assert a.tobytes() == b.tobytes()


# -- train() against a plain reference loop, bit for bit ----------------------


def ref_train_forward(model, x, rng):
    """``forward(x, TRAIN)`` with g's output as three nodes."""
    return layered_forward(model, x, rng, lambda hidden, layer: reshape(
        sigmoid(layer(hidden)), -1))


ADAM_DEFAULTS = Adam(Parameters([]), 1.0)


def ref_adam_step(params, state, lr, cfg):
    """Adam at ``Adam``'s default betas and eps, as ``train()`` builds it,
    then decoupled decay, each formula one allocating expression."""
    b1, b2, eps = ADAM_DEFAULTS.beta1, ADAM_DEFAULTS.beta2, ADAM_DEFAULTS.eps
    state["t"] += 1
    c1 = 1.0 - b1 ** state["t"]
    c2 = 1.0 - b2 ** state["t"]
    theta, grad = params.data, params.grad
    m, v = state["m"], state["v"]
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    theta -= lr * cfg.weight_decay * theta


def ref_train(model, features, labels, config):
    """Adam training with a row gather per batch; returns a TrainHistory."""
    params = model.parameters()
    state = {"t": 0, "m": np.zeros_like(params.data),
             "v": np.zeros_like(params.data)}
    lcfg, kind, m = config.loss, config.loss.task_loss, len(features)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    for _ in range(config.epochs):
        sums = np.zeros(6)  # total, selective, auxiliary, soft, hard, risk
        for idx in _batches(rng.permutation(m), config.batch_size):
            yb, n = labels[idx], len(idx)
            f, g, h = ref_train_forward(model, features[idx], rng)
            losses = task_loss(kind, f, yb)
            if model.selective:
                sel = selective_loss(losses, g, lcfg)
                aux = auxiliary_loss(task_loss(kind, h, yb))
                loss = total_loss(sel, aux, lcfg.alpha)
                sums += [n * float(loss.data), n * float(sel.data),
                         n * float(aux.data), n * sel.coverage,
                         np.count_nonzero(g.data >= 0.5), n * sel.risk]
            else:
                loss = losses.mean()
                value = float(loss.data)
                sums += [n * value, n * value, n * value, n, n, n * value]
            zero_grads(params)
            loss.backward()
            ref_adam_step(params, state, config.learning_rate, config)
        for name, total in zip(("total_loss", "selective_loss",
                                "auxiliary_loss", "soft_coverage",
                                "hard_coverage", "selective_risk"), sums):
            getattr(history, name).append(total / m)
    return history


def _criterion_4_data():
    ds = synth_classification(0, 6000, 4, 8, 0.2)
    tr, _, _ = split(ds, SplitSpec(seed=0, stratified=True))
    return standardize(tr)[0]


def _bit_case(name):
    """(build, features, labels, TrainConfig) of one locked configuration."""
    cls = dict(input_dim=8, body_widths=[32], task=CLASSIFICATION,
               n_classes=4, selection_hidden=16, dropout_rate=0.0)
    reg = dict(input_dim=8, body_widths=[64], dropout_rate=0.1)
    if name in ("criterion 4", "twin"):
        tr = _criterion_4_data()
        cfg = TrainConfig(epochs=3, batch_size=256, learning_rate=2e-3,
                          seed=0, loss=LossConfig(
                              target_coverage=0.8 if name != "twin" else 1.0,
                              task_loss=CROSS_ENTROPY))
        build = build_model if name == "criterion 4" else build_baseline
        return (lambda: build(ArchitectureConfig(**cls), 0),
                tr.features, tr.labels, cfg)
    if name == "compare_reg shape":  # the benchmark's compare models
        reg["dropout_rate"] = 0.0
    rng = np.random.default_rng(3)
    rows = 513 if name == "last batch of one row" else 618  # 256 + 256 + 1
    x = rng.normal(size=(rows, 8))
    y = x @ rng.normal(size=8) + 0.3 * rng.normal(size=rows)
    return (lambda: build_model(ArchitectureConfig(**reg), 2), x, y,
            TrainConfig(epochs=3, batch_size=256, seed=2))


@pytest.mark.parametrize("name", ["criterion 4", "twin", "regression, dropout",
                                  "last batch of one row",
                                  "compare_reg shape"])
def test_train_equals_reference_loop_bit_for_bit(name):
    build, x, y, cfg = _bit_case(name)
    model, ref = build(), build()
    history = train(model, x, y, cfg)
    ref_history = ref_train(ref, x, y, cfg)
    assert np.array_equal(model.parameters().data, ref.parameters().data)
    for a, b in zip(model.running_stats(), ref.running_stats()):
        assert np.array_equal(a, b)
    for field in history.__dataclass_fields__:
        assert np.array_equal(getattr(history, field),
                              getattr(ref_history, field)), field


def test_train_zeroes_grads_once_per_batch_right_before_backward(monkeypatch):
    """The benchmark's step clock stamps each step at ``optim.zero_grads``."""
    events = []
    zero, backward = optim.zero_grads, Tensor.backward

    def counting_zero(params):
        events.append("zero_grads")
        return zero(params)

    def counting_backward(self):
        events.append("backward")
        return backward(self)

    monkeypatch.setattr(optim, "zero_grads", counting_zero)
    monkeypatch.setattr(Tensor, "backward", counting_backward)
    build, x, y, cfg = _bit_case("last batch of one row")
    train(build(), x, y, cfg)
    assert events == ["zero_grads", "backward"] * (2 * cfg.epochs)
