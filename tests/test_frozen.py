"""The frozen inference path against the unfused eval-mode oracle.

``SelectiveNet.freeze()`` folds batchnorm into the dense layers and fuses f
with g's first layer, so its outputs differ from ``ref_forward(model, x,
EVAL)`` (``tests/oracles.py``) only by rounding; predictions and accept
masks must not differ at all. ``forward`` in eval mode returns the frozen
outputs themselves. Inputs of more than ``BLOCK_ROWS`` rows are evaluated
block by block, and MC-dropout runs its passes on the same frozen arrays.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import ref_forward, ref_softmax
from selpred.autograd import Tensor, no_grad, stable_sigmoid
from selpred.calibrate import calibrate
from selpred.checks import (
    CLASSIFICATION,
    REGRESSION,
    ConfigurationError,
    DomainError,
    ShapeError,
)
from selpred.evaluate import (
    MC_DROPOUT_CLASSIFICATION,
    MC_DROPOUT_REGRESSION,
    mc_dropout_confidence,
)
from selpred.layers import EVAL, DropoutLayer, softmax_rows
from selpred.losses import CROSS_ENTROPY, SQUARED, LossConfig
from selpred.model import (
    BLOCK_ROWS,
    ArchitectureConfig,
    SelectiveNet,
    build_baseline,
    build_model,
)
from selpred.optim import TrainConfig, train

RTOL = 1e-12


def _config(task, body=(32,), dropout_rate=0.0):
    return ArchitectureConfig(
        input_dim=8, body_widths=list(body), task=task,
        n_classes=4 if task == CLASSIFICATION else 0, selection_hidden=16,
        dropout_rate=dropout_rate)


def _perturbed(model, seed=0):
    """``model`` with every parameter and running statistic moved off its
    initial value, so the batchnorm fold is not the identity."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(0.0, 0.3, p.data.shape)
    for mean, var in zip(*[iter(model.running_stats())] * 2):
        mean[...] = rng.normal(0.0, 0.5, mean.shape)
        var[...] = rng.uniform(0.2, 3.0, var.shape)
    return model


def _inputs(n=200, seed=1):
    return np.random.default_rng(seed).normal(size=(n, 8))


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _oracle(model, x):
    """Eval-mode f (class probabilities or regression outputs) and g (None
    for the twin) from the unfused oracle, as plain arrays."""
    with no_grad():
        f, g, _ = ref_forward(model, x, EVAL)
        if model.config.task == CLASSIFICATION:
            f = ref_softmax(f)
    return f.data, None if g is None else g.data


def _check_agreement(model, x):
    """Frozen f, g, predictions and accept masks against the oracle."""
    f_ref, g_ref = _oracle(model, x)
    frozen = model.freeze()
    f, g = frozen.heads(x)
    if model.config.task == CLASSIFICATION:
        assert _rel_err(softmax_rows(f)[0], f_ref) <= RTOL
        expected = np.argmax(f_ref, axis=1)
    else:
        assert _rel_err(f, f_ref) <= RTOL
        expected = f_ref
    if g_ref is None:
        assert g is None
        preds, accepted = model.predict(x, tau=0.99)
        assert accepted.all()
    else:
        assert _rel_err(g, g_ref) <= RTOL
        np.testing.assert_array_equal(model.selection_scores(x), g)
        # a threshold halfway between two oracle scores: no row sits on it
        s = np.sort(g_ref)
        tau = 0.5 * (s[len(s) // 2 - 1] + s[len(s) // 2])
        preds, accepted = model.predict(x, tau=tau)
        np.testing.assert_array_equal(accepted, g_ref >= tau)
    if model.config.task == CLASSIFICATION:
        np.testing.assert_array_equal(preds, expected)
    else:
        assert _rel_err(preds, expected) <= RTOL


@pytest.mark.parametrize("dropout_rate", [0.0, 0.25])
@pytest.mark.parametrize("body", [(32,), (16, 8)])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_frozen_matches_tape(task, body, dropout_rate):
    cfg = _config(task, body, dropout_rate)
    _check_agreement(_perturbed(build_model(cfg, seed=3)), _inputs())


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_baseline_twin_matches_tape(task):
    base = _perturbed(build_baseline(_config(task), seed=3))
    _check_agreement(base, _inputs())


@pytest.mark.parametrize("body", [(32,), (16, 8)])
def test_biases_are_rows_and_g_bias_is_0d(body):
    """Each folded bias is a (1, width) row, so a one-row query adds it on
    numpy's same-shape path; f's bias is a view of the head's row, and g's
    output bias is a 0-d float64 array."""
    net = build_model(_config(CLASSIFICATION, body=body), seed=0).freeze()
    assert [b.shape for _, b in net.body] == [(1, w) for w in body]
    assert net.head_b.shape == (1, 4 + 16) and net.f_b.shape == (1, 4)
    assert np.shares_memory(net.f_b, net.head_b)
    assert type(net.g_b) is np.ndarray and net.g_b.shape == ()
    assert net.g_b.dtype == np.float64


@pytest.mark.parametrize("g_bias", [-720.0, 720.0])
def test_saturated_selection_matches_tape(g_bias):
    """Selection logits far beyond exp's range: the stable sigmoid gives
    the oracle's tiny or unit scores, without overflow."""
    model = _perturbed(build_model(_config(CLASSIFICATION), seed=8))
    model.g_out.bias.data[...] = g_bias
    with np.errstate(over="raise"):
        _check_agreement(model, _inputs())


def test_trained_model_matches_tape():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 8))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64) + 2 * (x[:, 2] > 0)
    model = build_model(_config(CLASSIFICATION), seed=0)
    train(model, x, y, TrainConfig(epochs=5, batch_size=64, seed=0,
                                   loss=LossConfig(task_loss=CROSS_ENTROPY)))
    _check_agreement(model, _inputs(seed=5))


@pytest.mark.parametrize("baseline", [False, True], ids=["selnet", "twin"])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_eval_forward_is_the_frozen_net(task, baseline):
    """With grad enabled, eval-mode ``forward`` returns the frozen net's f
    and g bit for bit as constants off the tape, no h, and leaves the
    running statistics alone."""
    build = build_baseline if baseline else build_model
    model = _perturbed(build(_config(task, dropout_rate=0.25), seed=5))
    x = _inputs(64)
    stats = [a.copy() for a in model.running_stats()]
    f, g, h = model.forward(x)
    frozen = model.freeze()
    want_f = (softmax_rows(frozen.heads(x)[0])[0] if task == CLASSIFICATION
              else frozen.heads(x)[0])
    assert f.data.tobytes() == want_f.tobytes()
    if baseline:
        assert g is None
    else:
        assert g.data.tobytes() == model.selection_scores(x).tobytes()
        assert not g._parents and not g.requires_grad
    assert h is None
    assert not f._parents and not f.requires_grad
    for before, after in zip(stats, model.running_stats()):
        np.testing.assert_array_equal(before, after)


class TestCacheInvalidation:
    def _model(self):
        return _perturbed(build_model(_config(REGRESSION), seed=6))

    def test_repeat_call_reuses_the_frozen_net(self):
        model = self._model()
        assert model.freeze() is model.freeze()

    @pytest.mark.parametrize("edit", [
        lambda m: m.g_block.dense.weights.data.__iadd__(1.0),
        lambda m: m.f_head.bias.data.__iadd__(2.0),
        lambda m: m.body[0].bn.running_mean.__iadd__(0.5),
        lambda m: setattr(m.f_head.bias, "data", m.f_head.bias.data + 2.0),
        lambda m: setattr(m.body[0].bn, "running_var",
                          m.body[0].bn.running_var * 2.0),
    ], ids=["g_weights", "f_bias", "running_mean", "rebound_bias",
            "rebound_running_var"])
    def test_edit_after_predict_changes_next_predict(self, edit):
        model = self._model()
        x = _inputs(20)
        before_f, _ = model.predict(x)
        before_g = model.selection_scores(x)
        edit(model)
        after_f, _ = model.predict(x)
        after_g = model.selection_scores(x)
        assert not (np.array_equal(before_f, after_f)
                    and np.array_equal(before_g, after_g))
        _check_agreement(model, _inputs())

    def test_train_changes_next_predict(self):
        model = self._model()
        x = _inputs(64)
        before_f, _ = model.predict(x)
        before_g = model.selection_scores(x)
        train(model, x, x[:, 0], TrainConfig(
            epochs=1, batch_size=32, seed=0, loss=LossConfig(task_loss=SQUARED)))
        assert not np.array_equal(before_f, model.predict(x)[0])
        assert not np.array_equal(before_g, model.selection_scores(x))
        _check_agreement(model, _inputs())


def test_unchanged_model_freezes_without_a_walk(monkeypatch):
    """Once frozen, an unchanged model's freeze() is one compare of the
    two state buffers: no statistics list."""
    model = _perturbed(build_model(_config(CLASSIFICATION), seed=7))
    frozen = model.freeze()
    calls = []
    original = SelectiveNet.running_stats

    def counting(self):
        calls.append("running_stats")
        return original(self)

    monkeypatch.setattr(SelectiveNet, "running_stats", counting)
    x = _inputs(1)
    model.predict(x, tau=0.5)
    model.selection_scores(x)
    assert model.freeze() is frozen
    assert not calls


def test_n1_predict_allocates_no_tensor(monkeypatch):
    model = _perturbed(build_model(_config(CLASSIFICATION), seed=7))
    allocated = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        allocated.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    x = _inputs(1)
    model.predict(x, tau=0.5)
    model.predict(x, tau=0.5)
    model.selection_scores(x)
    assert not allocated
    model.forward(x)
    assert allocated  # the counter does see eval forward's output tensors


class TestErrors:
    @pytest.mark.parametrize("shape", [(4, 9), (8,), (2, 4, 8)])
    def test_wrong_input_shape(self, shape):
        model = build_model(_config(CLASSIFICATION), seed=0)
        x = np.zeros(shape)
        with pytest.raises(ShapeError):
            model.predict(x)
        with pytest.raises(ShapeError):
            model.selection_scores(x)

    def test_non_finite_logits(self):
        model = build_model(_config(CLASSIFICATION), seed=0)
        x = _inputs(3)
        x[1, 2] = np.nan
        with pytest.raises(DomainError):
            model.forward(x)
        with pytest.raises(DomainError):
            model.predict(x)
        model.f_head.bias.data[0] = np.inf
        with pytest.raises(DomainError):
            model.predict(_inputs(3))

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_non_finite_rows_raise_for_either_task(self, task):
        """A NaN or inf input row raises for a regression model as for a
        classifier: no NaN predictions, and no threshold from NaN scores."""
        model = build_model(_config(task), seed=0)
        x = _inputs(10)
        x[2, 1], x[6, 4] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            for serve in (model.predict, model.selection_scores,
                          lambda rows: calibrate(model, rows, 0.8)):
                with pytest.raises(DomainError):
                    serve(x)

    @pytest.mark.parametrize("n", [1, 64, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_each_non_finite_head_column_raises(self, task, value, n):
        """A non-finite bias in any one column of the folded head, f's
        (``f_head.bias``) or g's block's (``g_block.bn.shift``), raises
        from every serve path, for one row, one batch and more rows than
        one block."""
        model = _perturbed(build_model(_config(task), seed=0))
        x = _inputs(n)
        columns = [(bias, j) for bias in (model.f_head.bias.data,
                                          model.g_block.bn.shift.data)
                   for j in range(bias.size)]
        assert len(columns) == model.freeze().head_w.shape[1]
        for bias, j in columns:
            kept = bias[j]
            bias[j] = value
            for serve in (model.predict, model.selection_scores,
                          lambda rows: calibrate(model, rows, 0.8)):
                with pytest.raises(DomainError):
                    serve(x)
            bias[j] = kept
            model.predict(x[:1])  # the column alone made it fail

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_weights_that_do_not_fold_raise_when_frozen(self, task):
        """Finite weights and batchnorm scale of 1e300 fold to an infinite
        weight, and a NaN running statistic to a NaN one: freezing refuses
        either, from every serve path, with no numpy warning."""
        def huge(block):
            block.dense.weights.data.fill(1e300)
            block.bn.scale.data.fill(1e300)

        for edit in (huge, lambda block: block.bn.running_var.fill(np.nan)):
            model = build_model(_config(task), seed=0)
            edit(model.body[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for serve in (model.freeze, lambda: model.predict(_inputs(2)),
                              lambda: model.selection_scores(_inputs(2))):
                    with pytest.raises(
                            DomainError,
                            match="^folded weights are not finite$"):
                        serve()

    def test_baseline_has_no_selection_scores(self):
        base = build_baseline(_config(REGRESSION), seed=0)
        with pytest.raises(ConfigurationError):
            base.selection_scores(_inputs(2))


class TestRowBlocks:
    """Inputs around and beyond one block of ``BLOCK_ROWS`` rows."""

    SIZES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]

    @staticmethod
    def _model(task, baseline=False):
        build = build_baseline if baseline else build_model
        return _perturbed(build(_config(task), seed=9))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("baseline", [False, True], ids=["selnet", "twin"])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_matches_tape(self, task, baseline, n):
        _check_agreement(self._model(task, baseline), _inputs(n, seed=n))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("baseline", [False, True], ids=["selnet", "twin"])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_equals_per_block_calls(self, task, baseline, n):
        frozen = self._model(task, baseline).freeze()
        x = _inputs(n, seed=n)
        f, g = frozen.heads(x)
        blocks = [frozen.heads(x[i:i + BLOCK_ROWS])
                  for i in range(0, n, BLOCK_ROWS)]
        np.testing.assert_array_equal(
            f, np.concatenate([fb for fb, _ in blocks]))
        if baseline:
            assert g is None
        else:
            np.testing.assert_array_equal(
                g, np.concatenate([gb for _, gb in blocks]))

    def test_wrong_width_names_the_whole_input(self):
        x = np.zeros((BLOCK_ROWS + 1, 9))
        with pytest.raises(ShapeError, match=rf"got \({BLOCK_ROWS + 1}, 9\)"):
            self._model(CLASSIFICATION).freeze().heads(x)

    def test_non_finite_row_in_last_block(self):
        model = self._model(CLASSIFICATION)
        x = _inputs(2 * BLOCK_ROWS + 3)
        x[-1, 2] = np.nan
        with pytest.raises(DomainError):
            model.predict(x)
        with pytest.raises(DomainError):
            model.freeze().heads(x)

    def test_bulk_predict_memory(self):
        """A 1e5-row predict on the criterion-4 architecture keeps a
        working set of a few blocks, not every layer for every row."""
        cfg = ArchitectureConfig(input_dim=8, body_widths=[32],
                                 task=CLASSIFICATION, n_classes=4,
                                 selection_hidden=16, dropout_rate=0.0)
        model = build_model(cfg, seed=0)
        x = _inputs(100_000)
        tracemalloc.start()
        try:
            model.predict(x, tau=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"predict peaked at {peak / 1e6:.1f} MB"


def _mc_oracle(model, x, passes, rate, seed, task):
    """MC-dropout scores composed from the unfused oracle: each pass runs
    the eval-mode body blocks, each followed by ``DropoutLayer(rate)``, then
    the f head; the scores follow the method's definition."""
    dropout = DropoutLayer(rate)
    rng = np.random.default_rng(seed)
    outs = []
    with no_grad():
        for _ in range(passes):
            f = ref_forward(model, x, EVAL, lambda rep: dropout(rep, rng))[0]
            if task == CLASSIFICATION:
                f = ref_softmax(f)
            outs.append(f.data)
    outs = np.stack(outs)
    identical = np.all(outs == outs[0], axis=0)
    if task == CLASSIFICATION:
        consensus = outs.mean(axis=0).argmax(axis=1)
        var = outs[:, np.arange(outs.shape[1]), consensus].var(axis=0)
        var[np.all(identical, axis=1)] = 0.0
    else:
        var = outs.var(axis=0)
        var[identical] = 0.0
    return -var


def _matmul_heads(net, x):
    """``FrozenNet.heads`` written with ``@`` and allocating expressions:
    the same arithmetic."""
    for w, b in net.body:
        x = np.maximum(x @ w + b, 0.0)
    z = x @ net.head_w + net.head_b
    f = z[:, :net.n_f] if net.classification else z[:, 0]
    if net.g_w is None:
        return f, None
    return f, stable_sigmoid(np.maximum(z[:, net.n_f:], 0.0) @ net.g_w
                             + net.g_b)


def _matmul_dropout_f(net, x, rate, rng):
    """``FrozenNet.dropout_f`` at a rate above 0, written the same way."""
    for w, b in net.body:
        x = np.maximum(x @ w + b, 0.0)
        x = x * ((rng.random(x.shape) >= rate) / (1.0 - rate))
    z = x @ net.head_w[:, :net.n_f] + net.f_b
    return softmax_rows(z)[0] if net.classification else z[:, 0]


# The benchmark's serving shapes: n=1 and n=64 predict and the 1199-row
# calibration split, on the criterion-4 and compare_reg architectures.
SERVING_ROWS = pytest.mark.parametrize("n", [1, 64, 1199])
SERVING_NETS = pytest.mark.parametrize("task, body", [(CLASSIFICATION, (32,)),
                                                      (REGRESSION, (64,))])


def _assert_matmul_bytes(model, n):
    net, x = model.freeze(), _inputs(n, seed=n)
    got, want = net.heads(x), _matmul_heads(net, x)
    assert got[0].tobytes() == want[0].tobytes()
    if model.selective:
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] is None and want[1] is None
    got = net.dropout_f(x, 0.5, np.random.default_rng(5))
    want = _matmul_dropout_f(net, x, 0.5, np.random.default_rng(5))
    assert got.tobytes() == want.tobytes()


@SERVING_ROWS
@SERVING_NETS
def test_frozen_products_give_the_bytes_of_matmul(task, body, n):
    """At the serving shapes, on the selective models."""
    _assert_matmul_bytes(
        _perturbed(build_model(_config(task, body=body), seed=4)), n)


@SERVING_ROWS
@SERVING_NETS
def test_twin_frozen_products_give_the_bytes_of_matmul(task, body, n):
    """At the serving shapes, on the twins, on which serving runs
    MC-dropout."""
    _assert_matmul_bytes(
        _perturbed(build_baseline(_config(task, body=body), seed=4)), n)


@SERVING_NETS
def test_batch_sizes_agree_to_rounding(task, body):
    """f and g of one-row and 64-row calls lie within 1e-12 of the same
    rows of one 1199-row call, relative to the largest output of the call
    (an output near 0 carries the rounding of its larger terms), with the
    same class predictions. They are not the same bytes: BLAS picks
    another kernel for one row."""
    net = _perturbed(build_model(_config(task, body=body), seed=4)).freeze()
    x = _inputs(1199, seed=1199)
    whole = net.heads(x)
    for rows in (1, 64):
        parts = [net.heads(x[i:i + rows]) for i in range(0, len(x), rows)]
        f, g = (np.concatenate(out) for out in zip(*parts))
        for got, want in zip((f, g), whole):
            assert _rel_err(got, want) <= 1e-12
        if task == CLASSIFICATION:
            assert np.array_equal(f.argmax(axis=1), whole[0].argmax(axis=1))


class TestMCDropoutOnFrozen:
    @pytest.mark.parametrize("reference_rate", [False, True],
                             ids=["rate0", "reference_rate"])
    @pytest.mark.parametrize("body", [(32,), (16, 8)])
    @pytest.mark.parametrize("baseline", [False, True], ids=["selnet", "twin"])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_matches_tape_oracle(self, task, baseline, body, reference_rate):
        """At rate 0 and at the task's reported rate (0.5 / 0.05)."""
        settings = (MC_DROPOUT_CLASSIFICATION if task == CLASSIFICATION
                    else MC_DROPOUT_REGRESSION)
        rate = settings["rate"] if reference_rate else 0.0
        build = build_baseline if baseline else build_model
        model = build(_config(task, body=body, dropout_rate=0.25), seed=10)
        for mean, var in zip(*[iter(model.running_stats())] * 2):
            mean += 0.1  # a batchnorm fold that is not the identity
            var *= 2.0
        x = _inputs(150, seed=11)
        got = mc_dropout_confidence(model, x, 30, rate, 12, task)
        want = _mc_oracle(model, x, 30, rate, 12, task)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        if rate == 0.0:
            assert np.all(got == 0.0)

    def test_model_dropout_rate_unchanged(self):
        model = build_baseline(_config(CLASSIFICATION, body=(16, 8),
                                       dropout_rate=0.25), seed=0)
        mc_dropout_confidence(model, _inputs(20), 5, 0.5, 0, CLASSIFICATION)
        assert [b.dropout.rate for b in model.body] == [0.25, 0.25]

    def test_zero_rate_draws_no_mask(self):
        model = build_baseline(_config(REGRESSION), seed=0)
        rng = np.random.default_rng(3)
        model.freeze().dropout_f(_inputs(20), 0.0, rng)
        assert rng.random() == np.random.default_rng(3).random()

    def test_non_finite_regression_outputs(self):
        model = build_baseline(_config(REGRESSION), seed=0)
        x = _inputs(5)
        x[3, 0] = np.nan
        with pytest.raises(DomainError):
            mc_dropout_confidence(model, x, 2, 0.5, 0, REGRESSION)

    def test_non_finite_logits(self):
        model = build_baseline(_config(CLASSIFICATION),
                               seed=0)
        x = _inputs(5)
        x[3, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DomainError):
            mc_dropout_confidence(model, x, 2, 0.5, 0, CLASSIFICATION)
