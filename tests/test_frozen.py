"""The frozen inference path against the tape's eval-mode forward.

``SelectiveNet.freeze()`` folds batchnorm into the dense layers and fuses f
with g's first layer, so its outputs differ from ``forward(x, EVAL)`` only
by rounding; predictions and accept masks must not differ at all.
"""

import numpy as np
import pytest

from selpred.autograd import DomainError, ShapeError, Tensor, no_grad
from selpred.layers import EVAL, ConfigurationError
from selpred.losses import CROSS_ENTROPY, SQUARED, LossConfig
from selpred.model import (
    CLASSIFICATION,
    REGRESSION,
    ArchitectureConfig,
    build_baseline,
    build_model,
)
from selpred.optim import TrainConfig, train
from selpred.persist import load_model, save_model

RTOL = 1e-12


def _config(task, batchnorm=True, body=(32,), dropout_rate=None):
    return ArchitectureConfig(
        input_dim=8, body_widths=list(body), task=task,
        n_classes=4 if task == CLASSIFICATION else 0, selection_hidden=16,
        batchnorm=batchnorm, dropout_rate=dropout_rate)


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


def _check_agreement(model, x):
    """Frozen f, g, predictions and accept masks against the tape."""
    with no_grad():
        f_tape, g_tape, _ = model.forward(x, EVAL)
    frozen = model.freeze()
    f, g = frozen.heads(x)
    if model.config.task == CLASSIFICATION:
        assert _rel_err(frozen.probabilities(x), f_tape.data) <= RTOL
        expected = np.argmax(f_tape.data, axis=1)
    else:
        assert _rel_err(f, f_tape.data) <= RTOL
        expected = f_tape.data
    if g_tape is None:
        assert g is None
        preds, accepted = model.predict(x, tau=0.99)
        assert accepted.all()
    else:
        assert _rel_err(g, g_tape.data) <= RTOL
        np.testing.assert_array_equal(model.selection_scores(x), g)
        # a threshold halfway between two tape scores: no row sits on it
        s = np.sort(g_tape.data)
        tau = 0.5 * (s[len(s) // 2 - 1] + s[len(s) // 2])
        preds, accepted = model.predict(x, tau=tau)
        np.testing.assert_array_equal(accepted, g_tape.data >= tau)
    if model.config.task == CLASSIFICATION:
        np.testing.assert_array_equal(preds, expected)
    else:
        assert _rel_err(preds, expected) <= RTOL


@pytest.mark.parametrize("dropout_rate", [None, 0.0, 0.25])
@pytest.mark.parametrize("body", [(32,), (16, 8)])
@pytest.mark.parametrize("batchnorm", [True, False])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_frozen_matches_tape(task, batchnorm, body, dropout_rate):
    cfg = _config(task, batchnorm, body, dropout_rate)
    _check_agreement(_perturbed(build_model(cfg, seed=3)), _inputs())


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_baseline_twin_matches_tape(task):
    base = _perturbed(build_baseline(_config(task, dropout_rate=0.0), seed=3))
    _check_agreement(base, _inputs())


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_inference_only_checkpoint_matches_tape(task, tmp_path):
    model = _perturbed(build_model(_config(task), seed=4))
    x = _inputs()
    save_model(model, None, tmp_path / "slim.ckpt", inference_only=True)
    slim, _ = load_model(tmp_path / "slim.ckpt")
    assert slim.h_head is None
    _check_agreement(slim, x)
    full, slim_out = model.freeze().heads(x), slim.freeze().heads(x)
    for a, b in zip(full, slim_out):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("g_bias", [-720.0, 720.0])
def test_saturated_selection_matches_tape(g_bias):
    """Selection logits far beyond exp's range: the stable sigmoid gives
    the tape's tiny or unit scores, without overflow."""
    model = _perturbed(build_model(_config(CLASSIFICATION), seed=8))
    model.g_out.bias.data[...] = g_bias
    with np.errstate(over="raise"):
        _check_agreement(model, _inputs())


def test_trained_model_matches_tape():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 8))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64) + 2 * (x[:, 2] > 0)
    model = build_model(_config(CLASSIFICATION, dropout_rate=0.0), seed=0)
    train(model, x, y, TrainConfig(epochs=5, batch_size=64, seed=0,
                                   loss=LossConfig(task_loss=CROSS_ENTROPY)))
    _check_agreement(model, _inputs(seed=5))


class TestCacheInvalidation:
    def _model(self):
        return _perturbed(build_model(_config(REGRESSION), seed=6))

    def test_repeat_call_reuses_the_frozen_net(self):
        model = self._model()
        assert model.freeze() is model.freeze()

    @pytest.mark.parametrize("edit", [
        lambda m: m.g_hidden.weights.data.__iadd__(1.0),
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
    assert allocated  # the counter does see tape allocations


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

    def test_probabilities_need_a_classifier(self):
        model = build_model(_config(REGRESSION), seed=0)
        with pytest.raises(ConfigurationError):
            model.freeze().probabilities(_inputs(2))

    def test_baseline_has_no_selection_scores(self):
        base = build_baseline(_config(REGRESSION), seed=0)
        with pytest.raises(ConfigurationError):
            base.selection_scores(_inputs(2))
