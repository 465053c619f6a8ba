"""Update rules, schedule, and the training loop's contracts."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selpred.autograd import Parameter, Parameters, zero_grads
from selpred.checks import (CLASSIFICATION, REGRESSION, ConfigurationError,
                            DomainError)
from selpred.losses import CROSS_ENTROPY, SQUARED, LossConfig
from selpred.model import ArchitectureConfig, build_model
from selpred.optim import (
    SGD,
    Adam,
    TrainConfig,
    TrainingDivergedError,
    _batches,
    lr_schedule,
    train,
)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("bad", [True, 3.0, "3"],
                             ids=["bool", "float", "string"])
    @pytest.mark.parametrize("field",
                             ["epochs", "batch_size", "lr_halving_period"])
    def test_non_integer_field_is_named(self, field, bad):
        """``epochs: true`` would otherwise train 1 epoch, and
        ``batch_size: "64"`` fail on comparing a str with an int."""
        with pytest.raises(ConfigurationError,
                           match=f"^{field}: {bad!r} is not an integer$"):
            TrainConfig(**{field: bad}).validate()

    def test_negative_halving_period_rejected(self):
        with pytest.raises(ConfigurationError, match="lr_halving_period"):
            TrainConfig(lr_halving_period=-1).validate()

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay",
                                       "momentum"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_field_is_named(self, field, bad):
        """An infinite learning rate would otherwise train to NaN
        parameters and save them."""
        with pytest.raises(ConfigurationError,
                           match=f"^{field}: {bad!r} is not finite$"):
            TrainConfig(**{field: bad}).validate()

    @pytest.mark.parametrize("field, bad, message", [
        ("weight_decay", -50.0,
         r"weight_decay must lie in \[0, inf\), got -50.0"),
        ("momentum", 1.0, r"momentum must lie in \[0, 1\), got 1.0"),
        ("momentum", -0.1, r"momentum must lie in \[0, 1\), got -0.1"),
        ("optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
    ], ids=["weight-decay-negative", "momentum-one", "momentum-negative",
            "optimizer-unknown"])
    def test_out_of_range_field_is_named(self, field, bad, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            TrainConfig(**{field: bad}).validate()

    def test_int_too_large_for_a_float_is_named(self):
        with pytest.raises(ConfigurationError,
                           match="^learning_rate: 1000+ is not finite$"):
            TrainConfig(learning_rate=10**400).validate()

    def test_range_ends_accepted(self):
        TrainConfig(weight_decay=0.0, momentum=0.0).validate()
        TrainConfig(momentum=0.999).validate()


class TestSGD:
    def test_first_step_is_plain_gradient(self):
        p = Parameter([1.0])
        p.grad = np.array([2.0])
        SGD(Parameters([p]), lr=0.1, momentum=0.9).step()
        assert p.data[0] == pytest.approx(0.8, abs=1e-15)

    def test_momentum_accumulates(self):
        p = Parameter([0.0])
        opt = SGD(Parameters([p]), lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-2.5
        assert p.data[0] == pytest.approx(-2.5, abs=1e-12)

    def test_weight_decay_pulls_toward_zero(self):
        p = Parameter([10.0])
        p.grad = np.array([0.0])
        SGD(Parameters([p]), lr=0.1, momentum=0.0, weight_decay=0.1).step()
        assert p.data[0] == pytest.approx(10.0 - 0.1 * 0.1 * 10.0, abs=1e-12)


    def test_one_step_closed_form(self):
        # two parameters in one flat buffer; decay outside the momentum buffer
        a = Parameter([[1.0, -2.0], [0.5, 3.0]])
        b = Parameter([4.0])
        opt = SGD(Parameters([a, b]), lr=0.1, momentum=0.9, weight_decay=0.01)
        a0, b0 = a.data.copy(), b.data.copy()
        ga, gb = np.array([[0.3, -0.1], [0.2, 0.0]]), np.array([-1.5])
        a.grad, b.grad = ga, gb
        opt.step()
        np.testing.assert_array_equal(a.data, a0 - 0.1 * (ga + 0.01 * a0))
        np.testing.assert_array_equal(b.data, b0 - 0.1 * (gb + 0.01 * b0))
        np.testing.assert_array_equal(opt.velocity, np.concatenate(
            [ga.reshape(-1), gb]))


    def test_takes_only_a_parameters(self):
        p = Parameter([1.0])
        with pytest.raises(TypeError):
            SGD([p], lr=0.1)
        assert not p._held


class TestAdam:
    def test_one_step_closed_form(self):
        # Adam update with bias correction, then decoupled decay (AdamW)
        a = Parameter([[1.0, -2.0], [0.5, 3.0]])
        b = Parameter([4.0])
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        opt = Adam(Parameters([a, b]), lr, weight_decay=wd)
        a0, b0 = a.data.copy(), b.data.copy()
        ga, gb = np.array([[0.3, -0.1], [0.2, 0.0]]), np.array([-1.5])
        a.grad, b.grad = ga, gb
        opt.step()
        for p, p0, g in ((a, a0, ga), (b, b0, gb)):
            m, v = (1.0 - b1) * g, (1.0 - b2) * g * g
            moved = p0 - lr * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + eps)
            np.testing.assert_array_equal(p.data, moved - lr * wd * moved)

    def test_decay_is_decoupled(self):
        # with a zero gradient only the decay acts, and it never enters m, v
        p = Parameter([2.0, -4.0])
        opt = Adam(Parameters([p]), lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [2.0 - 0.05 * 2.0,
                                               -4.0 - 0.05 * -4.0])
        assert not opt.m.any() and not opt.v.any()

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the very first step exactly lr in magnitude
        # (up to eps), regardless of gradient scale
        for g in (1e-4, 1.0, 1e4):
            p = Parameter([0.0])
            opt = Adam(Parameters([p]), lr=0.01)
            p.grad = np.array([g])
            opt.step()
            assert p.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_zero_gradient_is_stationary_without_decay(self):
        p = Parameter([3.0])
        opt = Adam(Parameters([p]), lr=0.1, weight_decay=0.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] == 3.0

    def test_converges_on_quadratic(self):
        p = Parameter([5.0])
        opt = Adam(Parameters([p]), lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_takes_only_a_parameters(self):
        p = Parameter([1.0])
        with pytest.raises(TypeError):
            Adam([p], lr=0.1)
        assert not p._held


def test_model_buffer_survives_a_second_optimizer():
    """A second buffer over the model's leaves is refused before any leaf
    is touched: an optimizer given a plain list of them, one given a new
    ``Parameters`` of them, a leaf listed twice, or a held leaf beside a
    free one, which stays free."""
    model = _toy_model()
    params = model.parameters()
    params.grad[...] = np.arange(params.grad.size)
    data, grad = params.data.copy(), params.grad.copy()
    views = [(p.data, p.grad) for p in params]
    w = model.f_head.weights
    free = Parameter([1.0, 2.0])
    free_data = free.data
    for error, build in ((TypeError, lambda: SGD(list(params), lr=0.1)),
                         (ValueError,
                          lambda: SGD(Parameters(list(params)), lr=0.1)),
                         (ValueError, lambda: Parameters([w, w])),
                         (ValueError, lambda: Parameters([free, free])),
                         (ValueError, lambda: Parameters([free, w]))):
        with pytest.raises(error):
            build()
        np.testing.assert_array_equal(params.data, data)
        np.testing.assert_array_equal(params.grad, grad)
        for p, (d, g) in zip(params, views):
            assert p.data is d and p.grad is g
        assert not free._held and free.data is free_data and free.grad is None
    # a plain list's reset zeroes the views and keeps them
    zero_grads(list(params))
    assert not params.grad.any()
    for p, (_, g) in zip(params, views):
        assert p.grad is g and np.shares_memory(p.grad, params.grad)


class TestSchedule:
    def test_sgd_halving(self):
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1, lr_halving_period=25)
        assert lr_schedule(0, cfg) == 0.1
        assert lr_schedule(24, cfg) == 0.1
        assert lr_schedule(25, cfg) == pytest.approx(0.05)
        assert lr_schedule(75, cfg) == pytest.approx(0.0125)

    def test_adam_constant(self):
        cfg = TrainConfig(optimizer="adam", learning_rate=5e-4)
        assert lr_schedule(500, cfg) == 5e-4

    def test_negative_epoch(self):
        with pytest.raises(ConfigurationError):
            lr_schedule(-1, TrainConfig())

    def test_nonincreasing(self):
        cfg = TrainConfig(optimizer="sgd", learning_rate=1.0, lr_halving_period=10)
        rates = [lr_schedule(e, cfg) for e in range(100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestBatching:
    def test_trailing_singleton_merged(self):
        out = _batches(np.arange(9), 4)
        assert [len(b) for b in out] == [4, 5]

    def test_partition_is_exact(self):
        out = _batches(np.arange(23), 5)
        np.testing.assert_array_equal(np.concatenate(out), np.arange(23))

    @settings(max_examples=200)
    @given(batch_size=st.integers(1, 64), full=st.integers(0, 5),
           rest=st.integers(0, 63), seed=st.integers(0, 2**32 - 1))
    @example(batch_size=4, full=1, rest=1, seed=0)
    def test_every_index_once_and_no_singleton_under_batchnorm(
            self, batch_size, full, rest, seed):
        m = max(1, full * batch_size + rest % batch_size)
        indices = np.random.default_rng(seed).permutation(m)
        out = _batches(indices, batch_size)
        np.testing.assert_array_equal(np.concatenate(out), indices)
        if m >= 2 and batch_size >= 2:  # as train() enforces
            assert min(len(b) for b in out) >= 2


def _toy_dataset(seed=0, m=128):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return x, y


def _toy_train_config(**kw):
    base = dict(epochs=5, batch_size=32, seed=0,
                loss=LossConfig(target_coverage=0.8, task_loss=CROSS_ENTROPY))
    base.update(kw)
    return TrainConfig(**base)


def _toy_model(seed=0, **kw):
    cfg = ArchitectureConfig(input_dim=4, body_widths=[16],
                             task=CLASSIFICATION, n_classes=2,
                             selection_hidden=8, **kw)
    return build_model(cfg, seed)


class TestTrainLoop:
    def test_history_shape_and_determinism(self):
        x, y = _toy_dataset()
        h1 = train(_toy_model(), x, y, _toy_train_config())
        h2 = train(_toy_model(), x, y, _toy_train_config())
        assert len(h1.total_loss) == 5
        assert h1.total_loss == h2.total_loss
        assert h1.soft_coverage == h2.soft_coverage

    @pytest.mark.parametrize("task, dropout_rate", [
        (REGRESSION, 0.0), (CLASSIFICATION, 0.2)])
    def test_steps_leave_no_reference_cycle(self, task, dropout_rate):
        """Each step's graph is freed by reference counting alone: with the
        cycle collector off, a few epochs leave no unreachable object. A
        cycle through the tape would keep every step's arrays alive until
        a collection."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        if task == REGRESSION:
            y, n_classes, loss = rng.normal(size=200), 0, LossConfig()
        else:
            y, n_classes = rng.integers(0, 3, size=200), 3
            loss = LossConfig(task_loss=CROSS_ENTROPY)
        model = build_model(ArchitectureConfig(
            input_dim=3, body_widths=[8], task=task, n_classes=n_classes,
            selection_hidden=4, dropout_rate=dropout_rate), 0)
        gc.collect()
        gc.disable()
        try:
            train(model, x, y, TrainConfig(epochs=3, batch_size=64, seed=0,
                                           loss=loss))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_one_row_fails_before_any_update(self, batch_size):
        """Batchnorm needs two rows in a batch: one row fails up front,
        naming the row count (or the batch size, which must be >= 2 too),
        not inside the first forward."""
        x, y = _toy_dataset(m=1)
        model = _toy_model()
        before = model.state()[0].copy()
        message = ("training rows must be >= 2 for batchnorm, got 1"
                   if batch_size > 1 else "batch_size must be >= 2, got 1")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            train(model, x, y, _toy_train_config(batch_size=batch_size))
        assert model.state()[0].tobytes() == before.tobytes()

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_numpy_float32_rates_train_as_their_python_floats(self,
                                                              optimizer):
        """``validate`` keeps the plain floats it checked: a float32
        learning rate and weight decay train to the same bytes as the same
        values written as Python floats (``lr * wd`` stays float64)."""
        x, y = _toy_dataset(m=360)
        lr, wd = np.float32(2e-3), np.float32(1e-2)
        states = []
        for rate, decay in ((lr, wd), (float(lr), float(wd))):
            model = _toy_model()
            history = train(model, x, y, _toy_train_config(
                epochs=3, optimizer=optimizer, learning_rate=rate,
                weight_decay=decay))
            states.append((model.state()[0].tobytes(), history))
        assert states[0] == states[1]

    def test_loss_decreases(self):
        x, y = _toy_dataset()
        cfg = _toy_train_config(epochs=40, learning_rate=2e-3)
        h = train(_toy_model(), x, y, cfg)
        assert h.total_loss[-1] < h.total_loss[0]

    def test_stamps_target_coverage(self):
        x, y = _toy_dataset()
        model = _toy_model()
        train(model, x, y, _toy_train_config())
        assert model.trained_coverage == 0.8
        # target_coverage names only the loss config's and calibration's
        assert not hasattr(model, "target_coverage")

    def test_soft_coverage_tracks_target(self):
        x, y = _toy_dataset(m=512)
        model = _toy_model(seed=1)
        cfg = _toy_train_config(epochs=60, learning_rate=2e-3, seed=1)
        cfg.loss.target_coverage = 0.7
        h = train(model, x, y, cfg)
        assert abs(h.soft_coverage[-1] - 0.7) < 0.15

    @pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
    def test_divergence_detected(self, task):
        """An absurd step size diverges either task: the regression run's
        selection head collapses to zero, and the classifier's logits
        overflow, which cross-entropy refuses."""
        rng = np.random.default_rng(0)
        if task == REGRESSION:
            x, y = rng.normal(size=(64, 3)), rng.normal(size=64)
            cfg = ArchitectureConfig(input_dim=3, body_widths=[8],
                                     task=REGRESSION, selection_hidden=4)
            tcfg = TrainConfig(optimizer="sgd", learning_rate=1e12,
                               momentum=0.0, epochs=10, batch_size=32, seed=0)
        else:
            x, y = rng.normal(size=(600, 3)), rng.integers(0, 3, size=600)
            cfg = ArchitectureConfig(input_dim=3, body_widths=[16],
                                     task=CLASSIFICATION, n_classes=3,
                                     selection_hidden=4)
            tcfg = TrainConfig(optimizer="sgd", learning_rate=1e150,
                               momentum=0.0, epochs=10, batch_size=32, seed=0,
                               loss=LossConfig(task_loss=CROSS_ENTROPY))
        with warnings.catch_warnings(), pytest.raises(TrainingDivergedError):
            warnings.simplefilter("error")
            train(build_model(cfg, 0), x, y, tcfg)

    @pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
    def test_non_finite_parameters_after_the_last_update_detected(self, task):
        """One full batch under Adam at an absurd step size: the loss was
        finite, but the one update leaves non-finite parameters, which
        train() refuses rather than returns, with no numpy warning."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        if task == REGRESSION:
            y, n_classes, loss = rng.normal(size=64), 0, LossConfig()
        else:
            y, n_classes = rng.integers(0, 3, size=64), 3
            loss = LossConfig(task_loss=CROSS_ENTROPY)
        model = build_model(ArchitectureConfig(
            input_dim=3, body_widths=[8], task=task, n_classes=n_classes,
            selection_hidden=4), 0)
        with warnings.catch_warnings(), pytest.raises(
                TrainingDivergedError,
                match="^non-finite parameters after the last update$"):
            warnings.simplefilter("error")
            train(model, x, y, TrainConfig(learning_rate=1e300, epochs=1,
                                           batch_size=64, seed=0, loss=loss))

    @pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
    def test_finite_parameters_that_do_not_fold_detected(self, task):
        """One full batch under SGD at an absurd step size leaves finite
        parameters near 1e300, whose batchnorm fold overflows: train()
        refuses them rather than return a model that cannot serve, with no
        numpy warning."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        if task == REGRESSION:
            y, n_classes, loss = rng.normal(size=64), 0, LossConfig()
        else:
            y, n_classes = rng.integers(0, 3, size=64), 3
            loss = LossConfig(task_loss=CROSS_ENTROPY)
        model = build_model(ArchitectureConfig(
            input_dim=3, body_widths=[8], task=task, n_classes=n_classes,
            selection_hidden=4), 0)
        with warnings.catch_warnings(), pytest.raises(
                TrainingDivergedError,
                match="^the trained weights do not fold to finite arrays$"):
            warnings.simplefilter("error")
            train(model, x, y, TrainConfig(
                optimizer="sgd", learning_rate=1e300, epochs=1,
                batch_size=64, seed=0, loss=loss))
        assert np.isfinite(model.state()[0]).all()

    @staticmethod
    def _diverges_before_the_update(target):
        """train() on targets of ``target`` raises at the first batch, with
        no numpy warning, and leaves the parameters as they were."""
        rng = np.random.default_rng(0)
        model = build_model(ArchitectureConfig(
            input_dim=3, body_widths=[8], task=REGRESSION,
            selection_hidden=4), 0)
        params = model.state()[0].tobytes()
        with warnings.catch_warnings(), pytest.raises(
                TrainingDivergedError,
                match="^non-finite loss at epoch 0, batch 0$"):
            warnings.simplefilter("error")
            train(model, rng.normal(size=(64, 3)), np.full(64, target),
                  TrainConfig(epochs=1, batch_size=32, seed=0))
        assert model.state()[0].tobytes() == params

    def test_non_finite_loss_detected_before_the_update(self):
        """Targets of 1e200 square to inf in the first batch's loss."""
        self._diverges_before_the_update(1e200)

    def test_loss_whose_batch_sum_overflows_detected_before_the_update(self):
        """Targets of 1e154 square to finite values whose batch sum
        overflows."""
        self._diverges_before_the_update(1e154)

    @pytest.mark.parametrize("task, field", [
        (CLASSIFICATION, "features"), (REGRESSION, "features"),
        (REGRESSION, "labels")])
    def test_non_finite_input_named_before_the_first_step(self, task,
                                                          field):
        """A NaN feature or regression target would only show as a
        non-finite loss at the first batch, blamed on training."""
        x, y = _toy_dataset(m=64)
        model = _toy_model()
        cfg = _toy_train_config(epochs=1)
        if task == REGRESSION:
            model = build_model(ArchitectureConfig(
                input_dim=4, body_widths=[8], task=REGRESSION,
                selection_hidden=4), 0)
            y = y.astype(np.float64)
            cfg = TrainConfig(epochs=1, batch_size=32, seed=0)
        (x if field == "features" else y)[5] = np.nan
        before = model.state()[0].tobytes()
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be finite$"):
            train(model, x, y, cfg)
        assert model.state()[0].tobytes() == before

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigurationError):
            train(_toy_model(), np.zeros((0, 4)), np.zeros(0), _toy_train_config())

    def test_more_labels_than_rows_rejected(self):
        x, y = _toy_dataset(m=300)
        with pytest.raises(ConfigurationError, match="300 labels"):
            train(_toy_model(), x, np.concatenate([y, y[:100]]),
                  _toy_train_config(epochs=1))

    @pytest.mark.parametrize("bad, first", [
        (7, "7"), (1.7, "1.7"), (-1, "-1"), (np.nan, "nan")],
        ids=["out-of-range", "fraction", "negative", "nan"])
    def test_bad_label_in_last_batch_rejected_before_any_update(self, bad,
                                                                first):
        """A bad label would otherwise fail only once its batch came, after
        earlier batches had changed the parameters (or, for 1.7, train as
        class 1). Every label is checked before the first update, so the
        test holds in any batch order."""
        x, y = _toy_dataset(m=300)
        y = np.append(y[:-1], bad)  # int64 but for the float labels
        model = _toy_model()
        before = [a.tobytes() for a in model.state()]
        with pytest.raises(DomainError, match=rf"^class label {first} is not "
                                              r"an integer in \[0, 2\)$"):
            train(model, x, y, _toy_train_config(epochs=1))
        assert [a.tobytes() for a in model.state()] == before

    @pytest.mark.parametrize("labels", [
        lambda y: y.astype(str), lambda y: y.astype(bool)],
        ids=["string", "bool"])
    def test_non_numeric_labels_rejected(self, labels):
        x, y = _toy_dataset(m=300)
        with pytest.raises(DomainError, match="^class label .* is not an "
                                              "integer"):
            train(_toy_model(), x, labels(y), _toy_train_config(epochs=1))

    def test_integral_float_labels_train_as_their_integers(self):
        x, y = _toy_dataset(m=300)
        cfg = _toy_train_config(epochs=2)
        as_ints = _toy_model()
        as_floats = _toy_model()
        assert (train(as_floats, x, y.astype(np.float64), cfg)
                == train(as_ints, x, y, cfg))
        assert (as_floats.state()[0].tobytes()
                == as_ints.state()[0].tobytes())

    def test_cross_entropy_on_a_regression_model_rejected(self):
        x, y = _toy_dataset(m=300)
        model = build_model(ArchitectureConfig(
            input_dim=4, body_widths=[8], task=REGRESSION,
            selection_hidden=4), 0)
        with pytest.raises(ConfigurationError,
                           match="^task_loss 'cross-entropy' does not apply "
                                 "to a regression model$"):
            train(model, x, y.astype(np.float64), _toy_train_config(epochs=1))

    def test_squared_loss_on_a_classifier_rejected(self):
        x, y = _toy_dataset(m=300)
        cfg = _toy_train_config(epochs=1,
                                loss=LossConfig(task_loss=SQUARED))
        with pytest.raises(ConfigurationError,
                           match="^task_loss 'squared' does not apply to a "
                                 "classification model$"):
            train(_toy_model(), x, y, cfg)

    def test_fewer_labels_than_rows_rejected(self):
        x, y = _toy_dataset(m=300)
        with pytest.raises(ConfigurationError, match=r"shape \(200,\)"):
            train(_toy_model(), x, y[:200], _toy_train_config(epochs=1))

    def test_label_list_trains_as_its_array(self):
        x, y = _toy_dataset(m=300)
        cfg = _toy_train_config(epochs=2)
        from_list = train(_toy_model(), x, y.tolist(), cfg)
        assert from_list == train(_toy_model(), x, y, cfg)

    def test_batch_size_one_with_batchnorm_rejected(self):
        x, y = _toy_dataset()
        with pytest.raises(ConfigurationError):
            train(_toy_model(), x, y, _toy_train_config(batch_size=1))

    def test_baseline_history_reports_full_coverage(self):
        from selpred.model import build_baseline
        x, y = _toy_dataset()
        cfg = ArchitectureConfig(input_dim=4, body_widths=[16],
                                 task=CLASSIFICATION, n_classes=2)
        model = build_baseline(cfg, 0)
        h = train(model, x, y, _toy_train_config())
        assert all(v == 1.0 for v in h.soft_coverage)
        assert model.trained_coverage == 1.0

    def test_regression_squared_loss_path(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(96, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=96)
        cfg = ArchitectureConfig(input_dim=3, body_widths=[16],
                                 task=REGRESSION, selection_hidden=8)
        model = build_model(cfg, 0)
        h = train(model, x, y, TrainConfig(epochs=30, batch_size=32,
                                           learning_rate=2e-3, seed=0))
        assert h.total_loss[-1] < h.total_loss[0]
