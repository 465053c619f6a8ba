"""Objective components: task losses, penalty, selective risk, combination."""

import re

import numpy as np
import pytest

from oracles import row_major_cross_entropy, row_major_softmax
from selpred.autograd import (Parameter, Tensor, finite_difference_check,
                              sigmoid)
from selpred.checks import (
    ConfigurationError,
    ContractError,
    DegenerateCoverageError,
    DomainError,
    ShapeError,
)
from selpred.losses import (
    CROSS_ENTROPY,
    SQUARED,
    LossConfig,
    auxiliary_loss,
    empirical_coverage,
    empirical_selective_risk,
    psi,
    selective_loss,
    task_loss,
    total_loss,
)
from selpred.layers import softmax_rows


class TestTaskLoss:
    def test_cross_entropy_certain_correct(self):
        out = task_loss(CROSS_ENTROPY, Tensor([[40.0, 0.0]]), [0])
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_uniform_ten_classes(self):
        out = task_loss(CROSS_ENTROPY, Tensor(np.zeros((1, 10))), [3])
        assert out.data[0] == pytest.approx(np.log(10.0), abs=1e-12)

    def test_cross_entropy_confidently_wrong_softmax(self):
        # log-softmax: the loss is not capped and the gradient does not
        # vanish on a confidently wrong sample
        logits = Parameter([[40.0, 0.0, 0.0]])
        out = task_loss(CROSS_ENTROPY, logits, [1])
        assert out.data[0] == pytest.approx(40.0, abs=1e-12)
        out.sum().backward()
        np.testing.assert_allclose(logits.grad, [[1.0, -1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (2, 2, 2)],
                             ids=["vector", "one-class", "three-d"])
    def test_cross_entropy_logits_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match=(
                r"^cross-entropy expects \(batch, classes>=2\) logits, "
                rf"got {re.escape(str(shape))}$")):
            task_loss(CROSS_ENTROPY, Tensor(np.zeros(shape)), [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cross_entropy_non_finite_logits_rejected(self, bad):
        with pytest.raises(DomainError,
                           match="^cross-entropy requires finite logits$"):
            task_loss(CROSS_ENTROPY, Tensor([[0.0, 1.0], [bad, 0.0]]), [0, 1])

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(DomainError):
            task_loss(CROSS_ENTROPY, Tensor(np.zeros((1, 2))), [2])

    @pytest.mark.parametrize("labels, first", [
        ([0.0, 1.7], "1.7"), ([0, -1], "-1"), ([0.0, np.nan], "nan"),
        (["1", "0"], "'1'"), ([True, False], "True"),
    ], ids=["fraction", "negative", "nan", "string", "bool"])
    def test_cross_entropy_label_that_is_not_a_class_index(self, labels,
                                                           first):
        """A fractional label would be truncated by ``astype(int64)``, and
        a string or a bool read as its integer."""
        with pytest.raises(DomainError, match=rf"^class label {first} is not "
                                              r"an integer in \[0, 2\)$"):
            task_loss(CROSS_ENTROPY, Tensor(np.zeros((2, 2))), labels)

    def test_cross_entropy_integral_float_labels_are_indices(self):
        pred = Tensor(np.log([[0.25, 0.75], [0.5, 0.5]]))
        np.testing.assert_array_equal(
            task_loss(CROSS_ENTROPY, pred, [1.0, 0.0]).data,
            task_loss(CROSS_ENTROPY, pred, [1, 0]).data)

    @pytest.mark.parametrize("m", [1, 2, 5, 106, 256])
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 9, 12, 20])
    def test_cross_entropy_equals_row_major_bytes(self, k, m):
        """``softmax_rows``' probabilities and the cross-entropy node's
        value and gradient are the row-major formula's bytes, below 8
        classes and from 8 up. Rows are scaled by up to 700, and the first
        row's smallest exponential underflows to 0."""
        rng = np.random.default_rng(100 * k + m)
        scale = np.array([700.0, 1.0, 30.0])[np.arange(m) % 3, None]
        z = rng.normal(size=(m, k)) * scale
        z[0, :2] = 700.0, -700.0
        labels = rng.integers(0, k, size=m)
        g = rng.normal(size=m)
        want_p = row_major_softmax(z)[0]
        assert want_p[0, 1] == 0.0
        assert softmax_rows(z)[0].T.tobytes() == want_p.tobytes()
        want_loss, want_grad = row_major_cross_entropy(z, labels, g)
        logits = Parameter(z)
        out = task_loss(CROSS_ENTROPY, logits, labels)
        out._backward(g)
        assert out.data.tobytes() == want_loss.tobytes()
        assert logits.grad.flags.c_contiguous
        assert logits.grad.tobytes() == want_grad.tobytes()

    def test_squared_hand(self):
        out = task_loss(SQUARED, Tensor([3.0]), [1.0])
        assert out.data[0] == pytest.approx(4.0, abs=1e-15)

    def test_squared_shape_mismatch(self):
        with pytest.raises(ShapeError):
            task_loss(SQUARED, Tensor([1.0, 2.0]), [1.0])

    @pytest.mark.parametrize("labels, shape", [
        ([0], r"\(1,\)"), ([[0], [1]], r"\(2, 1\)")], ids=["short", "column"])
    def test_cross_entropy_label_shape_mismatch(self, labels, shape):
        with pytest.raises(ShapeError,
                           match=rf"^expected 2 labels, got shape {shape}$"):
            task_loss(CROSS_ENTROPY, Tensor(np.zeros((2, 2))), labels)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^unknown task loss 'hinge'$"):
            task_loss("hinge", Tensor([1.0]), [1.0])


class TestPenalty:
    def test_cases(self):
        assert psi(-0.2).item() == 0.0
        assert psi(0.0).item() == 0.0
        assert psi(0.1).item() == pytest.approx(0.01, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative_and_convex(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=2)
        t = rng.random()
        mid = psi(t * a + (1 - t) * b).item()
        assert mid >= 0.0
        assert mid <= t * psi(a).item() + (1 - t) * psi(b).item() + 1e-12


class TestRiskAndCoverage:
    def test_coverage_mean(self):
        assert empirical_coverage(Tensor([1.0, 0.0, 1.0, 0.0])).item() == 0.5

    def test_risk_hand_case(self):
        r = empirical_selective_risk(Tensor([1.0, 0.0, 1.0, 0.0]),
                                     Tensor([1.0, 1.0, 0.0, 0.0]))
        assert r.item() == pytest.approx(0.5, abs=1e-12)

    def test_risk_full_acceptance_is_plain_mean(self):
        losses = Tensor([0.3, 0.7, 0.2])
        r = empirical_selective_risk(losses, Tensor(np.ones(3)))
        assert r.item() == pytest.approx(losses.data.mean(), abs=1e-15)

    def test_risk_all_rejected_undefined(self):
        with pytest.raises(DegenerateCoverageError):
            empirical_selective_risk(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            empirical_coverage(Tensor(np.array([])))


class TestSelectiveLoss:
    def test_hand_case(self):
        cfg = LossConfig(target_coverage=0.9, penalty_weight=32.0)
        out = selective_loss(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]), cfg)
        # risk 1.0, shortfall 0.4, penalty 32*0.16
        assert out.item() == pytest.approx(6.12, abs=1e-12)

    def test_satisfied_constraint_no_penalty(self):
        cfg = LossConfig(target_coverage=0.4, penalty_weight=32.0)
        out = selective_loss(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]), cfg)
        assert out.item() == pytest.approx(1.0, abs=1e-12)

    def test_zero_penalty_weight_is_pure_risk(self):
        cfg = LossConfig(target_coverage=1.0, penalty_weight=0.0)
        out = selective_loss(Tensor([1.0, 0.0]), Tensor([0.5, 0.5]), cfg)
        assert out.item() == pytest.approx(0.5, abs=1e-12)

    def test_penalty_monotone_in_shortfall(self):
        cfg = LossConfig(target_coverage=0.9, penalty_weight=32.0)
        losses = Tensor([0.0, 0.0])
        lo = selective_loss(losses, Tensor([0.6, 0.6]), cfg).item()
        hi = selective_loss(losses, Tensor([0.3, 0.3]), cfg).item()
        assert hi > lo

    def test_numpy_float32_settings_are_kept_as_floats(self):
        """A float32 weight or alpha is stored as the float ``real``
        returns, so the backward runs in float64 as for a Python float."""
        weight, alpha = np.float32(32.1), np.float32(0.3)
        grads = []
        for cfg in (LossConfig(0.9, weight, alpha),
                    LossConfig(0.9, float(weight), float(alpha))):
            cfg.validate()
            assert type(cfg.penalty_weight) is float
            assert type(cfg.alpha) is float
            g = Parameter(np.linspace(0.05, 0.6, 8))
            selective_loss(Tensor(np.linspace(0.1, 2.0, 8)), g,
                           cfg).backward()
            grads.append(g.grad)
        assert grads[0].dtype == np.float64
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            LossConfig(target_coverage=0.0).validate()
        with pytest.raises(ConfigurationError):
            LossConfig(alpha=1.5).validate()
        with pytest.raises(ConfigurationError,
                           match=r"^penalty_weight must lie in \[0, inf\), "
                                 r"got -1.0$"):
            LossConfig(penalty_weight=-1.0).validate()


class TestTotalLoss:
    def test_hand_case(self):
        out = total_loss(Tensor(6.12), Tensor(3.0), 0.5)
        assert out.item() == pytest.approx(4.56, abs=1e-12)

    def test_endpoints(self):
        sel, aux = Tensor(2.0), Tensor(8.0)
        assert total_loss(sel, aux, 1.0).item() == 2.0
        assert total_loss(sel, aux, 0.0).item() == 8.0

    def test_aux_is_plain_mean(self):
        assert auxiliary_loss(Tensor([1.0, 3.0, 5.0])).item() == 3.0

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            total_loss(Tensor(1.0), Tensor(1.0), -0.1)
        # True would train as alpha = 1; a string or None is no real
        for alpha in (True, "0.5", None):
            with pytest.raises(ConfigurationError,
                               match=rf"^alpha: {alpha!r} is not a real "
                                     r"number$"):
                total_loss(Tensor(1.0), Tensor(1.0), alpha)


@pytest.mark.parametrize("loss, args, message", [
    (empirical_selective_risk, (Tensor([1.0, 2.0]), Tensor([1.0, 1.0, 1.0])),
     r"losses \(2,\) and g \(3,\) must match"),
    (selective_loss, (Tensor([1.0, 2.0]), Tensor([1.0]), LossConfig()),
     r"losses \(2,\) and g \(1,\) must match"),
    (selective_loss, (Tensor(np.zeros(0)), Tensor(np.zeros(0)), LossConfig()),
     "empirical coverage of an empty batch is undefined"),
    (auxiliary_loss, (Tensor(np.zeros(0)),),
     "auxiliary loss of an empty batch is undefined"),
], ids=["risk-shapes", "selective-shapes", "selective-empty", "auxiliary-empty"])
def test_contract_violations_named(loss, args, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        loss(*args)


def test_objective_gradients_match_finite_differences():
    """The full combined objective, with soft g values from a sigmoid, agrees
    with central differences in its raw-score parameters."""
    rng = np.random.default_rng(9)
    raw_g = Parameter(rng.normal(size=8))
    preds = Parameter(rng.normal(size=8))
    y = rng.normal(size=8)
    cfg = LossConfig(target_coverage=0.9, penalty_weight=32.0, alpha=0.5)

    def fn():
        g = sigmoid(raw_g)
        losses = task_loss(SQUARED, preds, y)
        return total_loss(selective_loss(losses, g, cfg),
                          auxiliary_loss(losses), cfg.alpha)

    assert finite_difference_check(fn, [raw_g, preds]) < 1e-6
