"""Objective components: task losses, penalty, selective risk, combination."""

import numpy as np
import pytest

from selpred.autograd import (Parameter, Tensor, finite_difference_check,
                              sigmoid)
from selpred.checks import (
    ConfigurationError,
    ContractError,
    DegenerateCoverageError,
)
from selpred.layers import softmax
from selpred.losses import (
    CROSS_ENTROPY,
    SQUARED,
    DataError,
    LossConfig,
    auxiliary_loss,
    empirical_coverage,
    empirical_selective_risk,
    psi,
    selective_loss,
    task_loss,
    total_loss,
)


class TestTaskLoss:
    def test_cross_entropy_certain_correct(self):
        pred = softmax(Tensor([[40.0, 0.0]]))
        out = task_loss(CROSS_ENTROPY, pred, [0])
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_uniform_ten_classes(self):
        pred = softmax(Tensor(np.zeros((1, 10))))
        out = task_loss(CROSS_ENTROPY, pred, [3])
        assert out.data[0] == pytest.approx(np.log(10.0), abs=1e-12)

    def test_cross_entropy_confidently_wrong_softmax(self):
        # log-softmax: the loss is not capped and the gradient does not
        # vanish on a confidently wrong sample
        logits = Parameter([[40.0, 0.0, 0.0]])
        out = task_loss(CROSS_ENTROPY, softmax(logits), [1])
        assert out.data[0] == pytest.approx(40.0, abs=1e-12)
        out.sum().backward()
        np.testing.assert_allclose(logits.grad, [[1.0, -1.0, 0.0]], atol=1e-12)

    def test_cross_entropy_takes_only_a_softmax_output(self):
        probs = np.array([[0.25, 0.75], [0.5, 0.5]])
        with pytest.raises(ContractError, match="softmax output"):
            task_loss(CROSS_ENTROPY, Tensor(probs), [1, 0])

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(DataError):
            task_loss(CROSS_ENTROPY, softmax(Tensor(np.zeros((1, 2)))), [2])

    @pytest.mark.parametrize("labels, first", [
        ([0.0, 1.7], "1.7"), ([0, -1], "-1"), ([0.0, np.nan], "nan"),
        (["1", "0"], "'1'"), ([True, False], "True"),
    ], ids=["fraction", "negative", "nan", "string", "bool"])
    def test_cross_entropy_label_that_is_not_a_class_index(self, labels,
                                                           first):
        """A fractional label would be truncated by ``astype(int64)``, and
        a string or a bool read as its integer."""
        with pytest.raises(DataError, match=rf"^class label {first} is not "
                                            r"an integer in \[0, 2\)$"):
            task_loss(CROSS_ENTROPY, softmax(Tensor(np.zeros((2, 2)))),
                      labels)

    def test_cross_entropy_integral_float_labels_are_indices(self):
        pred = softmax(Tensor(np.log([[0.25, 0.75], [0.5, 0.5]])))
        np.testing.assert_array_equal(
            task_loss(CROSS_ENTROPY, pred, [1.0, 0.0]).data,
            task_loss(CROSS_ENTROPY, pred, [1, 0]).data)

    def test_squared_hand(self):
        out = task_loss(SQUARED, Tensor([3.0]), [1.0])
        assert out.data[0] == pytest.approx(4.0, abs=1e-15)

    def test_squared_shape_mismatch(self):
        with pytest.raises(DataError):
            task_loss(SQUARED, Tensor([1.0, 2.0]), [1.0])

    @pytest.mark.parametrize("labels, shape", [
        ([0], r"\(1,\)"), ([[0], [1]], r"\(2, 1\)")], ids=["short", "column"])
    def test_cross_entropy_label_shape_mismatch(self, labels, shape):
        with pytest.raises(DataError,
                           match=rf"^expected 2 labels, got shape {shape}$"):
            task_loss(CROSS_ENTROPY, softmax(Tensor(np.zeros((2, 2)))),
                      labels)

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

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            LossConfig(target_coverage=0.0).validate()
        with pytest.raises(ConfigurationError):
            LossConfig(alpha=1.5).validate()
        with pytest.raises(ConfigurationError,
                           match="^penalty weight must be >= 0$"):
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
