"""Layer behavior: dense, batchnorm, dropout, softmax."""

import numpy as np
import pytest

from selpred import layers
from selpred.autograd import Tensor
from selpred.checks import (
    CLASSIFICATION,
    ConfigurationError,
    ContractError,
    DomainError,
    ShapeError,
)
from selpred.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    softmax,
)
from selpred.losses import CROSS_ENTROPY, LossConfig
from selpred.model import ArchitectureConfig, build_model
from selpred.optim import TrainConfig, train


class TestDense:
    def test_hand_affine(self):
        layer = DenseLayer(2, 1, np.random.default_rng(0))
        layer.weights.data[:] = [[0.5], [1.0]]
        layer.bias.data[:] = [0.5]
        out = layer(Tensor([[1.0, 2.0]]))
        assert out.data[0, 0] == pytest.approx(3.0)

    def test_zero_batch_passes_through(self):
        layer = DenseLayer(3, 2, np.random.default_rng(0))
        out = layer(Tensor(np.zeros((0, 3))))
        assert out.data.shape == (0, 2)

    def test_init_bounds(self):
        rng = np.random.default_rng(1)
        he = DenseLayer(4, 8, rng, init="he")
        assert np.all(np.abs(he.weights.data) <= np.sqrt(6.0 / 4))
        glorot = DenseLayer(4, 8, rng, init="glorot")
        assert np.all(np.abs(glorot.weights.data) <= np.sqrt(6.0 / 12))
        assert np.all(he.bias.data == 0.0)

    def test_bad_extent(self):
        with pytest.raises(ConfigurationError):
            DenseLayer(0, 1, np.random.default_rng(0))

    def test_unknown_init_rejected(self):
        with pytest.raises(ConfigurationError, match="^unknown init 'xavier'$"):
            DenseLayer(2, 1, np.random.default_rng(0), init="xavier")

    def test_shape_mismatch(self):
        layer = DenseLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((5, 4))))


class TestBatchNorm:
    def test_hand_two_point_batch(self):
        # eps = 1e-5 moves the outputs to +-1/sqrt(1 + 1e-5), inside atol
        bn = BatchNormLayer(1)
        out = bn(Tensor([[1.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)

    def test_train_output_moments(self):
        rng = np.random.default_rng(3)
        bn = BatchNormLayer(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(64, 4)))
        y = bn(x).data
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_fixed_point(self):
        # feeding the same batch forever converges running stats to its
        # moments; the gap shrinks by momentum = 0.9 per step, 0.9^250 < 1e-11
        rng = np.random.default_rng(4)
        bn = BatchNormLayer(2)
        x = Tensor(rng.normal(size=(32, 2)))
        for _ in range(250):
            bn(x)
        np.testing.assert_allclose(bn.running_mean, x.data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(bn.running_var, x.data.var(axis=0), atol=1e-9)

    def test_running_stat_assignment_writes_through(self):
        """A model's statistics are views of its ``stats`` buffer, and an
        assignment copies into them; a wrong shape fails at assignment."""
        model = build_model(ArchitectureConfig(input_dim=3, body_widths=[2]),
                            seed=0)
        bn = model.body[0].bn
        var = bn.running_var
        bn.running_var = np.full(2, 4.0)
        assert bn.running_var is var and np.shares_memory(var, model.stats)
        np.testing.assert_array_equal(
            model.stats, np.concatenate(model.running_stats()))
        with pytest.raises(ShapeError):
            bn.running_var = np.ones(3)
        np.testing.assert_array_equal(bn.running_var, [4.0, 4.0])

    def test_train_batch_of_one_rejected(self):
        bn = BatchNormLayer(2)
        with pytest.raises(ContractError):
            bn(Tensor(np.zeros((1, 2))))

    def test_train_batch_of_the_wrong_width_rejected(self):
        with pytest.raises(ShapeError, match=r"^batchnorm expects 2 features, "
                                             r"got \(4, 3\)$"):
            BatchNormLayer(2)(Tensor(np.zeros((4, 3))))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = DropoutLayer(0.0)(x, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_forced_active_reproducible(self):
        x = Tensor(np.ones((4, 4)))
        a = DropoutLayer(0.5)(x, np.random.default_rng(11)).data
        b = DropoutLayer(0.5)(x, np.random.default_rng(11)).data
        np.testing.assert_array_equal(a, b)
        assert np.any(a == 0.0)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DropoutLayer(1.0)

    def test_missing_rng_rejected(self):
        with pytest.raises(ContractError):
            DropoutLayer(0.5)(Tensor(np.ones((2, 2))))

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.ones((200, 500)))
        out = DropoutLayer(0.3)(x, rng).data
        assert out.mean() == pytest.approx(1.0, abs=0.01)
        # survivors are scaled by 1/(1-p)
        np.testing.assert_allclose(np.unique(out), [0.0, 1.0 / 0.7], atol=1e-12)


def max_shift_softmax_rows(logits):
    """``softmax_rows`` by numpy's row reductions."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    row_sums = p.sum(axis=1, keepdims=True)
    p /= row_sums
    return p, shifted, row_sums


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(Tensor([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out.data, 1.0 / 3.0)

    def test_hand_two_logits(self):
        out = softmax(Tensor([[0.0, np.log(2.0)]]))
        np.testing.assert_allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_shift_invariance_and_overflow(self):
        logits = np.array([[1000.0, 1001.0], [-3.0, 4.0]])
        a = softmax(Tensor(logits)).data
        b = softmax(Tensor(logits + 500.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(np.isfinite(a))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = softmax(Tensor(rng.normal(size=(10, 5)) * 10)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((3, 1))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(DomainError, match="^softmax requires finite "
                                              "logits$"):
            softmax(Tensor([[0.0, 1.0], [bad, 0.0]]))

    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("k", [*range(2, 13), 100])
    def test_rows_equal_max_and_sum_bytes(self, k, rows):
        """The column folds below 8 columns and the reductions from 8 up
        give the bytes of ``max(axis=1)`` and ``sum(axis=1)``."""
        logits = np.random.default_rng(k).normal(size=(rows, k)) * 4.0
        for got, want in zip(layers.softmax_rows(logits),
                             max_shift_softmax_rows(logits)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_row_max_fold_trains_bit_identically(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 6))
        y = rng.integers(0, 4, size=300)
        arch = ArchitectureConfig(input_dim=6, body_widths=[16],
                                  task=CLASSIFICATION, n_classes=4,
                                  selection_hidden=8)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0,
                          loss=LossConfig(task_loss=CROSS_ENTROPY))
        runs = []
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(layers, "softmax_rows",
                                    max_shift_softmax_rows)
            model = build_model(arch, seed=0)
            runs.append((train(model, x, y, cfg), model.parameters().data))
        (history, params), (ref_history, ref_params) = runs
        assert np.array_equal(params, ref_params)
        for name in vars(ref_history):
            assert np.array_equal(getattr(history, name),
                                  getattr(ref_history, name)), name
