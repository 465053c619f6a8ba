"""Layer behavior: dense, batchnorm, dropout, softmax."""

import numpy as np
import pytest

from selpred import layers
from selpred.autograd import ShapeError, Tensor
from selpred.layers import (
    BatchNormLayer,
    ConfigurationError,
    ContractError,
    DenseLayer,
    DropoutLayer,
    softmax,
)
from selpred.losses import CROSS_ENTROPY, LossConfig
from selpred.model import CLASSIFICATION, ArchitectureConfig, build_model
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

    def test_shape_mismatch(self):
        layer = DenseLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((5, 4))))


class TestBatchNorm:
    def test_hand_two_point_batch(self):
        bn = BatchNormLayer(1, eps=1e-12)
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
        # feeding the same batch forever converges running stats to its moments
        rng = np.random.default_rng(4)
        bn = BatchNormLayer(2, momentum=0.5)
        x = Tensor(rng.normal(size=(32, 2)))
        for _ in range(60):
            bn(x)
        np.testing.assert_allclose(bn.running_mean, x.data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(bn.running_var, x.data.var(axis=0), atol=1e-9)

    def test_train_batch_of_one_rejected(self):
        bn = BatchNormLayer(2)
        with pytest.raises(ContractError):
            bn(Tensor(np.zeros((1, 2))))

    def test_bad_momentum(self):
        with pytest.raises(ConfigurationError):
            BatchNormLayer(2, momentum=1.0)


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

    def test_row_max_fold_trains_bit_identically(self, monkeypatch):
        def max_shift_softmax_rows(logits):
            shifted = logits - logits.max(axis=1, keepdims=True)
            p = np.exp(shifted)
            row_sums = p.sum(axis=1, keepdims=True)
            p /= row_sums
            return p, shifted, row_sums

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
