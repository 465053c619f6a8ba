"""Three-headed model construction, forward contracts, baseline twin."""

import numpy as np
import pytest

from selpred.autograd import ShapeError
from selpred.layers import TRAIN, ConfigurationError
from selpred.model import (
    CLASSIFICATION,
    REGRESSION,
    ArchitectureConfig,
    build_baseline,
    build_model,
)


def regression_config(**kw):
    base = dict(input_dim=8, body_widths=[64], task=REGRESSION,
                selection_hidden=16)
    base.update(kw)
    return ArchitectureConfig(**base)


def classification_config(**kw):
    base = dict(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                n_classes=4, selection_hidden=16)
    base.update(kw)
    return ArchitectureConfig(**base)


class TestConstruction:
    def test_body_dense_parameter_count(self):
        model = build_model(regression_config(), seed=0)
        body_dense = sum(l.dense.weights.data.size + l.dense.bias.data.size
                         for l in model.body)
        assert body_dense == 8 * 64 + 64

    def test_total_parameter_arithmetic(self):
        model = build_model(regression_config(batchnorm=False), seed=0)
        # body 8*64+64, f 64+1, g hidden 64*16+16, g out 16+1, h 64+1
        expected = (8 * 64 + 64) + (64 + 1) + (64 * 16 + 16) + (16 + 1) + (64 + 1)
        assert model.num_parameters() == expected

    def test_seed_determinism(self):
        a = build_model(regression_config(), seed=7)
        b = build_model(regression_config(), seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build_model(regression_config(), seed=1)
        b = build_model(regression_config(), seed=2)
        assert not np.array_equal(a.body[0].dense.weights.data,
                                  b.body[0].dense.weights.data)

    def test_baseline_shares_body_and_f_init(self):
        sel = build_model(classification_config(), seed=3)
        base = build_baseline(classification_config(), seed=3)
        np.testing.assert_array_equal(sel.body[0].dense.weights.data,
                                      base.body[0].dense.weights.data)
        np.testing.assert_array_equal(sel.f_head.weights.data,
                                      base.f_head.weights.data)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            build_model(classification_config(n_classes=1), seed=0)
        with pytest.raises(ConfigurationError):
            build_model(regression_config(body_widths=[]), seed=0)
        with pytest.raises(ConfigurationError):
            build_model(regression_config(task="ranking"), seed=0)


class TestForward:
    def test_output_shapes_classification(self):
        model = build_model(classification_config(), seed=0)
        x = np.random.default_rng(0).normal(size=(5, 8))
        f, g, h = model.forward(x)
        assert f.data.shape == (5, 4)
        np.testing.assert_allclose(f.data.sum(axis=1), 1.0, atol=1e-12)
        assert g.data.shape == (5,)
        assert np.all((g.data >= 0.0) & (g.data <= 1.0))
        assert h is None  # h serves training only

    def test_output_shapes_regression(self):
        model = build_model(regression_config(), seed=0)
        f, g, h = model.forward(np.zeros((3, 8)))
        assert f.data.shape == (3,)
        assert g.data.shape == (3,)
        assert h is None

    def test_train_mode_h_mirrors_f(self):
        model = build_model(classification_config(dropout_rate=0.5), seed=0)
        x = np.random.default_rng(0).normal(size=(5, 8))
        f, g, h = model.forward(x, mode=TRAIN, rng=np.random.default_rng(1))
        assert f.data.shape == h.data.shape == (5, 4)
        assert g.data.shape == (5,)

    def test_eval_deterministic(self):
        model = build_model(classification_config(dropout_rate=0.5), seed=0)
        x = np.random.default_rng(1).normal(size=(6, 8))
        a = model.forward(x)[0].data
        b = model.forward(x)[0].data
        np.testing.assert_array_equal(a, b)

    def test_wrong_input_dim(self):
        model = build_model(regression_config(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((4, 9)))

    def test_g_head_perturbation_leaves_f_unchanged(self):
        model = build_model(regression_config(), seed=5)
        x = np.random.default_rng(2).normal(size=(4, 8))
        f_before = model.forward(x)[0].data.copy()
        model.g_hidden.weights.data += 1.0
        model.g_out.bias.data += 2.0
        f_after, g_after, _ = model.forward(x)
        np.testing.assert_array_equal(f_before, f_after.data)
        assert g_after is not None

    def test_baseline_forward(self):
        base = build_baseline(regression_config(), seed=0)
        f, g, h = base.forward(np.zeros((3, 8)))
        assert f.data.shape == (3,)
        assert g is None and h is None


class TestPredict:
    def test_threshold_boundary(self):
        model = build_model(classification_config(), seed=0)
        x = np.random.default_rng(3).normal(size=(20, 8))
        scores = model.selection_scores(x)
        tau = float(np.median(scores))
        _, accepted = model.predict(x, tau=tau)
        np.testing.assert_array_equal(accepted, scores >= tau)

    def test_tau_zero_accepts_everything(self):
        model = build_model(classification_config(), seed=0)
        x = np.random.default_rng(4).normal(size=(10, 8))
        preds, accepted = model.predict(x, tau=0.0)
        assert accepted.all()
        assert preds.shape == (10,)
        assert preds.dtype.kind == "i"

    def test_baseline_accepts_everything(self):
        base = build_baseline(regression_config(), seed=0)
        _, accepted = base.predict(np.zeros((7, 8)), tau=0.99)
        assert accepted.all()

    def test_baseline_has_no_selection_scores(self):
        base = build_baseline(regression_config(), seed=0)
        with pytest.raises(ConfigurationError):
            base.selection_scores(np.zeros((2, 8)))


class TestConfigRoundTrip:
    def test_to_from_dict(self):
        cfg = classification_config(dropout_rate=0.25, batchnorm=False)
        again = ArchitectureConfig.from_dict(cfg.to_dict())
        assert again == cfg
