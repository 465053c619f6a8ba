"""Three-headed model construction, forward contracts, baseline twin."""

from dataclasses import asdict

import numpy as np
import pytest

from selpred.checks import (
    CLASSIFICATION,
    REGRESSION,
    ConfigurationError,
    ShapeError,
)
from selpred.layers import TRAIN
from selpred.losses import CROSS_ENTROPY, SQUARED, LossConfig
from selpred.model import (
    ArchitectureConfig,
    build_baseline,
    build_model,
)
from selpred.optim import TrainConfig, train


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
        """A batchnorm block's dense layer is its weights alone."""
        model = build_model(regression_config(), seed=0)
        body_dense = sum(p.data.size for l in model.body
                         for p in l.dense.parameters())
        assert body_dense == 8 * 64

    def test_total_parameter_arithmetic(self):
        model = build_model(regression_config(), seed=0)
        # body 8*64 + bn 2*64, f 64+1, g hidden 64*16 + bn 2*16, g out 16+1,
        # h 64+1
        expected = ((8 * 64 + 2 * 64) + (64 + 1) + (64 * 16 + 2 * 16)
                    + (16 + 1) + (64 + 1))
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

    @pytest.mark.parametrize("kind", ["bool", "float", "string"])
    @pytest.mark.parametrize("field, good, config", [
        ("input_dim", 8, lambda bad: regression_config(input_dim=bad)),
        ("selection_hidden", 8,
         lambda bad: regression_config(selection_hidden=bad)),
        ("body_widths", 8,
         lambda bad: regression_config(body_widths=[16, bad])),
        ("n_classes", 3, lambda bad: classification_config(n_classes=bad)),
    ], ids=["input_dim", "selection_hidden", "body_widths", "n_classes"])
    def test_non_integer_width_is_named(self, field, good, config, kind):
        """A float or string class count would otherwise pass ``validate``
        and fail in ``build_model`` with a TypeError naming no field."""
        bad = {"bool": True, "float": float(good), "string": str(good)}[kind]
        with pytest.raises(ConfigurationError,
                           match=f"^{field}: {bad!r} is not an integer$"):
            build_model(config(bad), seed=0)

    def test_body_widths_must_be_a_list(self):
        with pytest.raises(ConfigurationError, match="invalid body widths"):
            build_model(regression_config(body_widths=8), seed=0)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_dropout_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ConfigurationError,
                           match=rf"^dropout_rate must lie in \[0, 1\), "
                                 rf"got {rate}$"):
            build_model(regression_config(dropout_rate=rate), seed=0)

    def test_null_dropout_rate_rejected(self):
        """No dropout is 0.0; ``None`` is no second spelling of it."""
        with pytest.raises(ConfigurationError,
                           match="^dropout_rate: None is not a real number$"):
            build_model(regression_config(dropout_rate=None), seed=0)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("config", [classification_config,
                                        regression_config])
    def test_zero_dropout_rate_builds_no_dropout_layer(self, config,
                                                       optimizer):
        """``dropout_rate`` 0.0 is the default and builds no dropout layer,
        so it trains to the default model's state, byte for byte."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 8))
        y = (rng.integers(0, 4, size=40) if config is classification_config
             else rng.normal(size=40))
        states = []
        for rate in ({}, {"dropout_rate": 0.0}):
            model = build_model(config(**rate), seed=2)
            assert all(block.dropout is None
                       for block in (*model.body, model.g_block))
            train(model, x, y, TrainConfig(
                optimizer=optimizer, epochs=3, batch_size=16,
                learning_rate=1e-2, loss=LossConfig(task_loss=(
                    CROSS_ENTROPY if config is classification_config
                    else SQUARED))))
            states.append(b"".join(a.tobytes() for a in model.state()))
        assert states[0] == states[1]


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
        with pytest.raises(ShapeError, match=r"^expected input \(batch, 8\), "
                                             r"got \(4, 9\)$"):
            model.forward(np.zeros((4, 9)), mode=TRAIN)

    def test_unknown_mode_is_refused(self):
        model = build_model(regression_config(), seed=0)
        with pytest.raises(ConfigurationError,
                           match="^unknown forward mode 'bogus'$"):
            model.forward(np.zeros((2, 8)), mode="bogus")

    def test_g_head_perturbation_leaves_f_unchanged(self):
        model = build_model(regression_config(), seed=5)
        x = np.random.default_rng(2).normal(size=(4, 8))
        f_before = model.forward(x)[0].data.copy()
        model.g_block.dense.weights.data += 1.0
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
        cfg = classification_config(dropout_rate=0.25)
        again = ArchitectureConfig(**asdict(cfg))
        assert again == cfg
