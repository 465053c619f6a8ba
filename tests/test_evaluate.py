"""Selective metrics, baselines, risk-coverage curves, the coverage grid."""

import numpy as np
import pytest

from selpred.checks import (CLASSIFICATION, REGRESSION, ConfigurationError,
                            ContractError, DegenerateCoverageError)
from selpred.evaluate import (
    MC_DROPOUT_CLASSIFICATION,
    cross_calibration_grid,
    mc_dropout_confidence,
    percent_improvement,
    risk_coverage_curve,
    risk_coverage_curves,
    selective_metrics,
    sr_confidence,
    threshold_for_coverage,
    write_csv,
)
from selpred.model import ArchitectureConfig, build_baseline, build_model


class TestSelectiveMetrics:
    def test_classification_hand_case(self):
        preds = np.array([0, 1, 2, 0])
        labels = np.array([0, 1, 0, 1])
        mask = np.array([True, True, True, False])
        rep = selective_metrics(preds, labels, mask, CLASSIFICATION)
        assert rep.coverage == 0.75
        assert rep.risk == pytest.approx(100.0 / 3.0)
        assert rep.n_covered == 3 and rep.n_rejected == 1

    def test_regression_mse(self):
        preds = np.array([1.0, 2.0, 5.0])
        labels = np.array([1.0, 4.0, 5.0])
        mask = np.array([True, True, False])
        rep = selective_metrics(preds, labels, mask, REGRESSION)
        assert rep.risk == pytest.approx(2.0)

    def test_full_acceptance(self):
        preds = np.array([0, 0])
        rep = selective_metrics(preds, np.array([0, 1]),
                                np.array([True, True]), CLASSIFICATION)
        assert rep.coverage == 1.0
        assert rep.risk == pytest.approx(50.0)

    def test_nothing_accepted_undefined(self):
        with pytest.raises(DegenerateCoverageError,
                           match="^no accepted samples; selective risk "
                                 "undefined$"):
            selective_metrics(np.array([0]), np.array([0]),
                              np.array([False]), CLASSIFICATION)

    def test_mask_length_mismatch(self):
        with pytest.raises(ContractError):
            selective_metrics(np.array([0, 1]), np.array([0, 1]),
                              np.array([True]), CLASSIFICATION)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_label_length_mismatch(self, task):
        """One label against two predictions would broadcast."""
        with pytest.raises(ContractError, match="^predictions and labels "
                                                "must have equal length$"):
            selective_metrics(np.array([0, 1]), np.array([0]),
                              np.array([True, True]), task)


class TestSRConfidence:
    def test_row_max(self):
        p = np.array([[0.7, 0.2, 0.1], [0.4, 0.4, 0.2]])
        np.testing.assert_allclose(sr_confidence(p), [0.7, 0.4])

    def test_uniform_row_floor(self):
        p = np.full((3, 4), 0.25)
        np.testing.assert_allclose(sr_confidence(p), 0.25)

    def test_rejects_flat_input(self):
        with pytest.raises(ContractError):
            sr_confidence(np.array([0.5, 0.5]))


@pytest.fixture(scope="module")
def dropout_model():
    cfg = ArchitectureConfig(input_dim=5, body_widths=[12],
                             task=CLASSIFICATION, n_classes=3,
                             selection_hidden=8, dropout_rate=0.0)
    return build_model(cfg, seed=0)


class TestMCDropout:
    def test_rate_zero_gives_exact_zero_scores(self, dropout_model):
        x = np.random.default_rng(0).normal(size=(20, 5))
        scores = mc_dropout_confidence(dropout_model, x, passes=10, rate=0.0,
                                       seed=0, task=CLASSIFICATION)
        assert np.all(scores == 0.0)

    def test_seed_determinism(self, dropout_model):
        x = np.random.default_rng(1).normal(size=(15, 5))
        a = mc_dropout_confidence(dropout_model, x, passes=20, rate=0.5,
                                  seed=7, task=CLASSIFICATION)
        b = mc_dropout_confidence(dropout_model, x, passes=20, rate=0.5,
                                  seed=7, task=CLASSIFICATION)
        np.testing.assert_array_equal(a, b)
        assert np.any(a < 0.0)

    def test_numpy_rate_scores_as_its_float(self, dropout_model):
        """A float32 rate scores as its value as a Python float: under
        numpy's promotion rules a float32 1 - rate would stay float32."""
        x = np.random.default_rng(5).normal(size=(15, 5))
        a, b = (mc_dropout_confidence(dropout_model, x, passes=5, rate=rate,
                                      seed=3, task=CLASSIFICATION)
                for rate in (np.float32(0.05), float(np.float32(0.05))))
        assert a.tobytes() == b.tobytes()

    def test_rate_restored_after_call(self):
        cfg = ArchitectureConfig(input_dim=5, body_widths=[12],
                                 task=CLASSIFICATION, n_classes=3,
                                 selection_hidden=8, dropout_rate=0.25)
        model = build_model(cfg, seed=0)
        x = np.zeros((4, 5))
        mc_dropout_confidence(model, x, passes=5, rate=0.5,
                              seed=0, task=CLASSIFICATION)
        assert all(b.dropout.rate == 0.25 for b in model.body)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_needs_no_dropout_layers(self, task):
        """The passes run on the frozen body at the call's rate, so a model
        built without dropout layers (rate 0.0) scores as its twin with
        dropout layers at another rate does."""
        x = np.random.default_rng(3).normal(size=(40, 5))
        scores = []
        for rate in (0.0, 0.25):
            cfg = ArchitectureConfig(
                input_dim=5, body_widths=[8, 6], task=task,
                n_classes=3 if task == CLASSIFICATION else 0,
                dropout_rate=rate)
            model = build_model(cfg, 4)
            assert all((b.dropout is None) == (rate == 0.0)
                       for b in model.body)
            scores.append(mc_dropout_confidence(model, x, passes=6, rate=0.5,
                                                seed=2, task=task))
        assert scores[0].tobytes() == scores[1].tobytes()
        assert np.any(scores[0] < 0.0)

    def test_task_must_be_the_models(self, dropout_model):
        """A classifier scored as a regression would return one variance
        per class, not one per row."""
        with pytest.raises(ConfigurationError, match=(
                "^MC-dropout for a regression task on a classification "
                "model$")):
            mc_dropout_confidence(dropout_model, np.zeros((3, 5)), passes=2,
                                  rate=0.5, seed=0, task=REGRESSION)

    @pytest.mark.parametrize("rate, message", [
        (-0.5, r"^rate must lie in \[0, 1\), got -0.5$"),
        (1.5, r"^rate must lie in \[0, 1\), got 1.5$"),
        (1.0, r"^rate must lie in \[0, 1\), got 1.0$"),
        (np.nan, "^rate: nan is not finite$"),
        ("0.5", "^rate: '0.5' is not a real number$"),
    ], ids=["negative", "above-one", "one", "nan", "string"])
    def test_rate_outside_zero_one_is_named(self, dropout_model, rate,
                                            message):
        """Below 0 or above 1 every pass would keep nothing or everything
        and the scores read all zero; at 1 every unit drops."""
        with pytest.raises(ConfigurationError, match=message):
            mc_dropout_confidence(dropout_model, np.zeros((3, 5)), passes=2,
                                  rate=rate, seed=0, task=CLASSIFICATION)

    @pytest.mark.parametrize("field, value, message", [
        ("passes", 2.5, "^passes: 2.5 is not an integer$"),
        ("passes", "3", "^passes: '3' is not an integer$"),
        ("seed", -1, "^seed must be >= 0, got -1$"),
        ("seed", 1.5, "^seed: 1.5 is not an integer$"),
    ], ids=["fractional-passes", "string-passes", "negative-seed",
            "fractional-seed"])
    def test_passes_and_seed_are_named(self, dropout_model, field, value,
                                       message):
        kwargs = {"passes": 2, "seed": 0, field: value}
        with pytest.raises(ConfigurationError, match=message):
            mc_dropout_confidence(dropout_model, np.zeros((3, 5)), rate=0.5,
                                  task=CLASSIFICATION, **kwargs)

    def test_needs_two_passes(self, dropout_model):
        with pytest.raises(ContractError):
            mc_dropout_confidence(dropout_model, np.zeros((3, 5)), passes=1,
                                  rate=0.5, seed=0, task=CLASSIFICATION)

    def test_reference_settings(self):
        assert MC_DROPOUT_CLASSIFICATION == {"passes": 100, "rate": 0.5}


class TestRiskCoverageCurve:
    def _setup(self):
        rng = np.random.default_rng(5)
        n_cal, n_test = 400, 400
        cal_scores = rng.random(n_cal)
        # confidence is informative: high score implies low error probability
        test_scores = rng.random(n_test)
        labels = np.zeros(n_test, dtype=int)
        preds = np.where(rng.random(n_test) < 0.5 * (1 - test_scores), 1, 0)
        return cal_scores, test_scores, preds, labels

    def test_full_coverage_point_is_exact(self):
        cal, test, preds, labels = self._setup()
        rows = risk_coverage_curve(cal, test, preds, labels, [1.0], CLASSIFICATION)
        c, cov, risk = rows[0]
        assert cov == 1.0
        full = selective_metrics(preds, labels, np.ones(len(preds), bool),
                                 CLASSIFICATION)
        assert risk == full.risk

    def test_informative_score_lowers_risk_at_low_coverage(self):
        cal, test, preds, labels = self._setup()
        grid = [1.0, 0.5]
        rows = risk_coverage_curve(cal, test, preds, labels, grid, CLASSIFICATION)
        assert rows[1][2] < rows[0][2]

    def test_coverage_near_target(self):
        cal, test, preds, labels = self._setup()
        rows = risk_coverage_curve(cal, test, preds, labels, [0.7], CLASSIFICATION)
        assert abs(rows[0][1] - 0.7) < 0.1

    def test_bad_grid_value(self):
        cal, test, preds, labels = self._setup()
        with pytest.raises(ConfigurationError,
                           match=r"^coverage must lie in \(0, 1\], got 0.0$"):
            risk_coverage_curve(cal, test, preds, labels, [0.0], CLASSIFICATION)

    @pytest.mark.parametrize("task, build, kind", [
        (REGRESSION, build_model, "sr"), (CLASSIFICATION, build_baseline, "g"),
    ], ids=["sr-on-regression", "g-on-baseline"])
    def test_score_kind_that_does_not_fit_is_named(self, task, build, kind):
        cfg = ArchitectureConfig(
            input_dim=4, body_widths=[8], task=task,
            n_classes=2 if task == CLASSIFICATION else 0)
        x = np.zeros((5, 4))
        with pytest.raises(ConfigurationError, match=(
                f"^score kind '{kind}' does not apply to this {task} "
                "model$")):
            risk_coverage_curves(build(cfg, 0), x, x, np.zeros(5), [kind],
                                 [1.0])

    def test_threshold_delegates_to_calibration_rule(self):
        from selpred.calibrate import select_threshold
        scores = np.random.default_rng(6).random(99)
        assert threshold_for_coverage(scores, 0.6) == select_threshold(scores, 0.6)


class TestCrossCalibrationGrid:
    def test_single_model_grid(self):
        cfg = ArchitectureConfig(input_dim=4, body_widths=[8],
                                 task=CLASSIFICATION, n_classes=2,
                                 selection_hidden=8)
        model = build_model(cfg, 0)
        rng = np.random.default_rng(7)
        cal = rng.normal(size=(200, 4))
        test = rng.normal(size=(100, 4))
        labels = rng.integers(0, 2, size=100)
        grid = cross_calibration_grid([model], cal, test, labels, [0.9, 0.5])
        assert grid.shape == (1, 2)
        assert np.all(np.isfinite(grid))

    def test_full_coverage_accepts_scores_below_calibration(self):
        cfg = ArchitectureConfig(input_dim=4, body_widths=[8],
                                 task=CLASSIFICATION, n_classes=2,
                                 selection_hidden=8)
        model = build_model(cfg, 0)
        test = np.random.default_rng(8).normal(size=(100, 4))
        scores = model.selection_scores(test)
        # calibration lacks the lowest-scored test row, which is misclassified
        cal = test[scores > scores.min()]
        preds, _ = model.predict(test, tau=-np.inf)
        labels = preds.copy()
        lowest = np.argmin(scores)
        labels[lowest] = 1 - preds[lowest]
        grid = cross_calibration_grid([model], cal, test, labels, [1.0])
        full = selective_metrics(preds, labels, np.ones(100, bool),
                                 CLASSIFICATION)
        assert grid[0, 0] == full.risk == 1.0


class TestCompareReport:
    """The improvement cells of compare.csv."""

    def test_improvement_arithmetic(self):
        assert percent_improvement(2.0, 1.0) == pytest.approx(50.0)

    def test_zero_baseline_yields_none(self):
        assert percent_improvement(0.0, 0.0) is None

    def test_negative_improvement(self):
        assert percent_improvement(2.0, 3.0) == pytest.approx(-50.0)


class TestWriteCsv:
    def test_layout_and_none_marker(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["made by test"], ["a", "b"],
                  [[0.5, None], [1.0, 2.0]])
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# made by test"
        assert lines[1] == "a,b"
        assert lines[2] == "0.5,n/a"

    def test_float_repr_round_trips(self, tmp_path):
        path = tmp_path / "out.csv"
        v = 1.0 / 3.0
        write_csv(path, [], ["x"], [[v]])
        back = float(path.read_text().strip().split("\n")[1])
        assert back == v
