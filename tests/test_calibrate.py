"""Threshold selection, the Hoeffding bound, and the calibration wrapper."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selpred.calibrate import (
    CalibrationResult,
    calibrate,
    hoeffding_epsilon,
    select_threshold,
)
from selpred.checks import (CLASSIFICATION, ConfigurationError, ContractError,
                            DomainError)
from selpred.model import ArchitectureConfig, FrozenNet, build_model
from selpred.persist import save_model


class TestSelectThreshold:
    def test_ten_point_hand_case(self):
        scores = np.arange(0.1, 1.05, 0.1)  # 0.1 .. 1.0
        # n=10, c=0.8: rank floor(2)+1 = 3, so tau is the 3rd smallest
        tau = select_threshold(scores, 0.8)
        assert tau == pytest.approx(0.3)
        assert (scores >= tau).mean() == 0.8

    def test_coverage_one_takes_minimum(self):
        scores = np.array([0.9, 0.2, 0.5])
        assert select_threshold(scores, 1.0) == pytest.approx(0.2)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        scores = rng.random(101)
        tau = select_threshold(scores, 0.7)
        assert select_threshold(rng.permutation(scores), 0.7) == tau

    def test_achieved_coverage_at_least_target(self):
        rng = np.random.default_rng(1)
        for c in (0.3, 0.5, 0.8, 0.95):
            scores = rng.random(503)  # distinct w.p. 1
            tau = select_threshold(scores, c)
            assert (scores >= tau).mean() >= c

    def test_target_just_above_a_rank_is_reached(self):
        scores = np.arange(10.0)
        c = 0.8 + 5e-11
        assert (scores >= select_threshold(scores, c)).mean() >= c

    @settings(max_examples=300)
    @given(scores=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=300, unique=True),
           c=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    # 25 * 0.28 rounds to 7.000000000000001, so ceil gives 8 and m steps down
    @example(scores=list(range(25)), c=0.28)
    # 3 * c rounds to 1.0 though c > 1/3, so ceil gives 1 and m steps up
    @example(scores=list(range(3)), c=math.nextafter(1 / 3, 1))
    def test_smallest_count_reaching_target(self, scores, c):
        scores = np.asarray(scores)
        accepted = scores >= select_threshold(scores, c)
        assert float(accepted.mean()) >= c
        assert (accepted.sum() - 1) / scores.size < c

    def test_ties_still_reach_target(self):
        scores = np.array([0.5] * 6 + [0.9] * 4)
        tau = select_threshold(scores, 0.8)
        assert (scores >= tau).mean() >= 0.8

    def test_empty_and_bad_coverage(self):
        with pytest.raises(ContractError):
            select_threshold(np.array([]), 0.8)
        with pytest.raises(ConfigurationError):
            select_threshold(np.array([0.5]), 0.0)
        with pytest.raises(ConfigurationError):
            select_threshold(np.array([0.5]), 1.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.linspace(0.0, 1.0, 10)
        scores[4] = bad
        with pytest.raises(DomainError):
            select_threshold(scores, 0.8)

    def test_coverage_monotone_in_tau(self):
        rng = np.random.default_rng(2)
        scores = rng.random(200)
        taus = [select_threshold(scores, c) for c in (0.9, 0.7, 0.5, 0.3)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))


class TestHoeffdingEpsilon:
    def test_closed_form(self):
        for n, delta in [(5000, 0.001), (200, 0.05), (1, 0.9), (10**6, 0.5)]:
            expected = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
            assert hoeffding_epsilon(n, delta) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_n_and_delta(self):
        assert hoeffding_epsilon(2000, 0.05) < hoeffding_epsilon(500, 0.05)
        assert hoeffding_epsilon(500, 0.01) > hoeffding_epsilon(500, 0.1)

    def test_domain_errors(self):
        """A bad argument is a ConfigurationError, as for ``calibrate``."""
        with pytest.raises(ConfigurationError,
                           match=r"^n must be >= 1, got 0$"):
            hoeffding_epsilon(0, 0.05)
        for n in (math.nan, True, 1.5):
            with pytest.raises(ConfigurationError,
                               match=rf"^n: {n!r} is not an integer$"):
                hoeffding_epsilon(n, 0.05)
        for delta in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError,
                               match=rf"^delta must lie in \(0, 1\), "
                                     rf"got {delta}$"):
                hoeffding_epsilon(100, delta)
        for delta in ("0.5", None, True):
            with pytest.raises(ConfigurationError,
                               match=rf"^delta: {delta!r} is not a real "
                                     r"number$"):
                hoeffding_epsilon(100, delta)

    @pytest.mark.parametrize("delta", [5e-324, 1e-309])
    def test_subnormal_delta_gives_a_finite_bound(self, delta):
        """2/delta overflows for a subnormal delta; the bound, with
        ln(2/delta) = ln 2 - ln delta, stays finite."""
        assert hoeffding_epsilon(100, delta) == pytest.approx(
            math.sqrt((math.log(2.0) - math.log(delta)) / 200.0))

    def test_vacuous_limit(self):
        """As delta -> 1 the bound holds "with probability >= 1 - delta"
        -> 0, so it promises nothing: the argument stops short of 1, as
        ``calibrate``'s, where the width is sqrt(ln 2 / (2n)), never 0."""
        below_one = math.nextafter(1.0, 0.0)
        assert hoeffding_epsilon(100, below_one) == pytest.approx(
            math.sqrt(math.log(2.0) / 200.0))


@pytest.fixture(scope="module")
def toy_model():
    cfg = ArchitectureConfig(input_dim=4, body_widths=[8],
                             task=CLASSIFICATION, n_classes=3,
                             selection_hidden=8)
    return build_model(cfg, seed=0)


class TestCalibrate:
    def test_result_fields_and_determinism(self, toy_model):
        x = np.random.default_rng(3).normal(size=(400, 4))
        r1 = calibrate(toy_model, x, 0.8, delta=0.05)
        r2 = calibrate(toy_model, x, 0.8, delta=0.05)
        assert r1 == r2
        assert r1.n_validation == 400
        assert r1.epsilon == pytest.approx(hoeffding_epsilon(400, 0.05))
        assert r1.achieved_coverage >= 0.8

    def test_calibrated_predict_matches_threshold_rule(self, toy_model):
        rng = np.random.default_rng(4)
        cal = rng.normal(size=(300, 4))
        test = rng.normal(size=(100, 4))
        result = calibrate(toy_model, cal, 0.7)
        _, accepted = toy_model.predict(test, tau=result.tau)
        scores = toy_model.selection_scores(test)
        np.testing.assert_array_equal(accepted, scores >= result.tau)

    @pytest.mark.parametrize("delta, message", [
        (1.0, r"^delta must lie in \(0, 1\), got 1.0$"),
        (1.5, r"^delta must lie in \(0, 1\), got 1.5$"),
        (0.0, r"^delta must lie in \(0, 1\), got 0.0$"),
        (np.nan, r"^delta: nan is not finite$"),
    ], ids=["1.0", "1.5", "0.0", "nan"])
    def test_delta_outside_zero_one_rejected(self, toy_model, delta, message):
        """A bound that holds with probability >= 1 - delta promises
        nothing at delta >= 1 (``hoeffding_epsilon`` itself takes delta
        up to 2). The check is ``--delta``'s, naming the field."""
        x = np.random.default_rng(3).normal(size=(400, 4))
        with pytest.raises(ConfigurationError, match=message):
            calibrate(toy_model, x, 0.8, delta=delta)

    @pytest.mark.parametrize("target, delta", [
        (np.float32(0.8), 0.05), (0.8, np.float32(0.05)),
        (np.float32(0.7), np.float32(0.01)), (np.float64(0.8), 0.05),
    ], ids=["float32-target", "float32-delta", "float32-both", "float64"])
    def test_numpy_scalars_calibrate_as_their_plain_values(
            self, toy_model, tmp_path, target, delta):
        """A numpy scalar target or delta gives the result, and the
        checkpoint bytes, of its plain float: in float32 the rank rule
        would reach a coverage below the target it records."""
        x = np.random.default_rng(3).normal(size=(400, 4))

        def saved(c, d):
            result = calibrate(toy_model, x, c, delta=d)
            save_model(toy_model, result, tmp_path / "ckpt.bin")
            return result, (tmp_path / "ckpt.bin").read_bytes()

        result, data = saved(target, delta)
        plain, plain_data = saved(float(target), float(delta))
        assert data == plain_data
        assert result == plain
        assert type(result.target_coverage) is float
        assert type(result.delta) is float
        assert result.achieved_coverage >= result.target_coverage

    @pytest.mark.parametrize("target", [1.5, np.nan, 0.0])
    def test_bad_target_rejected_before_the_forward(
            self, toy_model, monkeypatch, target):
        calls = []
        heads = FrozenNet.heads

        def counted(net, x):
            calls.append(len(x))
            return heads(net, x)

        monkeypatch.setattr(FrozenNet, "heads", counted)
        x = np.random.default_rng(3).normal(size=(500, 4))
        message = ("target_coverage: nan is not finite" if np.isnan(target)
                   else rf"target_coverage must lie in \(0, 1\], got {target}")
        with pytest.raises(ConfigurationError, match=rf"^{message}$"):
            calibrate(toy_model, x, target)
        assert calls == []
        result = calibrate(toy_model, x, 0.8)
        assert calls == [500]
        scores = toy_model.selection_scores(x)
        tau = select_threshold(scores, 0.8)
        assert result == CalibrationResult(
            tau=tau, target_coverage=0.8, n_validation=500, delta=0.001,
            epsilon=hoeffding_epsilon(500, 0.001),
            achieved_coverage=float((scores >= tau).mean()))

    def test_empty_validation_rejected(self, toy_model):
        with pytest.raises(ContractError):
            calibrate(toy_model, np.zeros((0, 4)), 0.8)

    def test_round_trip_dict(self):
        r = CalibrationResult(tau=0.4, target_coverage=0.8, n_validation=100,
                              delta=0.05, epsilon=0.1, achieved_coverage=0.81)
        assert CalibrationResult(**asdict(r)) == r
