"""Selective metrics, rejection baselines, and risk-coverage machinery.

Classification risk is reported as 0/1 error in percent, regression risk as
MSE, both computed only over accepted samples and normalized by the hard
empirical coverage. The two baselines score confidence per sample (higher =
more confident): softmax response uses the maximum softmax activation, and
MC-dropout uses negative variance statistics over repeated stochastic
forward passes with dropout active. Every score here is computed on the
model's frozen, batchnorm-folded arrays (``SelectiveNet.freeze``), never on
the training tape. ``risk_coverage_curves`` is the one path from a model to
its risk-coverage curves: the CLI and ``cross_calibration_grid`` use it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .calibrate import select_threshold
from .checks import (CLASSIFICATION, ConfigurationError, ContractError,
                     DegenerateCoverageError, drop_rate, fraction, integer,
                     size)
from .data import unstandardize_target
from .layers import softmax_rows

__all__ = [
    "EvalReport",
    "selective_metrics",
    "sr_confidence",
    "mc_dropout_confidence",
    "threshold_for_coverage",
    "risk_coverage_curve",
    "risk_coverage_curves",
    "cross_calibration_grid",
    "percent_improvement",
    "write_csv",
]

# MC-dropout settings reported for the two task types.
MC_DROPOUT_CLASSIFICATION = {"passes": 100, "rate": 0.5}
MC_DROPOUT_REGRESSION = {"passes": 200, "rate": 0.05}


@dataclass
class EvalReport:
    coverage: float
    risk: float
    n_covered: int
    n_rejected: int


def per_sample_loss(predictions, labels, task):
    """0/1 error for classification, squared error for regression."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape[0] != labels.shape[0]:
        raise ContractError("predictions and labels must have equal length")
    if task == CLASSIFICATION:
        return (predictions != labels).astype(np.float64)
    return (predictions.astype(np.float64) - labels.astype(np.float64)) ** 2


def selective_metrics(predictions, labels, accept_mask, task):
    """Hard-mask selective risk and coverage over an evaluation set."""
    accept_mask = np.asarray(accept_mask, dtype=bool)
    losses = per_sample_loss(predictions, labels, task)
    if accept_mask.shape != losses.shape:
        raise ContractError("accept mask length must match predictions")
    n = losses.size
    n_cov = int(accept_mask.sum())
    if n_cov == 0:
        raise DegenerateCoverageError(
            "no accepted samples; selective risk undefined")
    risk = float(losses[accept_mask].mean())
    if task == CLASSIFICATION:
        risk *= 100.0
    return EvalReport(
        coverage=n_cov / n,
        risk=risk,
        n_covered=n_cov,
        n_rejected=n - n_cov,
    )


def sr_confidence(softmax_output):
    """Softmax-response score: the maximum softmax activation per row."""
    p = np.asarray(softmax_output, dtype=np.float64)
    if p.ndim != 2:
        raise ContractError(f"expected (batch, classes) softmax rows, got {p.shape}")
    return p.max(axis=1)


def mc_dropout_confidence(model, inputs, passes, rate, seed, task):
    """Negative-variance confidence from repeated dropout-active passes.

    Each pass runs the frozen (batchnorm-folded) body with inverted dropout
    at ``rate`` after every hidden block and computes f only, one pass at a
    time after a first block computed once for all (``FrozenNet.dropout_f``),
    so the working set is one pass's; the model needs no dropout layers,
    and its rates are not touched. The masks (``dropout_mask``) are
    drawn pass after pass, block after block, and none at rate 0.
    Classification: variance across passes of the probability assigned to
    the consensus class (argmax of the mean prediction).
    Regression: variance of the scalar output. Deterministic given the seed;
    identical passes (e.g. rate 0) yield exactly zero variance. ``task``
    must be the model's, ``rate`` a real in [0, 1), ``passes`` a size
    (``checks.size``) and ``seed`` an integer >= 0; ConfigurationError naming
    them otherwise, and ContractError for fewer than 2 passes.
    """
    if task != model.config.task:
        raise ConfigurationError(f"MC-dropout for a {task} task on a "
                                 f"{model.config.task} model")
    rate = drop_rate(rate, "rate")  # a plain float, as numpy scalars act
    if size(passes, "passes", least=None) < 2:
        raise ContractError("MC-dropout needs at least 2 passes")
    rng = np.random.default_rng(integer(seed, "seed", least=0))
    # (passes, m, k) or (passes, m)
    outs = model.freeze().dropout_f(inputs, rate, rng, passes)
    identical = np.all(outs == outs[0], axis=0)
    if task == CLASSIFICATION:
        consensus = outs.mean(axis=0).argmax(axis=1)
        track = outs[:, np.arange(outs.shape[1]), consensus]
        var = track.var(axis=0)
        var[np.all(identical, axis=1)] = 0.0
    else:
        var = outs.var(axis=0)
        var[identical] = 0.0
    return -var


def threshold_for_coverage(scores, target_coverage):
    """Nearest-rank threshold; same rule as selection-score calibration."""
    return select_threshold(scores, target_coverage)


def risk_coverage_curve(cal_scores, test_scores, predictions, labels,
                        coverage_grid, task):
    """Trace selective risk against target coverage for one confidence score.

    Thresholds are fit on the calibration scores only; metrics come from the
    test split. The c = 1 point accepts everything so its risk equals the
    full-coverage risk exactly.
    """
    cal_scores = np.asarray(cal_scores, dtype=np.float64)
    test_scores = np.asarray(test_scores, dtype=np.float64)
    rows = []
    for c in coverage_grid:
        fraction(c, "coverage")
        if c == 1.0:
            mask = np.ones(test_scores.size, dtype=bool)
        else:
            tau = threshold_for_coverage(cal_scores, c)
            mask = test_scores >= tau
        rep = selective_metrics(predictions, labels, mask, task)
        rows.append((c, rep.coverage, rep.risk))
    return rows


def risk_coverage_curves(model, cal_inputs, test_inputs, test_labels, kinds,
                         coverages, target_stats=None, mc_seeds=(0, 1)):
    """``{kind: risk_coverage_curve rows}`` of ``model`` for each score kind
    in ``kinds`` (``g``, ``sr``, ``mcdropout``): thresholds fit on
    ``cal_inputs``, risks read on the labelled test rows, regression ones in
    original units by ``target_stats`` (see ``unstandardize_target``). One
    frozen forward per split serves the predictions and the g and SR scores;
    MC-dropout makes its own passes, seeded ``mc_seeds`` = (calibration,
    test), so it alone runs no forward on ``cal_inputs``. A kind that does
    not fit the model (``sr`` on a regression, ``g`` on the twin) is a
    ConfigurationError."""
    task = model.config.task
    for kind in kinds:
        if (kind == "sr" and task != CLASSIFICATION
                or kind == "g" and not model.selective):
            raise ConfigurationError(
                f"score kind {kind!r} does not apply to this {task} model")
    frozen = model.freeze()
    mc = (MC_DROPOUT_CLASSIFICATION if task == CLASSIFICATION
          else MC_DROPOUT_REGRESSION)

    def scores(kind, inputs, heads, mc_seed):
        if kind == "mcdropout":
            return mc_dropout_confidence(model, inputs, mc["passes"],
                                         mc["rate"], mc_seed, task)
        f, g = heads
        return g if kind == "g" else sr_confidence(softmax_rows(f)[0].T)

    cal = frozen.heads(cal_inputs) if set(kinds) - {"mcdropout"} else None
    test = frozen.heads(test_inputs)
    if task == CLASSIFICATION:
        preds, labels = test[0].argmax(axis=1), test_labels
    else:
        preds, labels = (unstandardize_target(v, target_stats)
                         for v in (test[0], test_labels))
    return {kind: risk_coverage_curve(
        scores(kind, cal_inputs, cal, mc_seeds[0]),
        scores(kind, test_inputs, test, mc_seeds[1]),
        preds, labels, coverages, task) for kind in kinds}


def cross_calibration_grid(models, cal_inputs, test_inputs, test_labels,
                           coverages, target_stats=None):
    """Matrix of selective risks: rows = training coverage, cols = calibration.

    Entry (i, j) is the risk of models[i] calibrated on ``cal_inputs`` to
    coverage ``coverages[j]`` and evaluated on the test split: row i is the
    ``g`` curve of ``risk_coverage_curves`` for models[i], in the target's
    original units when ``target_stats`` is given.
    """
    grid = np.empty((len(models), len(coverages)))
    for i, model in enumerate(models):
        curve = risk_coverage_curves(model, cal_inputs, test_inputs,
                                     test_labels, ["g"], coverages,
                                     target_stats)["g"]
        grid[i] = [risk for _, _, risk in curve]
    return grid


def percent_improvement(baseline_risk, selnet_risk):
    """100*(baseline - selnet)/baseline, or None when the baseline risk is 0."""
    if baseline_risk == 0:
        return None
    return 100.0 * (baseline_risk - selnet_risk) / baseline_risk


def write_csv(path, comments, colnames, rows):
    """CSV with '#'-prefixed provenance comment lines before the header."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(colnames)
        for row in rows:
            writer.writerow(["n/a" if v is None else repr(float(v))
                             if isinstance(v, float) else v for v in row])
