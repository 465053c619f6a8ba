"""Post-training coverage calibration with a distribution-free guarantee.

The threshold tau is the nearest-rank 100(1-c) percentile of the selection
scores on an independent (unlabeled) validation set of n points. Accepting
whenever g(x) >= tau gives validation coverage >= c: exactly the smallest
count m with m/n >= c when scores are distinct, more when scores tie at tau.

tau is chosen from the validation scores, so the Hoeffding bound for one
fixed event does not apply to {g(x) >= tau}. The Dvoretzky-Kiefer-Wolfowitz
inequality with Massart's constant bounds the empirical CDF of the scores
uniformly over all thresholds, and so covers a data-chosen one: with
probability at least 1-delta over the validation set, the population
coverage P(g(X) >= tau) lies within

    epsilon = sqrt(ln(2/delta) / (2n))

of the validation coverage, hence is at least c - epsilon. Coverage measured
on a finite test set of size t deviates from the population coverage by a
further Binomial(t, p)/t fluctuation of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import (ContractError, DomainError, fraction, integer,
                     open_fraction, real, within)

__all__ = [
    "CalibrationResult",
    "select_threshold",
    "hoeffding_epsilon",
    "calibrate",
]


@dataclass
class CalibrationResult:
    tau: float
    target_coverage: float
    n_validation: int
    delta: float
    epsilon: float
    achieved_coverage: float

    def __post_init__(self):
        """Check every field by ``calibrate``'s rules, keeping the plain
        values the checks return; ``load_model`` reads records through it."""
        self.tau = real(self.tau, "tau")
        self.target_coverage = fraction(self.target_coverage,
                                        "target_coverage")
        self.n_validation = integer(self.n_validation, "n_validation", least=1)
        self.delta = open_fraction(self.delta, "delta")
        self.epsilon = within(self.epsilon, "epsilon", 0, np.inf, "()")
        self.achieved_coverage = within(self.achieved_coverage,
                                        "achieved_coverage", 0, 1, "[]")


def select_threshold(scores, target_coverage):
    """Nearest-rank percentile threshold over validation selection scores.

    Take m as the smallest count with m/n >= c, in the float arithmetic
    that the achieved coverage is reported in, and return the m-th largest
    score. With the accept rule ``score >= tau`` and distinct scores this
    accepts exactly m points: validation coverage m/n >= c, the closest
    achievable from above. Ties at tau accept more. Non-finite scores
    raise ``DomainError``: a NaN is never accepted, so it would break the
    m/n >= c rule.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ContractError("threshold selection needs a nonempty score set")
    # float64, as m/n is: numpy would compare m/n with a float32 c in float32
    target_coverage = fraction(target_coverage, "target_coverage")
    if not np.isfinite(scores).all():
        raise DomainError("selection scores must be finite")
    n = scores.size
    # n*c is rounded, so step m onto the exact rule; at most one step each
    m = min(n, math.ceil(n * target_coverage))
    while m / n < target_coverage:
        m += 1
    while m > 1 and (m - 1) / n >= target_coverage:
        m -= 1
    return float(np.sort(scores)[n - m])


def hoeffding_epsilon(n, delta):
    """Two-sided coverage deviation bound sqrt(ln(2/delta)/(2n)).

    DKW with Massart's constant: with probability >= 1-delta the empirical
    CDF of n scores is within this of the population CDF at every threshold.
    ``n`` must be an integer >= 1 (a bool is not) and ``delta`` a real in
    (0, 1), as for ``calibrate``: at delta >= 1 the bound promises nothing.
    ConfigurationError otherwise.
    """
    n = integer(n, "n", least=1)
    delta = open_fraction(delta, "delta")
    ratio = 2.0 / delta  # inf for a subnormal delta, whose log is finite
    ln = math.log(ratio) if ratio < math.inf else math.log(2) - math.log(delta)
    return math.sqrt(ln / (2.0 * n))


def calibrate(model, validation_inputs, target_coverage, delta=0.001):
    """Calibrate a trained selective model on unlabeled validation inputs.

    Computes eval-mode selection scores, picks the nearest-rank threshold,
    and reports the coverage deviation bound for the validation size. The
    bound holds with probability >= 1 - delta, so ``delta`` must lie in
    (0, 1) and ``target_coverage`` in (0, 1], ConfigurationError otherwise.
    Both are checked before the forward pass.
    """
    delta = open_fraction(delta, "delta")
    target_coverage = fraction(target_coverage, "target_coverage")
    validation_inputs = np.asarray(validation_inputs, dtype=np.float64)
    if validation_inputs.shape[0] == 0:
        raise ContractError("calibration needs a nonempty validation set")
    scores = model.selection_scores(validation_inputs)
    tau = select_threshold(scores, target_coverage)
    n = scores.size
    return CalibrationResult(
        tau=tau,
        target_coverage=target_coverage,
        n_validation=n,
        delta=delta,
        epsilon=hoeffding_epsilon(n, delta),
        achieved_coverage=float((scores >= tau).mean()),
    )
