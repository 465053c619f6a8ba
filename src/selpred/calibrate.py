"""Post-training coverage calibration with a Hoeffding guarantee.

The threshold tau is the nearest-rank 100(1-c) percentile of the selection
scores on an independent (unlabeled) validation set; predicting whenever
g(x) >= tau then achieves validation coverage >= c, the closest achievable
from above when scores are distinct. Since {g(x) >= tau} is a Bernoulli
event, the test coverage concentrates around the validation coverage:
with probability at least 1-delta it lies within

    epsilon = sqrt(ln(2/delta) / (2n))

of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import DomainError
from .layers import ContractError

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

    def to_dict(self):
        return {
            "tau": self.tau,
            "target_coverage": self.target_coverage,
            "n_validation": self.n_validation,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "achieved_coverage": self.achieved_coverage,
        }

    @staticmethod
    def from_dict(d):
        return CalibrationResult(
            tau=d["tau"],
            target_coverage=d["target_coverage"],
            n_validation=d["n_validation"],
            delta=d["delta"],
            epsilon=d["epsilon"],
            achieved_coverage=d["achieved_coverage"],
        )


def select_threshold(scores, target_coverage):
    """Nearest-rank percentile threshold over validation selection scores.

    Sort ascending and take the value at 1-based rank
    k = floor(n*(1-c)) + 1. With the accept rule ``score >= tau`` and
    distinct scores this yields validation coverage (n-k+1)/n >= c, the
    closest achievable from above.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ContractError("threshold selection needs a nonempty score set")
    if not 0.0 < target_coverage <= 1.0:
        raise DomainError(f"target coverage must be in (0,1], got {target_coverage}")
    n = scores.size
    # tiny guard so e.g. 10*(1-0.8) = 1.9999... still floors to 2
    k = int(math.floor(n * (1.0 - target_coverage) + 1e-9)) + 1
    k = min(k, n)
    return float(np.sort(scores)[k - 1])


def hoeffding_epsilon(n, delta):
    """Closed-form two-sided coverage violation bound sqrt(ln(2/delta)/(2n))."""
    if n < 1:
        raise DomainError(f"validation size must be >= 1, got {n}")
    if not 0.0 < delta < 2.0:
        raise DomainError(f"delta must be in (0, 2), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def calibrate(model, validation_inputs, target_coverage, delta=0.001):
    """Calibrate a trained selective model on unlabeled validation inputs.

    Computes eval-mode selection scores, picks the nearest-rank threshold,
    and reports the Hoeffding violation bound for the validation size.
    """
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
