"""Selective prediction with an integrated reject option.

End-to-end coverage-constrained training of a three-headed network,
post-training coverage calibration with a DKW coverage bound, and
softmax-response / MC-dropout rejection baselines.
"""

from .autograd import Tensor, finite_difference_check, no_grad
from .calibrate import (
    CalibrationResult,
    calibrate,
    hoeffding_epsilon,
    select_threshold,
)
from .data import (Dataset, SplitSpec, load_csv, split, standardize,
                   standardized_splits, synth_classification)
from .evaluate import (
    EvalReport,
    cross_calibration_grid,
    mc_dropout_confidence,
    risk_coverage_curve,
    risk_coverage_curves,
    selective_metrics,
    sr_confidence,
    threshold_for_coverage,
)
from .losses import (
    LossConfig,
    auxiliary_loss,
    empirical_coverage,
    empirical_selective_risk,
    psi,
    selective_loss,
    task_loss,
    total_loss,
)
from .model import (
    ArchitectureConfig,
    FrozenNet,
    SelectiveNet,
    build_baseline,
    build_model,
)
from .optim import Adam, SGD, TrainConfig, TrainHistory, lr_schedule, train
from .persist import load_model, save_model

__version__ = "0.1.0"
