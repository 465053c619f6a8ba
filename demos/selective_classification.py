"""Train a selective classifier that learns what to reject.

The synthetic task mixes well-separated Gaussian clusters with a 20% share
of inherently ambiguous points drawn near the origin with random labels. A
model that may abstain should shed exactly those points first. This script
trains the three-headed model at target coverage 0.8, calibrates the
acceptance threshold, and shows that the rejected points are overwhelmingly
the ambiguous ones.

Run:  python3 demos/selective_classification.py
"""

import numpy as np

from selpred import (
    ArchitectureConfig,
    LossConfig,
    SplitSpec,
    TrainConfig,
    build_model,
    calibrate,
    selective_metrics,
    standardized_splits,
    synth_classification,
    train,
)
from selpred.checks import CLASSIFICATION
from selpred.losses import CROSS_ENTROPY

SEED = 0
TARGET_COVERAGE = 0.8

dataset = synth_classification(seed=SEED, m=6000, n_classes=4, n_features=8,
                               noise_fraction=0.2)
train_ds, cal_ds, test_ds, _ = standardized_splits(
    dataset, SplitSpec(seed=SEED, stratified=True))

arch = ArchitectureConfig(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                          n_classes=4, selection_hidden=16)
model = build_model(arch, SEED)
print(f"training at target coverage {TARGET_COVERAGE} ...")
history = train(model, train_ds.features, train_ds.labels,
                TrainConfig(epochs=60, batch_size=256, learning_rate=2e-3,
                            seed=SEED,
                            loss=LossConfig(target_coverage=TARGET_COVERAGE,
                                            task_loss=CROSS_ENTROPY)))
print(f"final training soft coverage: {history.soft_coverage[-1]:.3f}")

result = calibrate(model, cal_ds.features, TARGET_COVERAGE)
print(f"calibrated threshold tau={result.tau:.4f} "
      f"(validation coverage {result.achieved_coverage:.4f}, "
      f"epsilon={result.epsilon:.4f})")

preds, accepted = model.predict(test_ds.features, tau=result.tau)
report = selective_metrics(preds, test_ds.labels, accepted, CLASSIFICATION)
full = selective_metrics(preds, test_ds.labels,
                         np.ones(test_ds.n_samples, bool), CLASSIFICATION)
noise = test_ds.provenance["noise_mask"]

print(f"\ntest coverage:        {report.coverage:.4f}")
print(f"selective error:      {report.risk:.2f}%  (full coverage: {full.risk:.2f}%)")
print(f"rejected points:      {report.n_rejected}")
print(f"... that are ambiguous by construction: {100 * noise[~accepted].mean():.1f}%")
print(f"ambiguous points rejected overall:      {100 * (~accepted)[noise].mean():.1f}%")
