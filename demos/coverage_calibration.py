"""Why calibrate coverage after training, and what the guarantee buys.

Training with the quadratic coverage penalty steers the selection head
toward the target coverage, but the realized test coverage can still miss
it. Re-thresholding the selection scores on a held-out split (nearest-rank
percentile) repairs this, and the DKW inequality (Massart's constant) bounds
how far the population coverage can drift from the calibrated value; a
finite test set adds its own sampling deviation.

This script trains one model at target coverage 0.7, compares uncalibrated
vs calibrated test coverage, and then checks the bound empirically: it
draws validation sets i.i.d. from the model's score pool, whose empirical
distribution then is the population, and counts the runs whose population
coverage falls below target - epsilon, the event the guarantee bounds.

Run:  python3 demos/coverage_calibration.py
"""

import numpy as np

from selpred import (
    ArchitectureConfig,
    LossConfig,
    SplitSpec,
    TrainConfig,
    build_model,
    calibrate,
    hoeffding_epsilon,
    select_threshold,
    split,
    standardize,
    synth_classification,
    train,
)
from selpred.checks import CLASSIFICATION
from selpred.losses import CROSS_ENTROPY

SEED = 1
TARGET = 0.7

dataset = synth_classification(seed=SEED, m=6000, n_classes=4, n_features=8,
                               noise_fraction=0.2)
train_ds, cal_ds, test_ds = split(dataset, SplitSpec(seed=SEED, stratified=True))
train_ds, stats = standardize(train_ds)
cal_ds, _ = standardize(cal_ds, stats=stats)
test_ds, _ = standardize(test_ds, stats=stats)

model = build_model(
    ArchitectureConfig(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                       n_classes=4, selection_hidden=16), SEED)
print(f"training at target coverage {TARGET} ...")
train(model, train_ds.features, train_ds.labels,
      TrainConfig(epochs=60, batch_size=256, learning_rate=2e-3, seed=SEED,
                  loss=LossConfig(target_coverage=TARGET,
                                  task_loss=CROSS_ENTROPY)))

scores = model.selection_scores(test_ds.features)
uncal = (scores >= 0.5).mean()
result = calibrate(model, cal_ds.features, TARGET, delta=0.05)
cal = (scores >= result.tau).mean()
print(f"\nuncalibrated test coverage (tau=0.5): {uncal:.4f} "
      f"(off target by {abs(uncal - TARGET):.4f})")
print(f"calibrated test coverage (tau={result.tau:.3f}):  {cal:.4f} "
      f"(off target by {abs(cal - TARGET):.4f})")
print(f"guarantee: with prob >= 0.95, population coverage >= {TARGET} - "
      f"{result.epsilon:.4f} for n={result.n_validation}")

# empirical check of the bound: validation sets drawn i.i.d. from the pool,
# population coverage measured on the whole pool
pool = model.selection_scores(np.vstack([cal_ds.features, test_ds.features]))
n = 500
eps = hoeffding_epsilon(n, 0.05)
rng = np.random.default_rng(0)
violations = 0
trials = 200
for _ in range(trials):
    tau = select_threshold(rng.choice(pool, size=n), TARGET)
    if (pool >= tau).mean() < TARGET - eps:
        violations += 1
print(f"\nresampling check: {violations}/{trials} runs had population "
      f"coverage < {TARGET} - epsilon = {TARGET - eps:.4f} "
      f"(n={n}; the bound allows a 0.05 rate)")
