"""Risk-coverage trade-off on a regression task with uneven noise.

Targets are a smooth function of the inputs plus noise whose scale depends
on the input region, so some points are inherently harder to predict. The
selective model is trained at several target coverages; lowering coverage
should lower the selective MSE because the selection head learns to abstain
on the high-noise region first. The same sweep is also traced for an
MC-dropout confidence score on a full-coverage twin.

Run:  python3 demos/regression_reject_option.py
"""

import numpy as np

from selpred import (
    ArchitectureConfig,
    Dataset,
    LossConfig,
    SplitSpec,
    TrainConfig,
    build_baseline,
    build_model,
    risk_coverage_curves,
    split,
    standardize,
    train,
)
from selpred.checks import REGRESSION

SEED = 0
rng = np.random.default_rng(SEED)

m = 4000
x = rng.uniform(-2.0, 2.0, size=(m, 4))
clean = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 - x[:, 2] * x[:, 3]
# noise scale jumps 8x in the half-space x0 > 0.5
sigma = np.where(x[:, 0] > 0.5, 1.6, 0.2)
y = clean + sigma * rng.normal(size=m)
dataset = Dataset(x, y, REGRESSION)

train_ds, cal_ds, test_ds = split(dataset, SplitSpec(seed=SEED))
train_ds, stats = standardize(train_ds)
cal_ds, _ = standardize(cal_ds, stats=stats)
test_ds, _ = standardize(test_ds, stats=stats)

arch = ArchitectureConfig(input_dim=4, body_widths=[64], task=REGRESSION,
                          selection_hidden=16, dropout_rate=0.05)
print("coverage  selective MSE")
for c in (1.0, 0.9, 0.8, 0.7, 0.6):
    model = build_model(arch, SEED)
    train(model, train_ds.features, train_ds.labels,
          TrainConfig(epochs=80, batch_size=256, learning_rate=2e-3,
                      seed=SEED, loss=LossConfig(target_coverage=c)))
    [(_, cov, risk)] = risk_coverage_curves(
        model, cal_ds.features, test_ds.features, test_ds.labels, ["g"],
        [c])["g"]
    print(f"  {c:.1f}     {risk:8.4f}   (achieved coverage {cov:.3f})")

print("\nMC-dropout baseline (full-coverage twin, negative predictive variance):")
base = build_baseline(arch, SEED)
train(base, train_ds.features, train_ds.labels,
      TrainConfig(epochs=80, batch_size=256, learning_rate=2e-3, seed=SEED,
                  loss=LossConfig(target_coverage=1.0)))
# MC-dropout at the regression setting: 200 passes at rate 0.05, seeds 1, 2
rows = risk_coverage_curves(base, cal_ds.features, test_ds.features,
                            test_ds.labels, ["mcdropout"],
                            [1.0, 0.9, 0.8, 0.7, 0.6], mc_seeds=(1, 2))
for c, cov, risk in rows["mcdropout"]:
    print(f"  {c:.1f}     {risk:8.4f}   (achieved coverage {cov:.3f})")
