"""Acceptance gate: end-to-end behavioral contracts for the whole package.

Each test prints one summary line so the suite output doubles as a report.
The tabular-regression reproduction needs the UCI Concrete Compressive
Strength CSV at data/concrete.csv (override with SELPRED_CONCRETE_CSV); it
fails with a download hint when the file is absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from selpred.autograd import finite_difference_check, no_grad, watch_kink_margins
from selpred.calibrate import calibrate, hoeffding_epsilon
from selpred.checks import CLASSIFICATION, REGRESSION
from selpred.cli import main as cli_main
from selpred.data import SplitSpec, load_csv, split, standardize, synth_classification, unstandardize_target
from selpred.evaluate import (
    cross_calibration_grid,
    mc_dropout_confidence,
    risk_coverage_curve,
    selective_metrics,
    sr_confidence,
    threshold_for_coverage,
)
from selpred.layers import TRAIN
from selpred.losses import (
    CROSS_ENTROPY,
    SQUARED,
    LossConfig,
    auxiliary_loss,
    empirical_selective_risk,
    psi,
    selective_loss,
    task_loss,
    total_loss,
)
from selpred.model import (
    ArchitectureConfig,
    build_baseline,
    build_model,
)
from selpred.optim import TrainConfig, train
from selpred.persist import load_model, save_model
from selpred.autograd import Tensor


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def _fd_probe(task, seed):
    """Worst finite-difference error of the full combined objective through a
    tiny three-headed model (dense + batchnorm + relu + softmax/sigmoid).

    Central differences are invalid at relu kinks, so parameter draws whose
    forward pass comes within 1e-3 of a kink are redrawn deterministically.
    """
    for attempt in range(20):
        s = seed + 100000 * attempt
        rng = np.random.default_rng(s)
        arch = ArchitectureConfig(
            input_dim=2, body_widths=[3], task=task,
            n_classes=3 if task == CLASSIFICATION else 0, selection_hidden=2)
        model = build_model(arch, s)
        params = model.parameters()
        for p in params:
            p.data += rng.uniform(-0.3, 0.3, p.data.shape)
        x = rng.normal(size=(4, 2))
        if task == CLASSIFICATION:
            y = rng.integers(0, 3, size=4)
            kind = CROSS_ENTROPY
        else:
            y = rng.normal(size=4)
            kind = SQUARED
        cfg = LossConfig(target_coverage=0.9, penalty_weight=32.0, alpha=0.5,
                         task_loss=kind)

        def fn():
            f_out, g_out, h_out = model.forward(x, mode=TRAIN)
            losses = task_loss(kind, f_out, y)
            sel = selective_loss(losses, g_out, cfg)
            aux = auxiliary_loss(task_loss(kind, h_out, y))
            return total_loss(sel, aux, cfg.alpha)

        with watch_kink_margins() as margins:
            fn()
        if min(margins) <= 1e-3:
            continue
        return finite_difference_check(fn, params, h=1e-5, floor=1e-8)
    raise RuntimeError(f"no kink-safe draw found for seed {seed}")


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        task = CLASSIFICATION if seed % 2 else REGRESSION
        worst = max(worst, _fd_probe(task, seed))
    elapsed = time.time() - start
    assert worst < 1e-5, f"worst relative gradient error {worst}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\ncriterion 1 PASS: worst rel error {worst:.2e} over 100 seeds "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: loss oracle equality
# ---------------------------------------------------------------------------

def test_criterion_2_loss_oracles():
    assert abs(psi(-0.2).item() - 0.0) <= 1e-12
    assert abs(psi(0.1).item() - 0.01) <= 1e-12
    risk = empirical_selective_risk(Tensor([1.0, 0.0, 1.0, 0.0]),
                                    Tensor([1.0, 1.0, 0.0, 0.0])).item()
    assert abs(risk - 0.5) <= 1e-12
    sel = selective_loss(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]),
                         LossConfig(target_coverage=0.9,
                                    penalty_weight=32.0)).item()
    assert abs(sel - 6.12) <= 1e-12
    tot = total_loss(Tensor(6.12), Tensor(3.0), 0.5).item()
    assert abs(tot - 4.56) <= 1e-12
    print("\ncriterion 2 PASS: hand-computed loss cases match to 1e-12")


# ---------------------------------------------------------------------------
# shared synthetic-task fixture (criteria 4, 6, 7, 8)
# ---------------------------------------------------------------------------

SYNTH_SEEDS = (0, 1, 2)
SYNTH_COVERAGES = (0.7, 0.8, 0.9)


def _train_synth_model(arch, tr, coverage, seed, epochs=60):
    model = build_model(arch, seed)
    cfg = TrainConfig(epochs=epochs, batch_size=256, learning_rate=2e-3,
                      seed=seed,
                      loss=LossConfig(target_coverage=coverage,
                                      task_loss=CROSS_ENTROPY))
    train(model, tr.features, tr.labels, cfg)
    return model


@pytest.fixture(scope="session")
def synth_runs():
    """Per-seed trained models and splits on the noisy-cluster task,
    shared by the synthetic-task criteria. Timing is recorded so the
    criterion-4 budget can be checked on the work attributable to it."""
    runs = []
    t_c4 = 0.0
    for seed in SYNTH_SEEDS:
        ds = synth_classification(seed, 6000, 4, 8, 0.2)
        tr, ca, te = split(ds, SplitSpec(seed=seed, stratified=True))
        tr, stats = standardize(tr)
        ca, _ = standardize(ca, stats=stats)
        te, _ = standardize(te, stats=stats)
        arch = ArchitectureConfig(input_dim=8, body_widths=[32],
                                  task=CLASSIFICATION, n_classes=4,
                                  selection_hidden=16, dropout_rate=0.0)
        t0 = time.time()
        models = {c: _train_synth_model(arch, tr, c, seed)
                  for c in (0.8,)}
        base = build_baseline(arch, seed)
        train(base, tr.features, tr.labels,
              TrainConfig(epochs=60, batch_size=256, learning_rate=2e-3,
                          seed=seed,
                          loss=LossConfig(target_coverage=1.0,
                                          task_loss=CROSS_ENTROPY)))
        t_c4 += time.time() - t0
        for c in (0.7, 0.9):
            models[c] = _train_synth_model(arch, tr, c, seed)
        runs.append({"seed": seed, "train": tr, "cal": ca, "test": te,
                     "models": models, "baseline": base, "arch": arch})
    runs[0]["criterion4_seconds"] = t_c4
    return runs


# ---------------------------------------------------------------------------
# criterion 3: tabular regression reproduction
# ---------------------------------------------------------------------------

CONCRETE_GRID = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)


def _concrete_path():
    env = os.environ.get("SELPRED_CONCRETE_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "concrete.csv"


def test_criterion_3_concrete_regression():
    path = _concrete_path()
    if not path.exists():
        pytest.fail(
            f"Concrete Compressive Strength CSV not found at {path}. "
            "Download the UCI dataset (1030 rows, 8 feature columns + "
            "strength target) as headered CSV and place it there, or point "
            "SELPRED_CONCRETE_CSV at it. This environment has no network "
            "access, so the file cannot be fetched automatically.")
    start = time.time()
    ds = load_csv(path, list(range(8)), 8, header=True, task=REGRESSION)
    risks = {c: [] for c in CONCRETE_GRID}
    full_mses = []
    for seed in (0, 1, 2):
        tr, ca, te = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=seed))
        tr, stats = standardize(tr, include_target=True)
        ca, _ = standardize(ca, stats=stats)
        te, _ = standardize(te, stats=stats)
        tstats = stats[3]
        labels = unstandardize_target(te.labels, tstats)
        arch = ArchitectureConfig(input_dim=tr.n_features, body_widths=[64],
                                  task=REGRESSION, selection_hidden=16)
        for c in CONCRETE_GRID:
            model = build_model(arch, seed)
            cfg = TrainConfig(optimizer="adam", learning_rate=5e-4,
                              epochs=800, batch_size=256, weight_decay=1e-4,
                              seed=seed,
                              loss=LossConfig(target_coverage=c,
                                              penalty_weight=32.0, alpha=0.5,
                                              task_loss=SQUARED))
            train(model, tr.features, tr.labels, cfg)
            preds, _ = model.predict(te.features, tau=-np.inf)
            preds = unstandardize_target(preds, tstats)
            if c == 1.0:
                mask = np.ones(te.n_samples, dtype=bool)
            else:
                result = calibrate(model, ca.features, c)
                mask = model.selection_scores(te.features) >= result.tau
            rep = selective_metrics(preds, labels, mask, REGRESSION)
            risks[c].append(rep.risk)
            if c == 1.0:
                full_mses.append(rep.risk)
    elapsed = time.time() - start
    mean = {c: float(np.mean(risks[c])) for c in CONCRETE_GRID}
    full = float(np.mean(full_mses))

    assert 28.0 <= full <= 50.0, f"full-coverage MSE {full:.2f} outside [28, 50]"
    reduction = (full - mean[0.5]) / full
    assert reduction >= 0.15, (
        f"c=0.5 risk {mean[0.5]:.2f} is only {100*reduction:.1f}% below "
        f"full-coverage MSE {full:.2f}")
    seq = [mean[c] for c in CONCRETE_GRID]
    inversions = [(seq[i + 1] - seq[i]) / seq[i]
                  for i in range(len(seq) - 1) if seq[i + 1] > seq[i]]
    assert len(inversions) <= 1 and all(v <= 0.05 for v in inversions), (
        f"risk not non-increasing over {CONCRETE_GRID}: {seq} "
        f"(inversions {inversions})")
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    print(f"\ncriterion 3 PASS: full MSE {full:.2f}, c=0.5 risk "
          f"{mean[0.5]:.2f} ({100*reduction:.1f}% lower), grid {np.round(seq,2)}, "
          f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: synthetic selective classification vs softmax response
# ---------------------------------------------------------------------------

def test_criterion_4_synthetic_classification(synth_runs, record_property):
    noise_fracs = []
    wins = 0
    for run in synth_runs:
        model = run["models"][0.8]
        te = run["test"]
        result = calibrate(model, run["cal"].features, 0.8)
        scores = model.selection_scores(te.features)
        mask = scores >= result.tau
        preds, _ = model.predict(te.features, tau=-np.inf)
        rep = selective_metrics(preds, te.labels, mask, CLASSIFICATION)
        noise_fracs.append(te.provenance["noise_mask"][~mask].mean())

        base = run["baseline"]
        with no_grad():
            sr_cal = sr_confidence(base.forward(run["cal"].features)[0].data)
            sr_test = sr_confidence(base.forward(te.features)[0].data)
        tau = threshold_for_coverage(sr_cal, rep.coverage)
        bpreds, _ = base.predict(te.features)
        brep = selective_metrics(bpreds, te.labels, sr_test >= tau,
                                 CLASSIFICATION)
        if rep.risk <= brep.risk:
            wins += 1
        seed = run["seed"]
        record_property(f"selectivenet_risk_seed{seed}", float(rep.risk))
        record_property(f"sr_risk_seed{seed}", float(brep.risk))
        record_property(f"noise_fraction_seed{seed}", float(noise_fracs[-1]))
    record_property("noise_fraction_bound", 0.60)
    record_property("wins", wins)
    record_property("wins_bound", 2)

    assert all(f >= 0.60 for f in noise_fracs), (
        f"rejected-point noise fractions {noise_fracs}")
    assert wins >= 2, f"beat softmax response in only {wins}/3 seeds"
    elapsed = synth_runs[0]["criterion4_seconds"]
    assert elapsed < 180.0, f"training took {elapsed:.0f}s"
    print(f"\ncriterion 4 PASS: noise fraction of rejections "
          f"{np.round(noise_fracs, 3)}, beat SR in {wins}/3 seeds, "
          f"{elapsed:.0f}s training")


# ---------------------------------------------------------------------------
# criterion 5: calibration guarantee
# ---------------------------------------------------------------------------

def test_criterion_5_calibration_guarantee(synth_runs, record_property):
    # closed-form spot checks against high-precision evaluation of
    # sqrt(ln(2/delta)/(2n))
    assert abs(hoeffding_epsilon(5000, 0.001)
               - 0.027569734238004693) <= 1e-6
    assert abs(hoeffding_epsilon(200, 0.05)
               - 0.09603227913199208) <= 1e-6

    run = synth_runs[0]
    model = run["models"][0.8]
    pool = model.selection_scores(
        np.vstack([run["cal"].features, run["test"].features]))
    eps = hoeffding_epsilon(500, 0.05)
    rng = np.random.default_rng(123)
    violations = 0
    for _ in range(200):
        idx = rng.permutation(pool.size)
        val, tst = pool[idx[:500]], pool[idx[500:1000]]
        tau = threshold_for_coverage(val, 0.8)
        if abs((tst >= tau).mean() - 0.8) > eps:
            violations += 1
    bound = 0.05 + 1.645 * math.sqrt(0.05 * 0.95 / 200)
    rate = violations / 200
    record_property("violation_rate", rate)
    record_property("violation_rate_bound", bound)
    assert rate <= bound, f"violation rate {rate} exceeds {bound:.4f}"
    print(f"\ncriterion 5 PASS: epsilon({500},0.05)={eps:.4f}, violation rate "
          f"{rate:.3f} <= {bound:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: coverage-violation phenomenon and its repair
# ---------------------------------------------------------------------------

def test_criterion_6_coverage_violation_repair(synth_runs, record_property):
    c = 0.7
    improved = 0
    lines = []
    for run in synth_runs:
        model = run["models"][c]
        scores = model.selection_scores(run["test"].features)
        uncal_viol = abs((scores >= 0.5).mean() - c)
        result = calibrate(model, run["cal"].features, c)
        cal_viol = abs((scores >= result.tau).mean() - c)
        lines.append((run["seed"], uncal_viol, cal_viol))
        if cal_viol < uncal_viol:
            improved += 1
        record_property(f"uncalibrated_violation_seed{run['seed']}",
                        float(uncal_viol))
        record_property(f"calibrated_violation_seed{run['seed']}",
                        float(cal_viol))
    record_property("improved", improved)
    record_property("improved_bound", 2)
    assert all(u > 0.0 for _, u, _ in lines), "uncalibrated violation is zero"
    assert improved >= 2, f"calibration improved only {improved}/3 seeds: {lines}"
    print(f"\ncriterion 6 PASS: (seed, uncal, cal) violations "
          f"{[(s, round(u, 4), round(v, 4)) for s, u, v in lines]}")


# ---------------------------------------------------------------------------
# criterion 7: cross-calibration grid diagonal
# ---------------------------------------------------------------------------

def test_criterion_7_cross_calibration_grid(synth_runs, record_property):
    grids = []
    for run in synth_runs:
        models = [run["models"][c] for c in SYNTH_COVERAGES]
        grids.append(cross_calibration_grid(
            models, run["cal"].features, run["test"].features,
            run["test"].labels, list(SYNTH_COVERAGES)))
    g = np.stack(grids)
    mean = g.mean(axis=0)
    se = g.std(axis=0, ddof=1) / np.sqrt(g.shape[0])
    ok_cols = 0
    for j in range(len(SYNTH_COVERAGES)):
        pooled = math.sqrt(float((se[:, j] ** 2).mean()))
        if mean[j, j] <= mean[:, j].min() + pooled:
            ok_cols += 1
    record_property("ok_cols", ok_cols)
    record_property("ok_cols_bound", 2)
    record_property("mean_grid", mean.tolist())
    assert ok_cols >= 2, (
        f"diagonal within pooled SE of column min in only {ok_cols}/3 "
        f"columns\n{mean}")
    print(f"\ncriterion 7 PASS: diagonal optimal-within-SE in {ok_cols}/3 "
          f"columns; mean grid\n{np.round(mean, 3)}")


# ---------------------------------------------------------------------------
# criterion 8: baseline contracts
# ---------------------------------------------------------------------------

def test_criterion_8_baseline_contracts(synth_runs):
    run = synth_runs[0]
    base = run["baseline"]
    te, ca = run["test"], run["cal"]

    zero_scores = mc_dropout_confidence(base, te.features[:50], passes=10,
                                        rate=0.0, seed=0, task=CLASSIFICATION)
    assert np.all(zero_scores == 0.0)

    uniform = np.full((3, 4), 0.25)
    assert np.all(sr_confidence(uniform) == 0.25)

    preds, _ = base.predict(te.features)
    full = selective_metrics(preds, te.labels,
                             np.ones(te.n_samples, bool), CLASSIFICATION)
    with no_grad():
        sr_cal = sr_confidence(base.forward(ca.features)[0].data)
        sr_test = sr_confidence(base.forward(te.features)[0].data)
    mc_cal = mc_dropout_confidence(base, ca.features, 100, 0.5, 1,
                                   CLASSIFICATION)
    mc_test = mc_dropout_confidence(base, te.features, 100, 0.5, 2,
                                    CLASSIFICATION)
    for cal_s, test_s in ((sr_cal, sr_test), (mc_cal, mc_test)):
        rows = risk_coverage_curve(cal_s, test_s, preds, te.labels,
                                   [1.0, 0.8, 0.6], CLASSIFICATION)
        assert rows[0][2] == full.risk  # c=1 point, exact
        assert all(np.isfinite(r) and 0 < cov <= 1.0 for _, cov, r in rows)
    print("\ncriterion 8 PASS: zero-rate MC variance exactly 0, uniform SR "
          "row 1/k, c=1 curve points equal full-coverage risk exactly")


# ---------------------------------------------------------------------------
# criterion 9: determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_persistence(synth_runs, tmp_path):
    import yaml
    cfg = {
        "dataset": {"kind": "synthetic", "seed": 0, "m": 600, "n_classes": 3,
                    "n_features": 5, "noise_fraction": 0.2},
        "split": {"seed": 0, "stratified": True},
        "architecture": {"body_widths": [16], "selection_hidden": 8,
                         "dropout_rate": 0.0},
        "train": {"epochs": 10, "batch_size": 64, "learning_rate": 2e-3},
        "seeds": [0],
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["compare", "--config", str(cfg_path),
                       "--coverages", "1.0,0.8", "--seeds", "0",
                       "--out", str(out)])
        assert rc == 0
        blobs.append((out / "compare.csv").read_bytes())
    assert blobs[0] == blobs[1], "compare.csv differs between identical runs"

    model = synth_runs[0]["models"][0.8]
    x = synth_runs[0]["test"].features[:64]
    before_f = model.forward(x)[0].data
    before_g = model.selection_scores(x)
    path = tmp_path / "model.ckpt"
    save_model(model, None, path)
    loaded, _ = load_model(path)
    np.testing.assert_array_equal(before_f, loaded.forward(x)[0].data)
    np.testing.assert_array_equal(before_g, loaded.selection_scores(x))
    print("\ncriterion 9 PASS: byte-identical compare.csv, bit-identical "
          "round-trip forward outputs")
