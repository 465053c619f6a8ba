"""Command-line entry point: train / calibrate / evaluate / curve / grid / compare.

Configuration lives in a YAML file (see README for the schema); command-line
flags override file values, and the merged effective config is written next
to the outputs for reproducibility. All tabular outputs are CSV with a
'#'-prefixed provenance header (config hash, seeds, format version).

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .calibrate import calibrate
from .data import SplitSpec, load_csv, split, standardize, synth_classification
from .evaluate import (
    MC_DROPOUT_CLASSIFICATION,
    MC_DROPOUT_REGRESSION,
    cross_calibration_grid,
    mc_dropout_confidence,
    percent_improvement,
    predictions_and_scores,
    risk_coverage_curve,
    selective_metrics,
    sr_confidence,
    # unused: bench/spans.py SITES wraps it until a benchmark change drops both
    threshold_for_coverage,
    write_csv,
)
from .layers import ConfigurationError, softmax_rows
from .losses import LossConfig
from .model import CLASSIFICATION, ArchitectureConfig, build_baseline, build_model
from .optim import TrainConfig, train
from .persist import load_model, save_model

FORMAT_VERSION = 1


def _load_config(path):
    with open(path) as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config root must be a mapping")
    return cfg


def _config_hash(cfg):
    blob = yaml.safe_dump(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _out_dir(path_str):
    root = os.environ.get("SELPRED_OUT_ROOT")
    p = Path(path_str)
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_effective_config(cfg, out_dir, name="effective_config.yaml"):
    with open(out_dir / name, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def _provenance(cfg, seeds):
    return [
        f"config_hash={_config_hash(cfg)}",
        f"seeds={','.join(str(s) for s in seeds)}",
        f"format_version={FORMAT_VERSION}",
    ]


def _load_dataset(cfg):
    d = cfg.get("dataset", {})
    if not isinstance(d, dict):
        raise ConfigurationError("config field dataset must be a mapping")

    def required(key):
        if key not in d:
            raise ConfigurationError(f"config field dataset.{key} is missing")
        return d[key]

    kind = d.get("kind", "csv")
    if kind == "csv":
        return load_csv(required("path"), required("feature_columns"),
                        required("target_column"),
                        header=d.get("header", True),
                        task=d.get("task", "regression"))
    if kind == "synthetic":
        return synth_classification(
            seed=d.get("seed", 0), m=required("m"),
            n_classes=required("n_classes"),
            n_features=required("n_features"),
            noise_fraction=d.get("noise_fraction", 0.0))
    raise ValueError(f"unknown dataset kind {kind!r}")


def prepare_splits(cfg, split_seed=None):
    """Load, split, and standardize per the config.

    Returns ``(train_ds, cal_ds, test_ds, target_stats)``: features are
    z-scored with train-split statistics, regression targets standardized
    when ``dataset.standardize_target`` is set, and ``target_stats`` holds
    the inverse transform for reporting in original units.
    """
    ds = _load_dataset(cfg)
    s = cfg.get("split", {})
    spec = SplitSpec(
        train=s.get("train", 0.6), calibration=s.get("calibration", 0.2),
        test=s.get("test", 0.2),
        seed=split_seed if split_seed is not None else s.get("seed", 0),
        stratified=s.get("stratified", False))
    tr, ca, te = split(ds, spec)
    include_target = (ds.task != CLASSIFICATION
                      and cfg.get("dataset", {}).get("standardize_target", True))
    tr, stats = standardize(tr, include_target=include_target)
    ca, _ = standardize(ca, stats=stats)
    te, _ = standardize(te, stats=stats)
    return tr, ca, te, stats[3]


def _architecture(cfg, tr, ca, te):
    """Architecture for the splits' task; a classifier gets one output per
    class index up to the largest label in any split."""
    a = cfg.get("architecture", {})
    n_classes = (int(max(s.labels.max() for s in (tr, ca, te))) + 1
                 if tr.task == CLASSIFICATION else 0)
    return ArchitectureConfig(
        input_dim=tr.n_features,
        body_widths=list(a.get("body_widths", [64])),
        task=tr.task,
        n_classes=n_classes,
        selection_hidden=a.get("selection_hidden", 16),
        batchnorm=a.get("batchnorm", True),
        dropout_rate=a.get("dropout_rate"),
        auxiliary_head=a.get("auxiliary_head", True),
    )


def _loss_config(cfg, task, coverage=None):
    ls = cfg.get("loss", {})
    return LossConfig(
        target_coverage=coverage if coverage is not None
        else ls.get("target_coverage", 0.8),
        penalty_weight=ls.get("penalty_weight", 32.0),
        alpha=ls.get("alpha", 0.5),
        task_loss=ls.get("task_loss",
                         "cross-entropy" if task == CLASSIFICATION else "squared"),
    )


def _train_config(cfg, seed, loss_cfg):
    t = cfg.get("train", {})
    return TrainConfig(
        optimizer=t.get("optimizer", "adam"),
        learning_rate=t.get("learning_rate", 5e-4),
        epochs=t.get("epochs", 800),
        batch_size=t.get("batch_size", 256),
        weight_decay=t.get("weight_decay", 1e-4),
        momentum=t.get("momentum", 0.9),
        lr_halving_period=t.get("lr_halving_period", 25),
        seed=seed,
        shuffle=t.get("shuffle", True),
        loss=loss_cfg,
    )


# -- subcommands --------------------------------------------------------------


def cmd_train(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seeds", [0])[0]
    out = _out_dir(args.out)
    tr, ca, te, tstats = prepare_splits(cfg)
    arch = _architecture(cfg, tr, ca, te)
    loss_cfg = _loss_config(cfg, tr.task, coverage=args.coverage)
    tcfg = _train_config(cfg, seed, loss_cfg)
    model = build_model(arch, seed)
    history = train(model, tr.features, tr.labels, tcfg)
    save_model(model, None, out / "model.ckpt")

    comments = _provenance(cfg, [seed])
    rows = [(e, history.total_loss[e], history.selective_loss[e],
             history.auxiliary_loss[e], history.soft_coverage[e],
             history.hard_coverage[e], history.selective_risk[e])
            for e in range(len(history.total_loss))]
    write_csv(out / "history.csv", comments,
              ["epoch", "total_loss", "selective_loss", "auxiliary_loss",
               "soft_coverage", "hard_coverage", "selective_risk"], rows)
    _write_effective_config(cfg, out)
    print(f"trained {tcfg.epochs} epochs; final loss "
          f"{history.total_loss[-1]:.6f}; checkpoint at {out/'model.ckpt'}")
    return 0


def cmd_calibrate(args):
    cfg = _load_config(args.config)
    out = _out_dir(args.out)
    model, _ = load_model(args.model)
    _, ca, _, _ = prepare_splits(cfg)
    result = calibrate(model, ca.features, args.coverage, delta=args.delta)
    save_model(model, result, out / "model_calibrated.ckpt")
    comments = _provenance(cfg, [model.seed])
    write_csv(out / "calibration.csv", comments,
              ["tau", "target_coverage", "n_validation", "delta", "epsilon",
               "achieved_coverage"],
              [(result.tau, result.target_coverage, result.n_validation,
                result.delta, result.epsilon, result.achieved_coverage)])
    _write_effective_config(cfg, out)
    print(f"tau={result.tau:.6f} achieved validation coverage "
          f"{result.achieved_coverage:.4f} (epsilon={result.epsilon:.6f})")
    return 0


def cmd_evaluate(args):
    cfg = _load_config(args.config)
    model, calib = load_model(args.model)
    _, _, te, tstats = prepare_splits(cfg)
    tau = args.tau if args.tau is not None else (calib.tau if calib else 0.5)
    preds, labels, accepted, _ = predictions_and_scores(
        model, te.features, te.labels, tstats, tau)
    rep = selective_metrics(preds, labels, accepted, te.task)
    print(f"coverage={rep.coverage:.4f} risk={rep.risk:.6f} "
          f"covered={rep.n_covered} rejected={rep.n_rejected}")
    if args.out:
        out = _out_dir(args.out)
        write_csv(out / "eval.csv", _provenance(cfg, [model.seed]),
                  ["tau", "coverage", "risk", "n_covered", "n_rejected"],
                  [(tau, rep.coverage, rep.risk, rep.n_covered, rep.n_rejected)])
    return 0


def _scores_for(model, features, kind, task, seed):
    if kind == "g":
        return model.selection_scores(features)
    if kind == "sr":
        if task != CLASSIFICATION:
            raise ValueError("softmax-response scores need a classification task")
        return sr_confidence(model.freeze().probabilities(features))
    if kind == "mcdropout":
        mc = (MC_DROPOUT_CLASSIFICATION if task == CLASSIFICATION
              else MC_DROPOUT_REGRESSION)
        return mc_dropout_confidence(model, features, mc["passes"], mc["rate"],
                                     seed, task)
    raise ValueError(f"unknown score kind {kind!r}")


def _sr_predictions(model, ds):
    """``(predictions, labels, SR scores)`` of a classifier on the labelled
    split ``ds``, from one frozen forward."""
    logits = model.freeze().heads(ds.features)[0]
    return (logits.argmax(axis=1), ds.labels,
            sr_confidence(softmax_rows(logits)[0]))


def cmd_curve(args):
    cfg = _load_config(args.config)
    out = _out_dir(args.out)
    model, _ = load_model(args.model)
    _, ca, te, tstats = prepare_splits(cfg)
    coverages = [float(c) for c in args.coverages.split(",")]
    cal_scores = _scores_for(model, ca.features, args.score, te.task, seed=0)
    if args.score == "sr":
        preds, labels, test_scores = _sr_predictions(model, te)
    else:
        preds, labels, _, g = predictions_and_scores(model, te.features,
                                                     te.labels, tstats)
        test_scores = (g if args.score == "g" else _scores_for(
            model, te.features, args.score, te.task, seed=1))
    rows = risk_coverage_curve(cal_scores, test_scores, preds, labels,
                               coverages, te.task)
    write_csv(out / "curve.csv", _provenance(cfg, [model.seed]),
              ["target_coverage", "achieved_coverage", "risk"], rows)
    _write_effective_config(cfg, out)
    print(f"wrote {out/'curve.csv'} ({len(rows)} points, score={args.score})")
    return 0


def cmd_grid(args):
    cfg = _load_config(args.config)
    out = _out_dir(args.out)
    models = [load_model(p)[0] for p in args.models.split(",")]
    _, ca, te, tstats = prepare_splits(cfg)
    coverages = [float(c) for c in args.coverages.split(",")]
    grid = cross_calibration_grid(models, ca.features, te.features, te.labels,
                                  coverages, tstats)
    colnames = ["train_coverage"] + [f"calib_{c}" for c in coverages]
    rows = [[m.target_coverage] + list(grid[i])
            for i, m in enumerate(models)]
    write_csv(out / "grid.csv",
              _provenance(cfg, [m.seed for m in models]), colnames, rows)
    _write_effective_config(cfg, out)
    print(f"wrote {out/'grid.csv'} ({grid.shape[0]}x{grid.shape[1]})")
    return 0


# Score kind of each baseline and the prefixes of its compare.csv columns.
_BASELINES = [("mcdropout", "mc_dropout", "mc"), ("sr", "sr", "sr")]


def run_comparison(cfg, coverages, seeds):
    """Train per-coverage selective models plus one full-coverage baseline
    per seed, all read off ``risk_coverage_curve``; returns ``(colnames,
    rows)`` for compare.csv (mean +- stderr over seeds)."""
    if not seeds:
        raise ValueError("compare needs at least one seed")
    risks = {}  # score kind -> one list of per-coverage risks per seed
    for seed in seeds:
        tr, ca, te, tstats = prepare_splits(cfg, split_seed=seed)
        task = tr.task
        baselines = _BASELINES if task == CLASSIFICATION else _BASELINES[:1]
        arch = _architecture(cfg, tr, ca, te)
        if arch.dropout_rate is None:
            # MC-dropout needs dropout layers; rate 0 is inert during training
            arch.dropout_rate = 0.0

        base = build_baseline(arch, seed)
        bcfg = _train_config(cfg, seed, _loss_config(cfg, task, coverage=1.0))
        train(base, tr.features, tr.labels, bcfg)
        if task == CLASSIFICATION:
            bpreds, blabels, test_sr = _sr_predictions(base, te)
        else:
            bpreds, blabels, _, _ = predictions_and_scores(
                base, te.features, te.labels, tstats)
        for kind, _, _ in baselines:
            curve = risk_coverage_curve(
                _scores_for(base, ca.features, kind, task, seed * 2 + 1),
                test_sr if kind == "sr" else
                _scores_for(base, te.features, kind, task, seed * 2 + 2),
                bpreds, blabels, coverages, task)
            risks.setdefault(kind, []).append([r for _, _, r in curve])

        selnet = []
        for c in coverages:
            model = build_model(arch, seed)
            tcfg = _train_config(cfg, seed, _loss_config(cfg, task, coverage=c))
            train(model, tr.features, tr.labels, tcfg)
            preds, labels, _, test_scores = predictions_and_scores(
                model, te.features, te.labels, tstats)
            [(_, _, risk)] = risk_coverage_curve(
                _scores_for(model, ca.features, "g", task, seed),
                test_scores, preds, labels, [c], task)
            selnet.append(risk)
        risks.setdefault("g", []).append(selnet)

    def agg(kind, j):
        v = np.asarray([per_seed[j] for per_seed in risks[kind]])
        se = v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else 0.0
        return float(v.mean()), float(se)

    colnames = ["coverage", "selnet_risk", "selnet_stderr"]
    for _, prefix, short in baselines:
        colnames += [f"{prefix}_risk", f"{prefix}_stderr", f"{short}_improvement"]
    rows = []
    for j, c in enumerate(coverages):
        s_mean, s_se = agg("g", j)
        row = [c, s_mean, s_se]
        for kind, _, _ in baselines:
            b_mean, b_se = agg(kind, j)
            row += [b_mean, b_se, percent_improvement(b_mean, s_mean)]
        rows.append(row)
    return colnames, rows


def cmd_compare(args):
    cfg = _load_config(args.config)
    out = _out_dir(args.out)
    coverages = [float(c) for c in args.coverages.split(",")]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else cfg.get("seeds", [0]))
    colnames, rows = run_comparison(cfg, coverages, seeds)
    write_csv(out / "compare.csv", _provenance(cfg, seeds), colnames, rows)
    _write_effective_config(cfg, out)
    print(f"wrote {out/'compare.csv'} ({len(rows)} coverage rows, "
          f"{len(seeds)} seeds)")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="selpred",
        description="Selective prediction: coverage-constrained training, "
                    "calibration, and rejection baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one selective model")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--coverage", type=float)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("calibrate", help="post-training coverage calibration")
    c.add_argument("--model", required=True)
    c.add_argument("--config", required=True)
    c.add_argument("--coverage", type=float, required=True)
    c.add_argument("--delta", type=float, default=0.001)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_calibrate)

    e = sub.add_parser("evaluate", help="selective metrics on the test split")
    e.add_argument("--model", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--tau", type=float)
    e.add_argument("--out")
    e.set_defaults(func=cmd_evaluate)

    u = sub.add_parser("curve", help="risk-coverage curve for one score")
    u.add_argument("--model", required=True)
    u.add_argument("--config", required=True)
    u.add_argument("--coverages", required=True)
    u.add_argument("--score", choices=["g", "sr", "mcdropout"], default="g")
    u.add_argument("--out", required=True)
    u.set_defaults(func=cmd_curve)

    g = sub.add_parser("grid", help="training-vs-calibration coverage grid")
    g.add_argument("--models", required=True,
                   help="comma-separated checkpoint paths")
    g.add_argument("--config", required=True)
    g.add_argument("--coverages", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_grid)

    m = sub.add_parser("compare",
                       help="selective models vs rejection baselines")
    m.add_argument("--config", required=True)
    m.add_argument("--coverages", required=True)
    m.add_argument("--seeds")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
