"""Command-line entry point: train / calibrate / evaluate / curve / grid / compare.

Configuration lives in a YAML file (see README for the schema). Its
``split``, ``architecture``, ``loss`` and ``train`` sections read into the
dataclasses that own their defaults, and ``dataset`` into its ``kind``'s
loader arguments; a bad key, value or flag raises ConfigurationError
before any data is read. The resolved config, every default filled in and
``train --seed``/``--coverage`` and ``compare --seeds`` applied, is
written next to the outputs as effective_config.yaml: it records what ran.
All tabular outputs are CSV with a '#'-prefixed provenance header (config
file hash, seeds, format version).

Exit codes: 0 success, 2 usage error, 1 a ``SelpredError`` (see ``checks``),
an ``OSError``, a ``MemoryError`` or a YAML error, printed as one ``error:``
line. Any other exception is a bug: it exits 1 with Python's traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import re
import sys
from dataclasses import MISSING, astuple, fields
from pathlib import Path

import numpy as np
import yaml

from .calibrate import calibrate
from .checks import (CLASSIFICATION, REGRESSION, ConfigurationError,
                     SelpredError, boolean, fraction, integer, open_fraction)
from .data import (SplitSpec, load_csv, standardized_splits,
                   synth_classification, unstandardize_target,
                   split, standardize)  # unused: kept for bench/spans.py SITES
from .evaluate import (
    cross_calibration_grid,
    percent_improvement,
    risk_coverage_curves,
    selective_metrics,
    write_csv,
    # unused: kept for bench/spans.py SITES until a benchmark change drops them
    mc_dropout_confidence,
    sr_confidence,
    threshold_for_coverage,
)
from .losses import LossConfig, task_loss_for
from .model import ArchitectureConfig, build_baseline, build_model
from .optim import TrainConfig, train
from .persist import load_model, save_model

CSV_FORMAT_VERSION = 1

_TOP_LEVEL = ("dataset", "split", "architecture", "loss", "train", "seeds")

_REQUIRED = object()  # marks a dataset key that has no default


def _signature_defaults(fn):
    """The parameters of ``fn`` with their defaults, ``_REQUIRED`` for one
    that has none."""
    return {name: _REQUIRED if p.default is p.empty else p.default
            for name, p in inspect.signature(fn).parameters.items()}


# The keys of each dataset kind, with their defaults: its loader's arguments.
_DATASET_KEYS = {
    "csv": {**_signature_defaults(load_csv), "standardize_target": True},
    "synthetic": {**_signature_defaults(synth_classification), "seed": 0,
                  "noise_fraction": 0.0},
}


def _load_config(path, seeds=None, coverage=None):
    """``(cfg, conf)``: the file's mapping, which the provenance hash
    covers, and its ``_resolve``d form with the command-line ``seeds`` and
    ``coverage``, when given, in place of ``seeds`` and
    ``loss.target_coverage``."""
    with open(path, "rb") as fh:  # PyYAML decodes, naming the file on error
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: config root must be a mapping")
    conf = _resolve(cfg)
    if seeds is not None:
        conf["seeds"] = _seeds(seeds)
    if coverage is not None:
        conf["loss"]["target_coverage"] = fraction(coverage, "--coverage")
    return cfg, conf


def _section(cfg, name, defaults):
    """Section ``name`` of ``cfg`` laid over ``defaults``. A key that
    ``defaults`` lacks, or a ``_REQUIRED`` one that the section lacks,
    raises ConfigurationError naming ``name.key``."""
    given = cfg.get(name, {})
    for key in given:
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {name}.{key}")
    resolved = {**defaults, **given}
    for key, value in resolved.items():
        if value is _REQUIRED:
            raise ConfigurationError(f"config field {name}.{key} is missing")
    return resolved


def _defaults(cls, *derived):
    """The field defaults of dataclass ``cls``, less the ``derived`` fields
    that the CLI works out itself."""
    return {f.name: f.default if f.default_factory is MISSING
            else f.default_factory()
            for f in fields(cls) if f.name not in derived}


def _resolve(cfg):
    """``cfg`` with its defaults filled in and each key, and each value but
    the loader arguments, checked; a resolved config resolves to itself."""
    for key, value in cfg.items():
        if key not in _TOP_LEVEL:
            raise ConfigurationError(f"unknown config key {key}")
        if key != "seeds" and not isinstance(value, dict):
            raise ConfigurationError(f"config field {key} must be a mapping")
    kind = cfg.get("dataset", {}).get("kind", "csv")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    dataset = _section(cfg, "dataset", {"kind": kind, **_DATASET_KEYS[kind]})
    # the task loss defaults by task; synthetic data is classification
    task = dataset.get("task", CLASSIFICATION)
    if task not in (CLASSIFICATION, REGRESSION):
        raise ConfigurationError(f"unknown task {task!r}")
    loss = dict(_defaults(LossConfig), task_loss=task_loss_for(task))
    conf = {
        "dataset": dataset,
        "split": _section(cfg, "split", _defaults(SplitSpec)),
        "architecture": _section(cfg, "architecture", _defaults(
            ArchitectureConfig, "input_dim", "task", "n_classes")),
        "loss": _section(cfg, "loss", loss),
        "train": _section(cfg, "train", _defaults(TrainConfig, "seed", "loss")),
        "seeds": _seeds(cfg.get("seeds", [0])),
    }
    if kind == "csv":
        boolean(dataset["standardize_target"], "standardize_target")
    SplitSpec(**conf["split"]).validate()
    _train_config(conf, 0).validate()
    # input_dim, task and n_classes come from the data: stand-ins until read
    ArchitectureConfig(**conf["architecture"], input_dim=1).validate()
    return conf


def _seeds(seeds):
    """``seeds``, from the config or the command line, checked to be a
    non-empty list of distinct integers >= 0; ConfigurationError naming
    ``seeds`` (and the first repeated seed) otherwise: one run counted twice
    would make a wrong standard error."""
    if not isinstance(seeds, list) or not seeds:
        raise ConfigurationError(
            f"seeds must be a non-empty list of integers, got {seeds!r}")
    seeds = [integer(s, "seeds", least=0) for s in seeds]
    for i, s in enumerate(seeds):
        if s in seeds[:i]:
            raise ConfigurationError(f"seeds: {s} is repeated")
    return seeds


def _flag_list(flag, text, kind):
    """The comma-separated values of the command-line ``flag``, each read
    by ``kind`` (``int`` or ``float``); ConfigurationError naming the flag
    and the first value ``kind`` cannot read."""
    values = []
    for v in text.split(","):
        try:
            values.append(kind(v))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigurationError(f"{flag}: {v!r} is not {what}") from None
    return values


def _coverages(text):
    """The ``--coverages`` flag of ``curve``, ``grid`` and ``compare``:
    finite coverages in (0, 1], ConfigurationError naming the flag
    otherwise."""
    return [fraction(c, "--coverages")
            for c in _flag_list("--coverages", text, float)]


def _write_outputs(out, name, cfg, conf, seeds, colnames, rows):
    """Write ``out/name``, a CSV of ``colnames`` and ``rows`` under its
    provenance lines (hash of the file's mapping ``cfg``, ``seeds``, format
    version), then ``out/effective_config.yaml``, the resolved ``conf``.
    This makes ``out`` when missing, so each command calls it once its
    results are computed, before it saves any checkpoint: a failed run
    leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    config_hash = hashlib.sha256(
        yaml.safe_dump(cfg, sort_keys=True).encode()).hexdigest()[:12]
    write_csv(out / name, [f"config_hash={config_hash}",
                           f"seeds={','.join(str(s) for s in seeds)}",
                           f"format_version={CSV_FORMAT_VERSION}"],
              colnames, rows)
    with open(out / "effective_config.yaml", "w") as fh:
        yaml.safe_dump(conf, fh, sort_keys=True)


def prepare_splits(conf, split_seeds=None):
    """Load the resolved config ``conf``'s dataset once, calling its kind's
    loader with the section's other keys, and return one
    ``standardized_splits`` tuple ``(train_ds, cal_ds, test_ds,
    target_stats)`` per seed of ``split_seeds`` (default ``[split.seed]``),
    with regression targets standardized when ``standardize_target`` is set.
    """
    args = dict(conf["dataset"])
    kind = args.pop("kind")
    standardize_target = args.pop("standardize_target", False)
    # looked up at call time, so a wrapper set on this module sees the call
    ds = (load_csv if kind == "csv" else synth_classification)(**args)
    return [standardized_splits(
                ds, SplitSpec(**{**conf["split"], "seed": seed}),
                standardize_target and ds.task != CLASSIFICATION)
            for seed in split_seeds or [conf["split"]["seed"]]]


def _architecture(conf, tr, ca, te):
    """Architecture for the splits' task; a classifier gets one output per
    class index up to the largest label in any split."""
    n_classes = (int(max(s.labels.max() for s in (tr, ca, te))) + 1
                 if tr.task == CLASSIFICATION else 0)
    return ArchitectureConfig(**conf["architecture"], input_dim=tr.n_features,
                              task=tr.task, n_classes=n_classes)


def _train_config(conf, seed, **loss):
    """The run's ``TrainConfig`` at ``seed``; ``loss`` overrides its keys."""
    return TrainConfig(**conf["train"], seed=seed,
                       loss=LossConfig(**{**conf["loss"], **loss}))


# -- subcommands --------------------------------------------------------------


def cmd_train(args):
    seeds = None if args.seed is None else [args.seed]
    cfg, conf = _load_config(args.config, seeds, args.coverage)
    seed = conf["seeds"][0]
    out = Path(args.out)
    [(tr, ca, te, tstats)] = prepare_splits(conf)
    arch = _architecture(conf, tr, ca, te)
    tcfg = _train_config(conf, seed)
    model = build_model(arch, seed)
    history = train(model, tr.features, tr.labels, tcfg)
    _write_outputs(out, "history.csv", cfg, conf, [seed],
                   ["epoch"] + [f.name for f in fields(history)],
                   [(e, *row) for e, row in enumerate(zip(*astuple(history)))])
    save_model(model, None, out / "model.ckpt")
    print(f"trained {tcfg.epochs} epochs; final loss "
          f"{history.total_loss[-1]:.6f}; checkpoint at {out/'model.ckpt'}")
    return 0


def cmd_calibrate(args):
    cfg, conf = _load_config(args.config)
    coverage = fraction(args.coverage, "--coverage")
    open_fraction(args.delta, "--delta")
    out = Path(args.out)
    model, _ = load_model(args.model)
    [(_, ca, _, _)] = prepare_splits(conf)
    result = calibrate(model, ca.features, coverage, delta=args.delta)
    _write_outputs(out, "calibration.csv", cfg, conf, [model.seed],
                   [f.name for f in fields(result)], [astuple(result)])
    save_model(model, result, out / "model_calibrated.ckpt")
    print(f"tau={result.tau:.6f} achieved validation coverage "
          f"{result.achieved_coverage:.4f} (epsilon={result.epsilon:.6f})")
    return 0


def cmd_evaluate(args):
    if args.tau is not None and np.isnan(args.tau):
        raise ConfigurationError("--tau must be a number, got nan")
    cfg, conf = _load_config(args.config)
    model, calib = load_model(args.model)
    [(_, _, te, tstats)] = prepare_splits(conf)
    tau = args.tau if args.tau is not None else (calib.tau if calib else 0.5)
    preds, accepted = model.predict(te.features, tau)
    labels = te.labels
    if te.task != CLASSIFICATION:
        preds, labels = (unstandardize_target(v, tstats)
                         for v in (preds, labels))
    rep = selective_metrics(preds, labels, accepted, te.task)
    print(f"coverage={rep.coverage:.4f} risk={rep.risk:.6f} "
          f"covered={rep.n_covered} rejected={rep.n_rejected}")
    if args.out:
        _write_outputs(Path(args.out), "eval.csv", cfg, conf, [model.seed],
                       ["tau"] + [f.name for f in fields(rep)],
                       [(tau, *astuple(rep))])
    return 0


def cmd_curve(args):
    coverages = _coverages(args.coverages)
    cfg, conf = _load_config(args.config)
    out = Path(args.out)
    model, _ = load_model(args.model)
    [(_, ca, te, tstats)] = prepare_splits(conf)
    rows = risk_coverage_curves(model, ca.features, te.features, te.labels,
                                [args.score], coverages, tstats)[args.score]
    _write_outputs(out, "curve.csv", cfg, conf, [model.seed],
                   ["target_coverage", "achieved_coverage", "risk"], rows)
    print(f"wrote {out/'curve.csv'} ({len(rows)} points, score={args.score})")
    return 0


def cmd_grid(args):
    coverages = _coverages(args.coverages)
    cfg, conf = _load_config(args.config)
    out = Path(args.out)
    models = [load_model(p)[0] for p in args.models.split(",")]
    [(_, ca, te, tstats)] = prepare_splits(conf)
    grid = cross_calibration_grid(models, ca.features, te.features, te.labels,
                                  coverages, tstats)
    colnames = ["train_coverage"] + [f"calib_{c}" for c in coverages]
    rows = [[m.trained_coverage] + list(grid[i])
            for i, m in enumerate(models)]
    _write_outputs(out, "grid.csv", cfg, conf, [m.seed for m in models],
                   colnames, rows)
    print(f"wrote {out/'grid.csv'} ({grid.shape[0]}x{grid.shape[1]})")
    return 0


# Score kind of each baseline and the prefixes of its compare.csv columns.
_BASELINES = [("mcdropout", "mc_dropout", "mc"), ("sr", "sr", "sr")]


def run_comparison(conf, coverages):
    """Train per-coverage selective models plus one full-coverage baseline
    for each of the resolved config's ``seeds``, all read off
    ``risk_coverage_curves``; returns ``(colnames, rows)`` for compare.csv
    (mean +- stderr over seeds). Each seed also seeds its split of the one
    read of the dataset, in place of ``split.seed``."""
    risks = {}  # score kind -> one list of per-coverage risks per seed
    seeds = conf["seeds"]
    for seed, (tr, ca, te, tstats) in zip(seeds, prepare_splits(conf, seeds)):
        baselines = _BASELINES if tr.task == CLASSIFICATION else _BASELINES[:1]
        arch = _architecture(conf, tr, ca, te)
        base = build_baseline(arch, seed)
        train(base, tr.features, tr.labels,
              _train_config(conf, seed, target_coverage=1.0))
        curves = risk_coverage_curves(
            base, ca.features, te.features, te.labels,
            [k for k, _, _ in baselines], coverages, tstats,
            (seed * 2 + 1, seed * 2 + 2))
        for kind, curve in curves.items():
            risks.setdefault(kind, []).append([r for _, _, r in curve])

        selnet = []
        for c in coverages:
            model = build_model(arch, seed)
            train(model, tr.features, tr.labels,
                  _train_config(conf, seed, target_coverage=c))
            [(_, _, risk)] = risk_coverage_curves(
                model, ca.features, te.features, te.labels, ["g"], [c],
                tstats)["g"]
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
    coverages = _coverages(args.coverages)
    seeds = (None if args.seeds is None
             else _flag_list("--seeds", args.seeds, int))
    cfg, conf = _load_config(args.config, seeds)
    out = Path(args.out)
    colnames, rows = run_comparison(conf, coverages)
    _write_outputs(out, "compare.csv", cfg, conf, conf["seeds"], colnames,
                   rows)
    print(f"wrote {out/'compare.csv'} ({len(rows)} coverage rows, "
          f"{len(conf['seeds'])} seeds)")
    return 0


# -- entry point --------------------------------------------------------------


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, by default a plain decimal; this widens the
# test to every negative float literal, so "--tau -inf" and "--delta -1e-3"
# reach their flags' checks.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


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
    for sp in (t, c, e):  # the subcommands with float flags
        sp._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SelpredError, OSError, MemoryError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
