"""Dataset ingestion, synthetic generation, splitting, and standardization."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .layers import ConfigurationError
from .model import CLASSIFICATION, REGRESSION

__all__ = [
    "Dataset",
    "SplitSpec",
    "ParseError",
    "load_csv",
    "standardize",
    "synth_classification",
    "split",
]


class ParseError(ValueError):
    """A CSV cell could not be parsed; the message names row and column."""


@dataclass
class Dataset:
    """Labeled sample collection with normalization and provenance metadata.

    ``feature_stats`` and ``target_stats`` are (mean, std) pairs recorded
    whenever standardization was applied, so predictions can be reported in
    original units.
    """

    features: np.ndarray
    labels: np.ndarray
    task: str
    feature_stats: tuple | None = None
    target_stats: tuple | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigurationError(
                f"features must be a nonempty (m, d) matrix, got {self.features.shape}")
        self.labels = np.asarray(self.labels)
        if self.labels.shape[0] != self.features.shape[0]:
            raise ConfigurationError("label count must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ConfigurationError("features contain NaN/Inf after ingestion")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ConfigurationError(f"unknown task {self.task!r}")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def subset(self, indices):
        prov = dict(self.provenance)
        if "noise_mask" in prov:
            prov["noise_mask"] = prov["noise_mask"][indices]
        return Dataset(self.features[indices], self.labels[indices], self.task,
                       self.feature_stats, self.target_stats, prov)


@dataclass
class SplitSpec:
    train: float = 0.6
    calibration: float = 0.2
    test: float = 0.2
    seed: int = 0
    stratified: bool = False

    def validate(self):
        fracs = (self.train, self.calibration, self.test)
        if any(f <= 0.0 for f in fracs):
            raise ConfigurationError("every split fraction must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigurationError(f"split fractions must sum to 1, got {fracs}")


def load_csv(path, feature_columns, target_column, header=True,
             task=REGRESSION):
    """Parse a numeric CSV into a Dataset, validating the schema.

    Columns are zero-based indices. A negative target column, or a feature
    column that is negative, repeated or the target column, raises
    ConfigurationError. Non-numeric and non-finite (``nan``, ``inf``)
    cells, and classification labels that are not integers >= 0, raise
    ParseError naming the offending row and column.
    """
    if target_column < 0:
        raise ConfigurationError(f"target column {target_column} is negative")
    seen = set()
    for c in feature_columns:
        if c < 0 or c in seen or c == target_column:
            why = ("is negative" if c < 0 else "is repeated" if c in seen
                   else "is the target column")
            raise ConfigurationError(f"feature column {c} {why}")
        seen.add(c)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader):
            if header and r == 0:
                continue
            if not row or all(not c.strip() for c in row):
                continue
            rows.append((r, row))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    needed = list(feature_columns) + [target_column]
    cells = []
    for r, row in rows:
        if max(needed) >= len(row):
            raise ParseError(f"{path}: row {r} has only {len(row)} columns")
        vals = []
        for c in needed:
            try:
                vals.append(float(row[c]))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {row[c]!r} at row {r}, column {c}")
        cells.append(vals)
    cells = np.asarray(cells)
    feats, labels = cells[:, :-1].copy(), cells[:, -1].copy()
    if task == CLASSIFICATION:
        bad = np.flatnonzero(~(np.isfinite(labels) & (labels >= 0)
                               & (labels == np.floor(labels))))
        if bad.size:
            r, row = rows[bad[0]]
            raise ParseError(
                f"{path}: class label {row[target_column]!r} at row {r}, "
                f"column {target_column} is not an integer >= 0")
        labels = labels.astype(np.int64)
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        (r, row), c = rows[bad[0, 0]], needed[bad[0, 1]]
        raise ParseError(
            f"{path}: non-finite cell {row[c]!r} at row {r}, column {c}")
    return Dataset(feats, labels, task, provenance={"source": str(path)})


def standardize(dataset, stats=None, include_target=False):
    """Per-feature z-score normalization; fitted stats are recorded.

    Pass the train split's stats to transform calibration/test without
    leakage. Zero-variance features are dropped with a warning (noted in
    provenance). With ``include_target`` (regression only) targets are
    standardized too and the inverse transform kept in ``target_stats``.
    """
    if stats is None:
        mean = dataset.features.mean(axis=0)
        std = dataset.features.std(axis=0)
        keep = std > 0.0
        if not np.all(keep):
            warnings.warn(
                f"dropping {int((~keep).sum())} zero-variance feature(s)")
        tstats = None
        if include_target:
            if dataset.task != REGRESSION:
                raise ConfigurationError(
                    "target standardization applies to regression only")
            y = dataset.labels.astype(np.float64)
            tstats = (float(y.mean()), float(y.std()))
            if tstats[1] == 0.0:
                raise ConfigurationError("constant regression target")
        stats = (mean, std, keep, tstats)
    mean, std, keep, tstats = stats
    feats = dataset.features[:, keep]  # a copy: standardized in place
    feats -= mean[keep]
    feats /= std[keep]
    labels = dataset.labels
    if tstats is not None:
        labels = (labels.astype(np.float64) - tstats[0]) / tstats[1]
    prov = dict(dataset.provenance)
    if not np.all(keep):
        prov["dropped_features"] = np.flatnonzero(~keep).tolist()
    out = Dataset(feats, labels, dataset.task,
                  feature_stats=(mean, std, keep), target_stats=tstats,
                  provenance=prov)
    return out, stats


def unstandardize_target(values, target_stats):
    """Map standardized regression outputs back to original units."""
    if target_stats is None:
        return np.asarray(values, dtype=np.float64)
    mean, std = target_stats
    return np.asarray(values, dtype=np.float64) * std + mean


def synth_classification(seed, m, n_classes, n_features, noise_fraction):
    """Gaussian-cluster classification data with a noisy overlap region.

    Clean samples come from well-separated class clusters. A
    ``noise_fraction`` share is drawn from a shared region around the origin
    with uniformly random labels; these points are inherently ambiguous and
    are the natural rejection targets. Their membership is recorded in
    ``provenance["noise_mask"]`` for diagnostics only.
    """
    if not 0.0 <= noise_fraction < 0.5:
        raise ConfigurationError(
            f"noise fraction must be in [0, 0.5), got {noise_fraction}")
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features))
    centers *= 4.0 / np.linalg.norm(centers, axis=1, keepdims=True)

    n_noise = int(round(m * noise_fraction))
    n_clean = m - n_noise
    # one feature array, filled in place: the clean rows, then the noise rows
    features = np.empty((m, n_features))
    clean_x = features[:n_clean]
    clean_labels = rng.integers(0, n_classes, size=n_clean)
    rng.standard_normal(out=clean_x)
    clean_x *= 0.8
    clean_x += centers[clean_labels]
    noise_labels = rng.integers(0, n_classes, size=n_noise)
    rng.standard_normal(out=features[n_clean:])

    labels = np.concatenate([clean_labels, noise_labels])
    noise_mask = np.zeros(m, dtype=bool)
    noise_mask[n_clean:] = True
    order = rng.permutation(m)
    return Dataset(
        features[order], labels[order], CLASSIFICATION,
        provenance={
            "generator": {
                "name": "synth_classification",
                "seed": seed, "m": m, "n_classes": n_classes,
                "n_features": n_features, "noise_fraction": noise_fraction,
            },
            "noise_mask": noise_mask[order],
        })


def split(dataset, spec):
    """Seed-deterministic disjoint train/calibration/test partition.

    Sizes follow floor-then-remainder: train and calibration get the floors
    of their fractions, test gets the rest. Stratified splitting (per-class
    proportional allocation) is available for classification.
    """
    spec.validate()
    m = dataset.n_samples
    n_train = int(np.floor(m * spec.train + 1e-9))
    n_cal = int(np.floor(m * spec.calibration + 1e-9))
    n_test = m - n_train - n_cal
    if min(n_train, n_cal, n_test) < 1:
        raise ConfigurationError(
            f"split of {m} samples leaves an empty part ({n_train}/{n_cal}/{n_test})")
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        if dataset.task != CLASSIFICATION:
            raise ConfigurationError("stratified splits need a classification task")
        tr, ca, te = [], [], []
        for cls in np.unique(dataset.labels):
            idx = np.flatnonzero(dataset.labels == cls)
            idx = idx[rng.permutation(idx.size)]
            k1 = int(np.floor(idx.size * spec.train + 1e-9))
            k2 = int(np.floor(idx.size * spec.calibration + 1e-9))
            tr.append(idx[:k1])
            ca.append(idx[k1:k1 + k2])
            te.append(idx[k1 + k2:])
        parts = [np.concatenate(tr), np.concatenate(ca), np.concatenate(te)]
    else:
        order = rng.permutation(m)
        parts = [order[:n_train], order[n_train:n_train + n_cal],
                 order[n_train + n_cal:]]
    return tuple(dataset.subset(p) for p in parts)
