"""Dataset ingestion, synthetic generation, splitting, and standardization.

``standardized_splits`` is the one step that standardizes, for the CLI and
the demos alike: it splits, fits ``standardize`` on the train part alone
and applies those statistics to the other parts. The fitted moments agree
with ``np.mean`` and ``np.std`` to rounding only (``_feature_moments``), so
a model trained on standardized data drifts from one trained on numpy's
moments at the rounding level. ``standardize`` makes no copy beyond its
output, and ``synth_classification`` fills one preallocated feature array
in place, so its peak is set by the permuted copy it returns. Row gathers
use ``np.take``.
"""

from __future__ import annotations

import csv
import functools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checks import (CLASSIFICATION, REGRESSION, ConfigurationError,
                     SelpredError, boolean, integer, real, size)

__all__ = [
    "Dataset",
    "SplitSpec",
    "ParseError",
    "load_csv",
    "standardize",
    "standardized_splits",
    "synth_classification",
    "split",
]


class ParseError(SelpredError, ValueError):
    """A CSV could not be parsed; the message names the file, and a bad
    cell's row and column."""


@dataclass
class Dataset:
    """Labeled sample collection with provenance metadata."""

    features: np.ndarray
    labels: np.ndarray
    task: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigurationError(
                f"features must be a nonempty (m, d) matrix, got {self.features.shape}")
        self.labels = np.asarray(self.labels)
        if self.labels.shape[:1] != self.features.shape[:1]:
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
        """The rows at ``indices``: integer row indices (an array or a list)
        or a boolean mask over the rows."""
        rows = np.asarray(indices)
        if rows.dtype == bool:
            if rows.shape != (self.n_samples,):
                raise IndexError(f"boolean mask of shape {rows.shape} for "
                                 f"{self.n_samples} rows")
            rows = np.flatnonzero(rows)
        prov = dict(self.provenance)
        if "noise_mask" in prov:
            prov["noise_mask"] = np.take(prov["noise_mask"], rows)
        return Dataset(np.take(self.features, rows, axis=0),
                       np.take(self.labels, rows), self.task, prov)


@dataclass
class SplitSpec:
    train: float = 0.6
    calibration: float = 0.2
    test: float = 0.2
    seed: int = 0
    stratified: bool = False

    def validate(self):
        fracs = tuple(real(getattr(self, name), name)
                      for name in ("train", "calibration", "test"))
        boolean(self.stratified, "stratified")
        integer(self.seed, "seed", least=0)
        if any(f <= 0.0 for f in fracs):
            raise ConfigurationError("every split fraction must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigurationError(f"split fractions must sum to 1, got {fracs}")


def load_csv(path, feature_columns, target_column, header=True,
             task=REGRESSION):
    """Parse a numeric CSV into a Dataset, validating the schema.

    Columns are zero-based indices, each an ``int`` or numpy integer (not a
    bool). A ``path`` that is not a ``str`` or path-like, a column that is
    not such an index, a negative target column, a feature column that is
    negative, repeated or the target column, or a ``header`` that is not a
    bool raises ConfigurationError naming the field, before any read. An
    undecodable file, a cell over the ``csv`` module's field size limit,
    non-numeric and non-finite (``nan``, ``inf``) cells, and classification
    labels that are not integers >= 0 raise ParseError naming the file and,
    for a cell, its row and column.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigurationError(f"path: {path!r} is not a file path")
    target_column = integer(target_column, "target_column")
    boolean(header, "header")
    if (isinstance(feature_columns, (str, bytes, dict))
            or not np.iterable(feature_columns)):
        raise ConfigurationError(
            f"feature_columns must be a list of column indices, "
            f"got {feature_columns!r}")
    feature_columns = [integer(c, "feature_columns")
                       for c in feature_columns]
    if target_column < 0:
        raise ConfigurationError(f"target column {target_column} is negative")
    seen = set()
    for c in feature_columns:
        if c < 0 or c in seen or c == target_column:
            why = ("is negative" if c < 0 else "is repeated" if c in seen
                   else "is the target column")
            raise ConfigurationError(f"feature column {c} {why}")
        seen.add(c)
    try:  # skip the header and blank rows, keeping each row's index
        with open(path, newline="") as fh:
            rows = [(r, row) for r, row in enumerate(csv.reader(fh))
                    if (r or not header) and any(c.strip() for c in row)]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text") from None
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise ParseError(f"{path}: {exc}") from None
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
    """Per-feature z-score normalization: ``(standardized dataset, stats)``.

    ``stats`` is ``(mean, std, keep, target_stats)``; pass the train split's
    to transform calibration/test without leakage. Without ``stats`` the
    moments are fitted by ``_feature_moments``, and features of exactly
    zero variance, which an exactly constant column has, are dropped with a
    warning (noted in provenance). The output is
    ``(features[:, keep] - mean[keep]) / std[keep]``. With
    ``include_target`` (regression only) targets are standardized too and
    ``target_stats`` holds the inverse transform, else it is None.
    """
    if stats is None:
        mean, std = _feature_moments(dataset.features)
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
    if keep.all():
        feats = dataset.features - mean
        feats /= std
    else:
        feats = dataset.features[:, keep]
        feats -= mean[keep]
        feats /= std[keep]
    labels = dataset.labels
    if tstats is not None:
        labels = (labels.astype(np.float64) - tstats[0]) / tstats[1]
    prov = dict(dataset.provenance)
    if not np.all(keep):
        prov["dropped_features"] = np.flatnonzero(~keep).tolist()
    return Dataset(feats, labels, dataset.task, prov), stats


def _column_sums(a):
    """``a.sum(axis=0)`` of a 2-D array as one matrix-vector product
    (``ndarray.dot``), several times faster on a batch of narrow rows (the
    rounding differs in the last bits). ``layers`` takes it from here, so
    reading a dataset imports no part of the network."""
    return _ones(a.shape[0]).dot(a)


@functools.lru_cache(maxsize=8)
def _ones(n):
    """A read-only vector of ``n`` ones, shared by every call with ``n``
    (a training run sees a few batch sizes)."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _feature_moments(x):
    """Column means and (population) standard deviations of ``x``, from
    column sums taken as matrix-vector products (``_column_sums``).

    The data are first shifted by their first row (Chan, Golub & LeVeque
    1983): ``mean = x[0] + colsum(x - x[0]) / m``, and the variance is the
    mean square of the shifted data centred once more. An exactly constant
    column is all zeros after the shift, so its variance is exactly 0
    whatever its value. The result agrees with ``x.mean(axis=0)`` and
    ``x.std(axis=0)`` to rounding. One features-sized temporary is used.
    """
    inv_m = 1.0 / x.shape[0]
    d = x - x[0]
    shift = _column_sums(d) * inv_m
    d -= shift
    d *= d
    return x[0] + shift, np.sqrt(_column_sums(d) * inv_m)


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

    ``seed`` must be an ``int`` or numpy integer of at least 0, ``m`` and
    ``n_features`` sizes of at least 1, ``n_classes`` one of at least 2
    (``checks.size``); anything else raises ConfigurationError naming it.
    """
    integer(seed, "seed", least=0)
    for field, value, least in (("m", m, 1), ("n_classes", n_classes, 2),
                                ("n_features", n_features, 1)):
        size(value, field, least)
    if not 0.0 <= real(noise_fraction, "noise_fraction") < 0.5:
        raise ConfigurationError(
            f"noise fraction must be in [0, 0.5), got {noise_fraction}")
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
    clean_x += np.take(centers, clean_labels, axis=0)
    noise_labels = rng.integers(0, n_classes, size=n_noise)
    rng.standard_normal(out=features[n_clean:])

    labels = np.concatenate([clean_labels, noise_labels])
    noise_mask = np.zeros(m, dtype=bool)
    noise_mask[n_clean:] = True
    order = rng.permutation(m)
    return Dataset(
        np.take(features, order, axis=0), np.take(labels, order),
        CLASSIFICATION,
        provenance={
            "generator": {
                "name": "synth_classification",
                "seed": seed, "m": m, "n_classes": n_classes,
                "n_features": n_features, "noise_fraction": noise_fraction,
            },
            "noise_mask": np.take(noise_mask, order),
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
        for cls in _classes(dataset.labels):
            idx = np.flatnonzero(dataset.labels == cls)
            idx = np.take(idx, rng.permutation(idx.size))
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


def standardized_splits(dataset, spec, standardize_target=False):
    """``(train, calibration, test, target_stats)``: ``split(dataset,
    spec)``, each part standardized by statistics fitted on the train part
    alone, so no held-out row reaches them. With ``standardize_target``
    (regression only) targets are standardized too and ``target_stats``
    holds the inverse transform, else it is None."""
    train, calibration, test = split(dataset, spec)
    train, stats = standardize(train, include_target=standardize_target)
    calibration, _ = standardize(calibration, stats=stats)
    test, _ = standardize(test, stats=stats)
    return train, calibration, test, stats[3]


def _classes(labels):
    """``np.unique(labels)`` of integer labels, from one ``np.bincount``
    over ``labels - labels.min()`` instead of a sort. Labels that are not
    integers, that do not fit an int64, or whose range is as wide as their
    count go to ``np.unique``, so the counts never outgrow the labels."""
    if labels.dtype.kind not in "iu":
        return np.unique(labels)
    lo, hi = int(labels.min()), int(labels.max())
    if hi - lo >= labels.size or hi > np.iinfo(np.int64).max:
        return np.unique(labels)
    counts = np.bincount(labels.astype(np.int64, copy=False) - lo)
    return (np.flatnonzero(counts) + lo).astype(labels.dtype)
