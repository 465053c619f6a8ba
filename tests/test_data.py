"""CSV ingestion, standardization, synthetic data, and splitting."""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selpred.checks import CLASSIFICATION, REGRESSION, ConfigurationError
from selpred.data import (
    Dataset,
    ParseError,
    SplitSpec,
    _classes,
    load_csv,
    split,
    standardize,
    standardized_splits,
    synth_classification,
    unstandardize_target,
)


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_valid_file(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        ds = load_csv(p, [0, 1], 2)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ds.labels, [3.0, 6.0])
        assert ds.provenance["source"] == str(p)

    def test_skips_blank_lines(self, tmp_path):
        p = self._write(tmp_path, "a,y\n1,2\n\n3,4\n")
        assert load_csv(p, [0], 1).n_samples == 2

    def test_header_only_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(p, [0, 1], 2)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = self._write(tmp_path, "a,y\n1,2\nx,4\n")
        with pytest.raises(ParseError, match="row 2, column 0"):
            load_csv(p, [0], 1)

    def test_row_indices_count_skipped_rows(self, tmp_path):
        """A row keeps its index in the file past the header and blank or
        whitespace-only rows; without a header the first row is data."""
        p = self._write(tmp_path, "a,y\n\n , \nx,4\n")
        with pytest.raises(ParseError, match="row 3, column 0$"):
            load_csv(p, [0], 1)
        p = self._write(tmp_path, "1,2\n \n3,4\n")
        np.testing.assert_array_equal(
            load_csv(p, [0], 1, header=False).labels, [2.0, 4.0])

    def test_oversized_cell_names_the_file(self, tmp_path):
        p = self._write(tmp_path, "a,y\n1," + "9" * 200_000 + "\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}: field "
                                             "larger than field limit"):
            load_csv(p, [0], 1)

    def test_short_row_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, [0, 1], 2)

    def test_classification_labels_are_integers(self, tmp_path):
        p = self._write(tmp_path, "a,y\n1.5,0\n2.5,1\n")
        ds = load_csv(p, [0], 1, task=CLASSIFICATION)
        assert ds.labels.dtype == np.int64

    @pytest.mark.parametrize("label", ["1.7", "-0.5", "-1", "nan", "inf"])
    def test_classification_label_not_integer_at_least_zero(self, tmp_path,
                                                            label):
        p = self._write(tmp_path, f"a,y\n1.5,0\n2.5,{label}\n")
        with pytest.raises(ParseError, match="row 2, column 1"):
            load_csv(p, [0], 1, task=CLASSIFICATION)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, tmp_path, cell):
        p = self._write(tmp_path, f"a,y\n1,2\n3,{cell}\n4,5\n6,7\n")
        with pytest.raises(ParseError, match="row 2, column 1"):
            load_csv(p, [0], 1)

    @pytest.mark.parametrize("features, target, message", [
        ([0, -1], 2, "feature_columns must be >= 0, got -1"),
        ([0, 0], 2, "feature column 0 is repeated"),
        ([0, 2], 2, "feature column 2 is the target column"),
        ([0, 1], -1, "target_column must be >= 0, got -1"),
    ], ids=["negative", "repeated", "target", "negative_target"])
    def test_bad_column_choice_rejected(self, tmp_path, features, target,
                                        message):
        """A negative index would pick a column from the end, so each of
        these would feed the target, or one column twice, to the model."""
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ConfigurationError, match=message):
            load_csv(p, features, target)

    @pytest.mark.parametrize("features, target, message", [
        ([0.0, 1], 2, "feature_columns: 0.0 is not an integer"),
        (["0", 1], 2, "feature_columns: '0' is not an integer"),
        ([True, 1], 2, "feature_columns: True is not an integer"),
        ([0, 1], True, "target_column: True is not an integer"),
        ([0, 1], 2.0, "target_column: 2.0 is not an integer"),
        (0, 2, "feature_columns must be a list"),
        ("01", 2, "feature_columns must be a list"),
    ], ids=["float", "string", "bool", "bool_target", "float_target",
            "scalar", "string_list"])
    def test_non_integer_column_rejected(self, tmp_path, features, target,
                                         message):
        """A config may hold any YAML value here; a bool would otherwise
        read as column 1."""
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ConfigurationError, match=message):
            load_csv(p, features, target)

    def test_numpy_integer_columns_accepted(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        ds = load_csv(p, np.array([1, 0]), np.int32(2))
        np.testing.assert_array_equal(ds.features, [[2.0, 1.0], [5.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [3.0, 6.0])

    @pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
    def test_non_finite_feature_rejected(self, tmp_path, task):
        p = self._write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,inf,0\n")
        with pytest.raises(ParseError, match="row 3, column 1"):
            load_csv(p, [0, 1], 2, task=task)


class TestDataset:
    def test_nan_features_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.array([[np.nan]]), np.array([0.0]), REGRESSION)

    def test_label_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2)), np.zeros(2), REGRESSION)

    @pytest.mark.parametrize("features, labels, task, message", [
        (np.zeros(3), np.zeros(3), REGRESSION,
         r"features must be a nonempty \(m, d\) matrix, got \(3,\)"),
        (np.zeros((0, 2)), np.zeros(0), REGRESSION,
         r"features must be a nonempty \(m, d\) matrix, got \(0, 2\)"),
        (np.zeros((3, 2)), np.zeros(3), "ranking", "unknown task 'ranking'"),
        (np.zeros((1, 2)), 5.0, REGRESSION,
         "label count must match feature rows"),
    ], ids=["one-dimensional", "no-rows", "unknown-task", "scalar-labels"])
    def test_malformed_dataset_rejected(self, features, labels, task,
                                        message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            Dataset(features, labels, task)


class TestStandardize:
    def test_train_split_moments(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(5.0, 3.0, size=(200, 4)), rng.normal(size=200),
                     REGRESSION)
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_no_leakage_into_held_out_split(self):
        rng = np.random.default_rng(1)
        train_ds = Dataset(rng.normal(size=(100, 2)), rng.normal(size=100),
                           REGRESSION)
        test_ds = Dataset(rng.normal(3.0, 1.0, size=(50, 2)),
                          rng.normal(size=50), REGRESSION)
        _, stats = standardize(train_ds)
        out, _ = standardize(test_ds, stats=stats)
        # transformed with train stats, so the held-out mean stays offset
        assert abs(out.features.mean()) > 1.0

    def test_constant_feature_dropped_with_warning(self):
        feats = np.column_stack([np.ones(10), np.arange(10.0)])
        ds = Dataset(feats, np.zeros(10), REGRESSION)
        with pytest.warns(UserWarning, match="zero-variance"):
            out, _ = standardize(ds)
        assert out.n_features == 1
        assert out.provenance["dropped_features"] == [0]

    @pytest.mark.parametrize("task, labels, message", [
        (CLASSIFICATION, np.arange(10) % 2,
         "target standardization applies to regression only"),
        (REGRESSION, np.full(10, 3.5), "constant regression target"),
    ], ids=["classification", "constant-target"])
    def test_target_standardization_rejected(self, task, labels, message):
        ds = Dataset(np.arange(20.0).reshape(10, 2), labels, task)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            standardize(ds, include_target=True)

    def test_target_round_trip(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(50, 2)), rng.normal(30.0, 15.0, size=50),
                     REGRESSION)
        out, stats = standardize(ds, include_target=True)
        back = unstandardize_target(out.labels, stats[3])
        np.testing.assert_allclose(back, ds.labels, atol=1e-10)


    @pytest.mark.parametrize("m, value", [(10, 0.1), (618, 1 / 3)],
                             ids=["10x0.1", "618x1/3"])
    def test_constant_column_with_inexact_sum_dropped(self, m, value):
        """Summing these columns rounds: ``std(axis=0)`` gives 1.4e-17 for
        ten rows of 0.1, and the column would come out all 1.0. An exactly
        constant column has exactly zero variance, whatever its value."""
        feats = np.column_stack([np.full(m, value), np.arange(m, dtype=float)])
        ds = Dataset(feats, np.zeros(m), REGRESSION)
        with pytest.warns(UserWarning, match="dropping 1 zero-variance"):
            out, (mean, std, keep, _) = standardize(ds)
        assert out.provenance["dropped_features"] == [0]
        assert mean[0] == value and std[0] == 0.0
        np.testing.assert_array_equal(keep, [False, True])

    @settings(max_examples=50)
    @given(m=st.integers(1, 60), d=st.integers(1, 6),
           constant=st.integers(-1, 5),
           value=st.floats(-1e6, 1e6, allow_subnormal=False),
           seed=st.integers(0, 2**32 - 1))
    def test_in_place_equals_expression(self, m, d, constant, value, seed):
        """Bit-identical to ``(features[:, keep] - mean[keep]) / std[keep]``,
        with train stats and with a held-out split's; column ``constant``
        (if any) holds ``value`` in every row and is dropped."""
        rng = np.random.default_rng(seed)
        feats = rng.normal(rng.normal(0.0, 50.0), rng.uniform(0.1, 30.0),
                           size=(m, d))
        if 0 <= constant < d:
            feats[:, constant] = value
        held_out = Dataset(rng.normal(size=(7, d)), np.zeros(7), REGRESSION)
        ds = Dataset(feats, np.zeros(m), REGRESSION)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, stats = standardize(ds)
        mean, std, keep, _ = stats
        if 0 <= constant < d:
            assert not keep[constant] and mean[constant] == value
        for src, got in ((ds, out), (held_out, standardize(held_out, stats)[0])):
            want = (src.features[:, keep] - mean[keep]) / std[keep]
            np.testing.assert_array_equal(got.features, want)

    @settings(max_examples=50)
    @given(m=st.integers(2, 500), d=st.integers(1, 8),
           offset=st.floats(-100.0, 100.0), scale=st.floats(0.1, 30.0),
           seed=st.integers(0, 2**32 - 1))
    def test_fitted_moments_match_numpy(self, m, d, offset, scale, seed):
        """The fitted mean and std are within 1e-12 (relative) of
        ``np.mean`` and ``np.std``; the mean relative to its column's
        magnitude plus spread, since it may lie near 0."""
        feats = np.random.default_rng(seed).normal(offset, scale, size=(m, d))
        ds = Dataset(feats, np.zeros(m), REGRESSION)
        _, (mean, std, keep, _) = standardize(ds)
        want_mean, want_std = np.mean(feats, axis=0), np.std(feats, axis=0)
        assert keep.all()
        assert np.all(np.abs(mean - want_mean)
                      <= 1e-12 * (np.abs(want_mean) + want_std))
        np.testing.assert_allclose(std, want_std, rtol=1e-12, atol=0)

    def test_peak_memory_is_the_output(self):
        """Standardizing 1e5 x 8 rows with given stats allocates the output
        and less than 1 MB besides."""
        ds = synth_classification(0, 100_000, 4, 8, 0.2)
        _, stats = standardize(ds)
        tracemalloc.start()
        try:
            out, _ = standardize(ds, stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.features.nbytes + 2**20, (
            f"peak {peak / 1e6:.1f} MB for {out.features.nbytes / 1e6:.1f} MB "
            "of output")

    def test_fitting_peak_memory_is_the_output_and_one_temporary(self):
        """Fitting the moments of 1e5 x 8 rows and standardizing them
        allocates the output, one features-sized temporary and less than
        1 MB besides."""
        ds = synth_classification(0, 100_000, 4, 8, 0.2)
        tracemalloc.start()
        try:
            out, _ = standardize(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = out.features.nbytes + ds.features.nbytes + 2**20
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB for {out.features.nbytes / 1e6:.1f} MB "
            "of output")


def _synth_by_expression(seed, m, n_classes, n_features, noise_fraction):
    """``synth_classification``'s features and labels written as the
    expressions of the generative model, with full-size temporaries."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features))
    centers *= 4.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    n_noise = int(round(m * noise_fraction))
    n_clean = m - n_noise
    clean_labels = rng.integers(0, n_classes, size=n_clean)
    clean_x = centers[clean_labels] + 0.8 * rng.normal(size=(n_clean, n_features))
    noise_labels = rng.integers(0, n_classes, size=n_noise)
    noise_x = 1.0 * rng.normal(size=(n_noise, n_features))
    order = rng.permutation(m)
    return (np.concatenate([clean_x, noise_x])[order],
            np.concatenate([clean_labels, noise_labels])[order])


class TestSynthClassification:
    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300),
           n_classes=st.integers(2, 6), n_features=st.integers(1, 8),
           noise_fraction=st.floats(0.0, 0.49))
    def test_in_place_equals_expression(self, seed, m, n_classes, n_features,
                                        noise_fraction):
        ds = synth_classification(seed, m, n_classes, n_features,
                                  noise_fraction)
        feats, labels = _synth_by_expression(seed, m, n_classes, n_features,
                                             noise_fraction)
        np.testing.assert_array_equal(ds.features, feats)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_seed_determinism(self):
        a = synth_classification(0, 100, 3, 5, 0.2)
        b = synth_classification(0, 100, 3, 5, 0.2)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noise_mask_size(self):
        ds = synth_classification(1, 1000, 4, 6, 0.2)
        assert ds.provenance["noise_mask"].sum() == 200
        assert ds.n_samples == 1000 and ds.n_features == 6

    def test_clean_points_linearly_separable_enough(self):
        # with well-separated clusters a nearest-center rule gets the clean
        # points almost entirely right and the noise points near chance
        ds = synth_classification(2, 2000, 4, 6, 0.25)
        centers = np.stack([ds.features[(ds.labels == c)
                                        & ~ds.provenance["noise_mask"]].mean(axis=0)
                            for c in range(4)])
        d2 = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1)
        clean = ~ds.provenance["noise_mask"]
        assert (pred[clean] == ds.labels[clean]).mean() > 0.95
        assert (pred[~clean] == ds.labels[~clean]).mean() < 0.5

    def test_noise_mask_follows_subset(self):
        ds = synth_classification(3, 100, 2, 3, 0.3)
        sub = ds.subset(np.arange(10))
        assert sub.provenance["noise_mask"].shape == (10,)

    def test_bad_noise_fraction(self):
        with pytest.raises(ConfigurationError):
            synth_classification(0, 100, 2, 3, 0.5)

    SIZES = {"m": 100, "n_classes": 3, "n_features": 4}

    @pytest.mark.parametrize("bad", [True, 3.0, "3"],
                             ids=["bool", "float", "string"])
    @pytest.mark.parametrize("field", list(SIZES))
    def test_non_integer_size_names_the_field(self, field, bad):
        """A config's ``m: "600"`` or ``n_classes: 3.0`` would otherwise
        fail deep inside numpy, and ``true`` would read as 1."""
        sizes = dict(self.SIZES, **{field: bad})
        with pytest.raises(ConfigurationError,
                           match=f"^{field}: {bad!r} is not an integer$"):
            synth_classification(0, noise_fraction=0.2, **sizes)

    @pytest.mark.parametrize("field", ["m", "n_features"])
    @pytest.mark.parametrize("bad", [0, -5])
    def test_non_positive_size_names_the_field(self, field, bad):
        """``n_features=0`` would otherwise give a (m, 0) dataset after a
        divide-by-zero warning, and ``m=-5`` fail inside numpy."""
        sizes = dict(self.SIZES, **{field: bad})
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be >= 1, got {bad}$"):
            synth_classification(0, noise_fraction=0.2, **sizes)

    @pytest.mark.parametrize("bad, message", [
        ("7", "seed: '7' is not an integer"),
        (7.0, "seed: 7.0 is not an integer"),
        (True, "seed: True is not an integer"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["string", "float", "bool", "negative"])
    def test_bad_seed_names_the_field(self, bad, message):
        """A string seed would otherwise fail inside numpy's SeedSequence,
        without naming the field."""
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            synth_classification(bad, noise_fraction=0.2, **self.SIZES)

    def test_numpy_integer_sizes_accepted(self):
        sizes = {k: np.int64(v) for k, v in self.SIZES.items()}
        ds = synth_classification(0, noise_fraction=0.2, **sizes)
        ref = synth_classification(0, noise_fraction=0.2, **self.SIZES)
        np.testing.assert_array_equal(ds.features, ref.features)
        np.testing.assert_array_equal(ds.labels, ref.labels)


class TestSplit:
    def test_sizes_floor_then_remainder(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(1030, 3)), rng.normal(size=1030),
                     REGRESSION)
        tr, ca, te = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=0))
        assert (tr.n_samples, ca.n_samples, te.n_samples) == (618, 206, 206)

    def test_partition_is_disjoint_and_complete(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(100, 2))
        feats[:, 0] = np.arange(100)  # unique ids in column 0
        ds = Dataset(feats, rng.normal(size=100), REGRESSION)
        tr, ca, te = split(ds, SplitSpec(seed=1))
        ids = np.concatenate([tr.features[:, 0], ca.features[:, 0],
                              te.features[:, 0]])
        assert sorted(ids) == list(range(100))

    def test_seed_determinism(self):
        ds = synth_classification(0, 200, 3, 4, 0.1)
        a = split(ds, SplitSpec(seed=5))[0]
        b = split(ds, SplitSpec(seed=5))[0]
        np.testing.assert_array_equal(a.features, b.features)

    @settings(max_examples=100)
    @given(m=st.integers(3, 400), n_classes=st.integers(2, 5),
           cuts=st.lists(st.integers(1, 19), min_size=2, max_size=2,
                         unique=True),
           stratified=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_disjoint_complete_and_seed_deterministic(
            self, m, n_classes, cuts, stratified, seed):
        """Fractions in steps of 1/20, cut at ``cuts``; column 0 of the
        features is a row id and the label is a function of it."""
        a, b = sorted(cuts)
        spec = SplitSpec(a / 20, (b - a) / 20, 1.0 - a / 20 - (b - a) / 20,
                         seed=seed, stratified=stratified)
        ids = np.arange(m)
        feats = np.column_stack([ids, np.random.default_rng(seed).normal(
            size=m)])
        ds = Dataset(feats, ids % n_classes, CLASSIFICATION)
        try:
            parts = split(ds, spec)
        except ConfigurationError:
            return  # a split that would leave a part empty is refused
        got = [p.features[:, 0].astype(np.int64) for p in parts]
        assert sorted(np.concatenate(got)) == list(range(m))
        for p in parts:
            np.testing.assert_array_equal(p.labels, p.features[:, 0] % n_classes)
        for p, q in zip(parts, split(ds, spec)):
            np.testing.assert_array_equal(p.features, q.features)

    def test_stratified_preserves_class_ratios(self):
        ds = synth_classification(1, 1200, 3, 4, 0.0)
        tr, ca, te = split(ds, SplitSpec(seed=0, stratified=True))
        overall = np.bincount(ds.labels, minlength=3) / ds.n_samples
        for part in (tr, ca, te):
            frac = np.bincount(part.labels, minlength=3) / part.n_samples
            np.testing.assert_allclose(frac, overall, atol=0.02)

    def test_stratified_requires_classification(self):
        ds = Dataset(np.zeros((30, 2)), np.zeros(30), REGRESSION)
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(seed=0, stratified=True))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(0.5, 0.2, 0.2).validate()

    @pytest.mark.parametrize("fractions, message", [
        ((0.0, 0.5, 0.5), r"train must lie in \(0, 1\], got 0.0"),
        ((0.6, -0.1, 0.5), r"calibration must lie in \(0, 1\], got -0.1"),
    ], ids=["zero", "negative"])
    def test_non_positive_fraction_rejected(self, fractions, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            SplitSpec(*fractions).validate()

    @pytest.mark.parametrize("bad, message", [
        ("1", "seed: '1' is not an integer"),
        (1.0, "seed: 1.0 is not an integer"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["string", "float", "negative"])
    def test_bad_seed_names_the_field(self, bad, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            SplitSpec(seed=bad).validate()

    @settings(max_examples=100)
    @given(labels=st.lists(st.integers(-300, 300), min_size=1, max_size=60),
           dtype=st.sampled_from([np.int8, np.int16, np.int64, np.uint8,
                                  np.uint64]))
    def test_classes_equal_unique(self, labels, dtype):
        """The class list, from ``np.bincount``, is ``np.unique``'s: the
        same classes in the same order and dtype, negative labels and
        labels spread wider than their count included."""
        info = np.iinfo(dtype)
        labels = np.array([v for v in labels if info.min <= v <= info.max]
                          or [0], dtype=dtype)
        got, want = _classes(labels), np.unique(labels)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_classes_of_extreme_labels(self):
        for labels in (np.array([np.iinfo(np.int64).min, 0, 5]),
                       np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], np.uint64),
                       np.array([1.5, 0.5, 1.5])):
            np.testing.assert_array_equal(_classes(labels), np.unique(labels))

    def test_tiny_dataset_rejected(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2), REGRESSION)
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(seed=0))


class TestStandardizedSplits:
    """``standardized_splits`` is ``split`` and then ``standardize`` fitted
    on the train part and applied to each part, byte for byte."""

    @staticmethod
    def _dataset(task, m, seed, constant=False):
        """Synthetic classes (with a noise mask) or a regression target far
        from 0; column 0 is constant when ``constant``."""
        if task == CLASSIFICATION:
            ds = synth_classification(seed, m, 3, 4, 0.2)
        else:
            rng = np.random.default_rng(seed)
            x = rng.normal(5.0, 3.0, size=(m, 4))
            ds = Dataset(x, 40.0 + 15.0 * x[:, 1] + rng.normal(size=m),
                         REGRESSION)
        if constant:
            ds.features[:, 0] = 2.5
        return ds

    @staticmethod
    def _assert_same(a, b):
        assert a.task == b.task
        for x, y in ((a.features, b.features), (a.labels, b.labels)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        assert a.provenance.keys() == b.provenance.keys()
        for key, value in a.provenance.items():
            np.testing.assert_array_equal(value, b.provenance[key])

    @settings(max_examples=60, deadline=None)
    @given(task=st.sampled_from([CLASSIFICATION, REGRESSION]),
           flag=st.booleans(), m=st.integers(30, 400),
           seed=st.integers(0, 2**32 - 1), constant=st.booleans())
    def test_is_split_then_three_standardize_calls(self, task, flag, m, seed,
                                                   constant):
        """``flag`` is ``stratified`` for classification and
        ``standardize_target`` for regression."""
        ds = self._dataset(task, m, seed, constant)
        stratified = flag and task == CLASSIFICATION
        target = flag and task == REGRESSION
        spec = SplitSpec(seed=seed % 1000, stratified=stratified)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            *got, got_tstats = standardized_splits(ds, spec, target)
            tr, ca, te = split(ds, spec)
            tr, stats = standardize(tr, include_target=target)
            want = [tr, standardize(ca, stats=stats)[0],
                    standardize(te, stats=stats)[0]]
        for a, b in zip(got, want):
            self._assert_same(a, b)
        assert got_tstats == stats[3]
        assert (got_tstats is None) == (not target)
        if constant:
            assert all(p.provenance["dropped_features"] == [0] for p in got)

    def test_default_leaves_the_target(self):
        ds = self._dataset(REGRESSION, 100, 0)
        tr, _, _, tstats = standardized_splits(ds, SplitSpec(seed=1))
        assert tstats is None
        assert abs(tr.labels.mean()) > 10.0

    @pytest.mark.parametrize("task, stratified, target", [
        (CLASSIFICATION, False, False), (CLASSIFICATION, True, False),
        (REGRESSION, False, False), (REGRESSION, False, True),
    ], ids=["cls", "cls-stratified", "reg", "reg-target"])
    def test_held_out_rows_do_not_reach_the_fit(self, task, stratified,
                                                target):
        """Changing every calibration and test row leaves the train part,
        ``target_stats`` and the fitted statistics, by which the held-out
        parts are transformed, as they were."""
        spec = SplitSpec(seed=4, stratified=stratified)
        ds = self._dataset(task, 300, 2)
        ids = Dataset(np.arange(300.0)[:, None], ds.labels, task)
        held_out = np.concatenate([p.features[:, 0].astype(np.int64)
                                   for p in split(ids, spec)[1:]])
        changed = Dataset(ds.features.copy(), ds.labels.copy(), task,
                          dict(ds.provenance))
        rng = np.random.default_rng(9)
        changed.features[held_out] = rng.normal(
            500.0, 1000.0, size=(held_out.size, ds.n_features))
        if task == REGRESSION:
            changed.labels[held_out] = rng.normal(-300.0, 80.0,
                                                  size=held_out.size)
        a = standardized_splits(ds, spec, target)
        b = standardized_splits(changed, spec, target)
        self._assert_same(a[0], b[0])
        assert a[3] == b[3]
        _, stats = standardize(split(ds, spec)[0], include_target=target)
        for got, before, raw in zip(b[1:3], a[1:3], split(changed, spec)[1:]):
            assert not np.array_equal(got.features, before.features)
            self._assert_same(got, standardize(raw, stats=stats)[0])


class TestSubset:
    def test_mask_indices_and_list_give_the_same_dataset(self):
        ds = synth_classification(4, 50, 3, 4, 0.3)
        mask = np.arange(50) % 3 == 1
        rows_of = np.flatnonzero(mask)
        want = ds.subset(rows_of)
        for rows in (mask, rows_of, rows_of.tolist()):
            got = ds.subset(rows)
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.provenance["noise_mask"],
                                          want.provenance["noise_mask"])
            assert got.provenance["generator"] == ds.provenance["generator"]
        np.testing.assert_array_equal(want.features, ds.features[mask])
        np.testing.assert_array_equal(want.labels, ds.labels[mask])

    def test_mask_of_the_wrong_length_rejected(self):
        ds = synth_classification(4, 50, 3, 4, 0.3)
        with pytest.raises(IndexError):
            ds.subset(np.ones(49, dtype=bool))


def _digest(a):
    """sha256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str} {a.shape}".encode()
                          + a.tobytes()).hexdigest()


class TestPinnedBytes:
    """Digests taken before ``data.py`` gathered rows with ``np.take``, added
    the class centers in row blocks and listed the classes with
    ``np.bincount`` (numpy 2.4): the generator, the partitions and the
    transform with given stats keep those bytes."""

    SYNTH = {  # (seed, m): features, labels, noise_mask
        (0, 6000): (
            "31e883c2cdaa9cff4655aa511cc940e3b12740c4df7be35f6fc9237ef5bfe31e",
            "d97f1bc3ee27954b02af0b17fd347d4869b6afc3dbaa51e668c93c641f8c1beb",
            "240e2b86eb42a800183dd345a3abca6a228d9fba49dc82192ff5ff12ac804f77",
        ),
        (0, 100_000): (
            "6aec3bed4c61fa4d56be6e774a13bfc4eaa28507da242ddfb3a13b95c47d01f3",
            "5fdb5fc32d25e49aa640fb4ab8f9e205b808800058199c8c5e8092242bf4fb47",
            "c60bdf94221bc7abf7b6b66f5cc9552bce2734a2e6f3baf48a83cc37c6658c67",
        ),
        (7, 6000): (
            "27bda5bc38eeb66bed383920999b32d77e45936550587b9553a43e475582cd91",
            "660cc4a2de091a2c8b53ffb9937b257f982c1a79ef0fe03288651a23c67e1434",
            "ab1aeaeefe141340e150f19db180b8c2e12c74cdecd577179e3288e4663d5c92",
        ),
        (7, 100_000): (
            "f9403ada2a18d3175ac6e5e87f04016261c75bbe3ec356afca83c7ab3f737546",
            "26c7bdf00d83a246c0f19d155e4334262e7d10c3cf823b81c8776aad0d0c165d",
            "b261657ca076bcb9bc417103554ce6796ee0b21bd6781b6571ba64701aa8f413",
        ),
    }
    SPLIT = {  # stratified: the row ids of train, calibration, test
        False: (
            "c903c47af1d1181d792a3714c9bbb56a938fc3bdb52a67fa17611c04996871ca",
            "dcd3866567518a2b0ceeb090276ab8b546619f96a5e790cf21242a9cfb264a61",
            "e9cafe610ba139324383add09ab6de27968d4b7a50162b2bfe0ad94d00606ed4",
        ),
        True: (
            "e7e21f4c56ed78375b6b86061eedac27eec81d7dad431d8ac7b591fd34073ece",
            "1174d753f48cc00ad8fb171ab340a3642f1db503f8d3ba002f075760058fd7dd",
            "e3635cc4e027fd5d725b0133612932832839787a34cedaf1dae5601e256ee494",
        ),
    }
    GIVEN = {  # kept columns: features standardized with fixed stats
        8: "526490bf6c8922d6d2be835986c6d509c817484e10e3cdd0e13348d8d2b31491",
        5: "90732ee680f001ef54f867b2659d7ccea364944ca310d2914447f1f8e7b8654a",
    }

    @pytest.mark.parametrize("seed, m", list(SYNTH))
    def test_synth_classification(self, seed, m):
        ds = synth_classification(seed, m, 4, 8, 0.2)
        got = tuple(_digest(a) for a in (ds.features, ds.labels,
                                         ds.provenance["noise_mask"]))
        assert got == self.SYNTH[seed, m]

    @pytest.mark.parametrize("stratified", list(SPLIT))
    def test_split(self, stratified):
        labels = synth_classification(3, 6000, 4, 8, 0.2).labels
        ids = Dataset(np.arange(6000.0)[:, None], labels, CLASSIFICATION)
        parts = split(ids, SplitSpec(seed=11, stratified=stratified))
        got = tuple(_digest(p.features[:, 0].astype(np.int64)) for p in parts)
        assert got == self.SPLIT[stratified]

    @pytest.mark.parametrize("n_keep", list(GIVEN))
    def test_given_stats_transform(self, n_keep):
        ds = synth_classification(3, 6000, 4, 8, 0.2)
        keep = np.ones(8, dtype=bool) if n_keep == 8 else np.arange(8) % 3 != 0
        stats = (np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8), keep,
                 None)
        out, _ = standardize(ds, stats=stats)
        assert _digest(out.features) == self.GIVEN[n_keep]
