"""CSV ingestion, standardization, synthetic data, and splitting."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selpred.data import (
    Dataset,
    ParseError,
    SplitSpec,
    load_csv,
    split,
    standardize,
    synth_classification,
    unstandardize_target,
)
from selpred.layers import ConfigurationError
from selpred.model import CLASSIFICATION, REGRESSION


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
        ([0, -1], 2, "feature column -1 is negative"),
        ([0, 0], 2, "feature column 0 is repeated"),
        ([0, 2], 2, "feature column 2 is the target column"),
        ([0, 1], -1, "target column -1 is negative"),
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

    def test_target_round_trip(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(50, 2)), rng.normal(30.0, 15.0, size=50),
                     REGRESSION)
        out, stats = standardize(ds, include_target=True)
        back = unstandardize_target(out.labels, stats[3])
        np.testing.assert_allclose(back, ds.labels, atol=1e-10)


    @settings(max_examples=50)
    @given(m=st.integers(1, 60), d=st.integers(1, 6),
           constant=st.integers(-1, 5), seed=st.integers(0, 2**32 - 1))
    def test_in_place_equals_expression(self, m, d, constant, seed):
        """Bit-identical to ``(features[:, keep] - mean[keep]) / std[keep]``,
        with train stats and with a held-out split's; column ``constant``
        (if any) has zero variance."""
        rng = np.random.default_rng(seed)
        feats = rng.normal(rng.normal(0.0, 50.0), rng.uniform(0.1, 30.0),
                           size=(m, d))
        if 0 <= constant < d:
            feats[:, constant] = 2.5
        held_out = Dataset(rng.normal(size=(7, d)), np.zeros(7), REGRESSION)
        ds = Dataset(feats, np.zeros(m), REGRESSION)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, stats = standardize(ds)
        mean, std, keep, _ = stats
        for src, got in ((ds, out), (held_out, standardize(held_out, stats)[0])):
            want = (src.features[:, keep] - mean[keep]) / std[keep]
            np.testing.assert_array_equal(got.features, want)

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

    def test_tiny_dataset_rejected(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2), REGRESSION)
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(seed=0))
