import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpattack.data import (
    Dataset,
    MissingColumnError,
    NonNumericCellError,
    UnmappableLabelError,
    generate_blobs,
    generate_two_moons,
    load_csv,
    split,
)


class TestDataset:
    def test_invariants(self):
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        assert ds.n == 1 and ds.d == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([2.0]))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.array([1.0, -1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.array([]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.ones((3, 2))
        features[1, 0] = value
        with pytest.raises(ValueError, match="features row 1 is non-finite"):
            Dataset(features, np.array([1.0, -1.0, 1.0]))

    def test_immutable(self):
        ds = Dataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestTwoMoons:
    def test_noise_free_geometry(self):
        ds = generate_two_moons(8, 0.0, 0)
        assert ds.n == 8
        assert (ds.labels == 1).sum() == 4 and (ds.labels == -1).sum() == 4
        pos = ds.features[ds.labels == 1]
        # +1 points sit on the upper half of the unit circle
        assert np.all(pos[:, 1] >= 0)
        assert np.allclose((pos**2).sum(axis=1), 1.0)

    def test_deterministic(self):
        a = generate_two_moons(100, 0.1, 7)
        b = generate_two_moons(100, 0.1, 7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("n", [0, 3, -2])
    def test_bad_counts(self, n):
        with pytest.raises(ValueError):
            generate_two_moons(n, 0.1, 0)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            generate_two_moons(10, -0.1, 0)


class TestBlobs:
    def test_separated_margin_by_hand(self):
        ds = generate_blobs(4, 2, 10.0, 1)
        pos = ds.features[ds.labels == 1]
        neg = ds.features[ds.labels == -1]
        # brute-force pairwise distances across classes
        cross = [
            float(np.sqrt(((p - q) ** 2).sum()))
            for p in pos
            for q in neg
        ]
        assert min(cross) > 5.0
        # classes fall on opposite sides of the midpoint hyperplane (axis 0)
        assert np.all(pos[:, 0] > 0) and np.all(neg[:, 0] < 0)

    def test_zero_separation_centers_coincide(self):
        ds = generate_blobs(2000, 2, 0.0, 0)
        pos = ds.features[ds.labels == 1].mean(axis=0)
        neg = ds.features[ds.labels == -1].mean(axis=0)
        assert np.linalg.norm(pos - neg) < 0.2

    def test_deterministic(self):
        a = generate_blobs(40, 3, 2.0, 9)
        b = generate_blobs(40, 3, 2.0, 9)
        assert np.array_equal(a.features, b.features)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_blobs(5, 2, 1.0, 0)
        with pytest.raises(ValueError):
            generate_blobs(4, 0, 1.0, 0)


class TestLoadCsv:
    def test_direct_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,1\n3,4,0\n")
        ds = load_csv(path, "y")
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_unmappable_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n")
        with pytest.raises(UnmappableLabelError):
            load_csv(path, "y")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,1\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, "z")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\nfoo,1\n")
        with pytest.raises(NonNumericCellError):
            load_csv(path, "y")

    @pytest.mark.parametrize(
        "cell, problem",
        [("foo", "non-numeric"), ("nan", "non-finite"), ("inf", "non-finite"), ("-Infinity", "non-finite")],
    )
    def test_bad_cell_named(self, tmp_path, cell, problem):
        # float() parses nan and inf, which the fits cannot take
        path = tmp_path / "data.csv"
        path.write_text(f"a,b,y\n1,2,1\n3,{cell},0\n")
        with pytest.raises(NonNumericCellError, match=f"row 3, column 'b': {problem} cell '{cell}'"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_minus_one_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,-1\n2,1\n")
        ds = load_csv(path, "y")
        assert np.array_equal(ds.labels, [-1.0, 1.0])


class TestSplit:
    @staticmethod
    def _dataset(n):
        rng = np.random.default_rng(0)
        labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return Dataset(rng.normal(size=(n, 2)), labels)

    def test_half_split(self):
        train, test = split(self._dataset(10), 0.5, 3)
        assert train.n == 5 and test.n == 5
        a = {tuple(row) for row in train.features}
        b = {tuple(row) for row in test.features}
        assert not a & b

    def test_degenerate_rounding(self):
        train, test = split(self._dataset(2), 0.9, 0)
        assert train.n == 1 and test.n == 1

    def test_deterministic(self):
        first = split(self._dataset(20), 0.3, 5)
        second = split(self._dataset(20), 0.3, 5)
        assert np.array_equal(first[0].features, second[0].features)
        assert np.array_equal(first[1].features, second[1].features)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            split(self._dataset(10), fraction, 0)

    def test_single_point(self):
        with pytest.raises(ValueError):
            split(self._dataset(1), 0.5, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        fraction=st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, fraction, seed):
        ds = Dataset(np.arange(n, dtype=float)[:, None], np.ones(n) * (-1.0) ** np.arange(n))
        train, test = split(ds, fraction, seed)
        assert train.n >= 1 and test.n >= 1
        combined = sorted(train.features[:, 0]) + sorted(test.features[:, 0])
        assert sorted(combined) == list(range(n))
