"""Synthetic dataset generation, CSV ingestion and splitting, plus the two
rules every module shares: how a record freezes its arrays (`frozen_array`)
and how a report file is written (`write_lines`, `write_json`).

Every generator is a pure function of its arguments: the same seed always
produces the same dataset, bit for bit. Labels are canonicalized to {-1, +1}
at ingestion (0/1 CSV labels are remapped with 0 -> -1) so that a single
label convention holds throughout the package.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "CsvFormatError",
    "MissingColumnError",
    "NonNumericCellError",
    "UnmappableLabelError",
    "generate_two_moons",
    "generate_blobs",
    "load_csv",
    "split",
    "rows_in",
    "frozen_array",
    "write_lines",
    "write_json",
]


class CsvFormatError(ValueError):
    """A CSV file could not be turned into a Dataset."""


class MissingColumnError(CsvFormatError):
    """The requested label column is not in the header."""


class NonNumericCellError(CsvFormatError):
    """A feature cell could not be parsed as a number."""


class UnmappableLabelError(CsvFormatError):
    """A label value is not one of -1, 0, +1."""


def frozen_array(value, dtype=float) -> np.ndarray:
    """A read-only C-contiguous `dtype` copy of `value`: no array the caller
    holds, nor one that `value` views, can change it."""
    array = np.array(value, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


def write_lines(path, lines):
    """Write each string of `lines`, newline-terminated, to a UTF-8 file."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_json(path, payload):
    """Write `payload` as JSON with sorted keys and one-space indents."""
    write_lines(path, [json.dumps(payload, sort_keys=True, indent=1)])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n x d) paired with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = frozen_array(self.features)
        labels = frozen_array(self.labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("need at least one row and one feature column")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector with one entry per row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx])


def _require_nonnegative(name: str, value) -> None:
    """Refuse a `value` that is negative, NaN or infinite, naming it."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def _half(n: int) -> int:
    """n // 2, the points per class of a balanced generator; n must be even."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be a positive even count, got {n}")
    return n // 2


def generate_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circle classes in 2-D, n/2 points per class.

    The +1 moon is the upper half of the unit circle; the -1 moon is its
    mirrored arc offset by (+1, -0.5), the conventional interleaving.
    Gaussian noise of the given standard deviation is added per coordinate.
    """
    m = _half(n)
    _require_nonnegative("noise", noise)
    theta = np.linspace(0.0, np.pi, m)
    upper = np.column_stack([np.cos(theta), np.sin(theta)])
    lower = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    points = np.vstack([upper, lower])
    rng = np.random.default_rng(seed)
    points = points + rng.normal(0.0, noise, size=points.shape)
    labels = np.concatenate([np.ones(m), -np.ones(m)])
    return Dataset(points, labels)


def generate_blobs(n: int, d: int, separation: float, seed: int) -> Dataset:
    """Two balanced isotropic unit-variance Gaussian clusters, centers
    `separation` apart along the first axis."""
    m = _half(n)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    rng = np.random.default_rng(seed)
    offset = np.zeros(d)
    offset[0] = separation / 2.0
    pos = offset + rng.standard_normal((m, d))
    neg = -offset + rng.standard_normal((m, d))
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(m), -np.ones(m)])
    return Dataset(features, labels)


def _parse_label(cell: str, row: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise UnmappableLabelError(f"row {row}: label {cell!r} is not numeric") from None
    if value == 1.0:
        return 1.0
    if value == -1.0 or value == 0.0:
        return -1.0
    raise UnmappableLabelError(f"row {row}: label {cell!r} not in {{-1, 0, 1}}")


def load_csv(path, label_column: str) -> Dataset:
    """Read a headered CSV into a Dataset, taking `label_column` as the label.

    Remaining columns become features in header order. Accepted label
    values: -1/1, or 0/1 with 0 mapped to -1.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        header = [name.strip() for name in header]
        if label_column not in header:
            raise MissingColumnError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)

        rows: list[list[float]] = []
        labels: list[float] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            labels.append(_parse_label(row[label_idx].strip(), row_no))
            values = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise NonNumericCellError(
                        f"{path}: row {row_no}, column {header[i]!r}: non-numeric cell {cell!r}"
                    ) from None
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random disjoint train/test partition; deterministic per seed.

    The train size is floor(train_fraction * n), clamped so both parts
    stay nonempty.
    """
    n_train = _cut(train_fraction, dataset.n)
    if dataset.n < 2:
        raise ValueError("cannot split a dataset with fewer than 2 points")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def _cut(fraction: float, n: int) -> int:
    """Where a split of n rows cuts: floor(fraction * n), clamped to
    [1, n - 1] so both parts stay nonempty; fraction must lie in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    return min(max(int(np.floor(fraction * n)), 1), n - 1)


def rows_in(table, rows) -> np.ndarray:
    """Boolean mask: True where a row of `rows` equals some row of `table`.

    Rows compare by value, so -0.0 and 0.0 match.
    """
    # adding 0.0 turns -0.0 into 0.0, so equal values have equal bytes
    keys = {row.tobytes() for row in np.asarray(table, dtype=float) + 0.0}
    return np.array([row.tobytes() in keys for row in np.asarray(rows, dtype=float) + 0.0], dtype=bool)
