"""Empirical membership inference against a trained GP.

The attacker turns model outputs on known member/non-member points into a
supervised dataset and trains a from-scratch random forest (CART trees,
Gini impurity, bootstrapped rows, random feature subsets) to predict
membership. Companion diagnostics quantify what makes the attack work:
the train/test overfitting gap and a distribution-drift ratio measured in
the kernel's own metric.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import expit

from .data import Dataset, frozen_array, rows_in
from .gp import CLASSIFICATION, TrainedGP, accuracy as gp_accuracy, predict_batch
from .kernels import RBF, kernel_matrix, scaled_sq_distances

__all__ = [
    "MEAN",
    "VARIANCE",
    "LATENT_MEAN",
    "RAW_INPUT",
    "FEATURE_ORDER",
    "MembershipDataset",
    "AttackClassifier",
    "build_attack_dataset",
    "split_attack_dataset",
    "train_attack_classifier",
    "evaluate_membership",
    "overfitting_gap",
    "distribution_drift",
]

MEAN = "mean"
VARIANCE = "variance"
LATENT_MEAN = "latent_mean"
RAW_INPUT = "raw_input"
FEATURE_ORDER = (MEAN, VARIANCE, LATENT_MEAN, RAW_INPUT)

MEMBER = 1
NON_MEMBER = 0


@dataclass(frozen=True, eq=False)
class MembershipDataset:
    """Attack feature rows with membership labels (1 = member, 0 = not)."""

    feature_rows: np.ndarray
    membership_labels: np.ndarray
    feature_set: tuple[str, ...]

    def __post_init__(self):
        rows = frozen_array(self.feature_rows)
        labels = frozen_array(self.membership_labels, dtype=int)
        if rows.ndim != 2 or labels.shape != (rows.shape[0],):
            raise ValueError("feature_rows must be 2-D with one label per row")
        if not np.all(np.isin(labels, (MEMBER, NON_MEMBER))):
            raise ValueError("membership labels must be 0 or 1")
        object.__setattr__(self, "feature_rows", rows)
        object.__setattr__(self, "membership_labels", labels)
        object.__setattr__(self, "feature_set", tuple(self.feature_set))

    @property
    def m(self) -> int:
        return self.feature_rows.shape[0]


def _canonical_feature_set(feature_set) -> tuple[str, ...]:
    chosen = set(feature_set)
    unknown = chosen - set(FEATURE_ORDER)
    if unknown:
        raise ValueError(f"unknown feature names: {sorted(unknown)}")
    if not chosen:
        raise ValueError("feature_set must not be empty")
    return tuple(name for name in FEATURE_ORDER if name in chosen)


def _feature_rows(gp: TrainedGP, points: np.ndarray, feature_set: tuple[str, ...]) -> np.ndarray:
    means, variances = predict_batch(gp, points)
    columns = []
    for name in feature_set:
        if name == MEAN:
            # the model's ordinary output: class probability for GPC
            columns.append(expit(means) if gp.mode == CLASSIFICATION else means)
        elif name == VARIANCE:
            columns.append(variances)
        elif name == LATENT_MEAN:
            columns.append(means)
        else:
            columns.append(points)
    return np.column_stack(columns)


def build_attack_dataset(
    gp: TrainedGP,
    in_points: Dataset,
    out_points: Dataset,
    feature_set,
    seed: int = 0,
) -> MembershipDataset:
    """One attack row per point, balanced by down-sampling the larger side.

    `in_points` must come from the victim's training data and `out_points`
    must be disjoint from it; overlap between the two sets is rejected.
    """
    feature_set = _canonical_feature_set(feature_set)
    if not np.all(rows_in(gp.train_features, in_points.features)):
        raise ValueError("in_points must be a subset of the victim's training data")
    if np.any(rows_in(gp.train_features, out_points.features)):
        raise ValueError("out_points must be disjoint from the victim's training data")
    if np.any(rows_in(in_points.features, out_points.features)):
        raise ValueError("in_points and out_points overlap")

    rng = np.random.default_rng(seed)
    k = min(in_points.n, out_points.n)
    in_idx = np.sort(rng.choice(in_points.n, size=k, replace=False))
    out_idx = np.sort(rng.choice(out_points.n, size=k, replace=False))
    rows = np.vstack(
        [
            _feature_rows(gp, in_points.features[in_idx], feature_set),
            _feature_rows(gp, out_points.features[out_idx], feature_set),
        ]
    )
    labels = np.concatenate([np.full(k, MEMBER), np.full(k, NON_MEMBER)])
    return MembershipDataset(rows, labels, feature_set)


def split_attack_dataset(
    ds: MembershipDataset, train_fraction: float, seed: int
) -> tuple[MembershipDataset, MembershipDataset]:
    """Stratified row split so both parts keep the in/out balance."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for value in (MEMBER, NON_MEMBER):
        idx = np.flatnonzero(ds.membership_labels == value)
        if len(idx) < 2:
            raise ValueError("need at least two rows per membership class to split")
        perm = idx[rng.permutation(len(idx))]
        cut = min(max(int(np.floor(train_fraction * len(idx))), 1), len(idx) - 1)
        train_idx.extend(perm[:cut])
        test_idx.extend(perm[cut:])
    train_idx = np.array(train_idx)
    test_idx = np.array(test_idx)
    return (
        MembershipDataset(ds.feature_rows[train_idx], ds.membership_labels[train_idx], ds.feature_set),
        MembershipDataset(ds.feature_rows[test_idx], ds.membership_labels[test_idx], ds.feature_set),
    )


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "leaf")

    def __init__(self, leaf=None, feature=-1, threshold=0.0, left=None, right=None):
        self.leaf = leaf
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _majority(y: np.ndarray) -> int:
    ones = int(y.sum())
    zeros = len(y) - ones
    return MEMBER if ones > zeros else NON_MEMBER


def _best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    # exhaustive threshold search per candidate feature, vectorized with
    # prefix class counts over the sorted column
    m = len(y)
    best = None
    for feature in features:
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        ones = np.cumsum(y[order])
        boundaries = np.flatnonzero(values[1:] > values[:-1])
        if len(boundaries) == 0:
            continue
        left_n = boundaries + 1.0
        right_n = m - left_n
        left_ones = ones[boundaries]
        right_ones = ones[-1] - left_ones
        p_left = left_ones / left_n
        p_right = right_ones / right_n
        gini = (left_n * 2 * p_left * (1 - p_left) + right_n * 2 * p_right * (1 - p_right)) / m
        i = int(np.argmin(gini))
        candidate = (float(gini[i]), int(feature), float(0.5 * (values[boundaries[i]] + values[boundaries[i] + 1])))
        if best is None or candidate[0] < best[0]:
            best = candidate
    return best


def _build_tree(X: np.ndarray, y: np.ndarray, depth: int, n_sub: int, rng: np.random.Generator) -> _Node:
    if depth == 0 or np.all(y == y[0]):
        return _Node(leaf=_majority(y))
    features = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
    found = _best_split(X, y, features)
    if found is None:
        return _Node(leaf=_majority(y))
    _, feature, threshold = found
    mask = X[:, feature] <= threshold
    return _Node(
        feature=feature,
        threshold=threshold,
        left=_build_tree(X[mask], y[mask], depth - 1, n_sub, rng),
        right=_build_tree(X[~mask], y[~mask], depth - 1, n_sub, rng),
    )


class AttackClassifier:
    """Majority vote over axis-aligned binary decision trees."""

    def __init__(self, trees: list[_Node], n_features: int):
        self._trees = trees
        self._n_features = n_features

    def predict(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {rows.shape[1]}")
        votes = np.zeros(rows.shape[0])
        for tree in self._trees:
            for i, row in enumerate(rows):
                node = tree
                while node.leaf is None:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                votes[i] += node.leaf
        return np.where(2 * votes > len(self._trees), MEMBER, NON_MEMBER)


def train_attack_classifier(
    ds: MembershipDataset, trees: int = 100, max_depth: int = 8, seed: int = 0
) -> AttackClassifier:
    """Train the forest: bootstrapped rows per tree, ceil(sqrt(f)) random
    features per split, deterministic for a fixed seed."""
    if trees < 1 or max_depth < 1:
        raise ValueError("trees and max_depth must be at least 1")
    labels = ds.membership_labels
    if np.all(labels == labels[0]):
        raise ValueError("attack training data must contain both membership classes")
    X = ds.feature_rows
    n_sub = math.ceil(math.sqrt(X.shape[1]))
    forest = []
    for seq in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, ds.m, size=ds.m)
        forest.append(_build_tree(X[idx], labels[idx], max_depth, n_sub, rng))
    return AttackClassifier(forest, X.shape[1])


def evaluate_membership(clf: AttackClassifier, test: MembershipDataset) -> dict:
    """Held-out attack accuracy plus the trivial-guess baseline
    (the larger class proportion of the test rows)."""
    if test.m < 1:
        raise ValueError("test set must be nonempty")
    predictions = clf.predict(test.feature_rows)
    member_fraction = float((test.membership_labels == MEMBER).mean())
    return {
        "accuracy": float((predictions == test.membership_labels).mean()),
        "baseline": max(member_fraction, 1.0 - member_fraction),
    }


def overfitting_gap(gp: TrainedGP, train: Dataset, test: Dataset) -> dict:
    """Forced-classification train/test accuracies and their difference."""
    train_acc = gp_accuracy(gp, train)["accuracy"]
    test_acc = gp_accuracy(gp, test)["accuracy"]
    return {"train_acc": train_acc, "test_acc": test_acc, "gap": train_acc - test_acc}


def _kernel_distances(gp: TrainedGP, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    spec = gp.spec
    if spec.family == RBF:
        return 0.5 * scaled_sq_distances(spec, A, B)
    K = kernel_matrix(spec, A, B)
    if np.any(K <= 0):
        raise ValueError("kernel-space distance needs strictly positive similarities")
    return -np.log(K / spec.variance)


def distribution_drift(gp: TrainedGP, train: Dataset, test: Dataset) -> dict:
    """Spread of kernel-space distances within training pairs vs across
    train/test pairs.

    Distances use the kernel's own metric -log(k/variance), which for the
    RBF kernel is the lengthscale-rescaled squared distance. A ratio near 1
    means the test data looks like the training data from the model's
    perspective; shifted test data blows the ratio up.
    """
    if train.n < 2 or test.n < 2:
        raise ValueError("drift needs at least two points in each set")
    within = _kernel_distances(gp, train.features, train.features)
    within_values = within[np.triu_indices(train.n, k=1)]
    if np.array_equal(train.features, test.features):
        cross_values = within_values
    else:
        cross_values = _kernel_distances(gp, train.features, test.features).ravel()
    within_std = float(np.std(within_values))
    cross_std = float(np.std(cross_values))
    if within_std == 0.0:
        raise ValueError("degenerate training set: all pairs are equidistant")
    return {"within_std": within_std, "cross_std": cross_std, "ratio": cross_std / within_std}

