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

from .data import Dataset, frozen_array, rows_in
from .gp import CLASSIFICATION, TrainedGP, _logistic, accuracy as gp_accuracy, latent_mean_batch, predict_batch
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

# Trees grow in groups of at most this many bootstrap draws (but at least
# one tree each), so a group holds at most this many distinct rows, and each
# array of one feature's order, like the boundaries a level scores, takes
# 64 kB of float64 or less however many trees the forest has.
_GROUP_SAMPLES = 8192
_TABLE = ("feature", "threshold", "left", "right", "leaf")


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
    # the predictive variance costs a solve against the n x n factor (built on first use)
    if VARIANCE in feature_set:
        means, variances = predict_batch(gp, points)
    else:
        means = latent_mean_batch(gp, points)
    columns = []
    for name in feature_set:
        if name == MEAN:
            # the model's ordinary output: class probability for GPC
            columns.append(_logistic(means) if gp.mode == CLASSIFICATION else means)
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


@dataclass(frozen=True, eq=False)
class AttackClassifier:
    """Majority vote over axis-aligned binary decision trees.

    The forest is one flat node table; tree t starts at node `roots[t]`.
    Node i is a leaf voting `leaf[i]` when `feature[i]` is -1; otherwise a
    row goes to node `left[i]` when its `feature[i]` value is <= `threshold[i]`
    and to node `right[i]` when not. Unused entries hold -1 (0.0 for
    `threshold`).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray
    roots: np.ndarray
    n_features: int

    def __post_init__(self):
        for name in ("feature", "left", "right", "leaf", "roots"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), dtype=np.int32))
        object.__setattr__(self, "threshold", frozen_array(self.threshold))

    def predict(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {rows.shape[1]}")
        # walk every (row, tree) pair one level per pass until all sit on leaves
        node = np.tile(self.roots, (rows.shape[0], 1))
        row = np.arange(rows.shape[0])[:, None]
        while True:
            feature = self.feature[node]
            inner = feature >= 0
            if not inner.any():
                break
            go_left = rows[row, np.maximum(feature, 0)] <= self.threshold[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)
        votes = self.leaf[node].sum(axis=1)
        return np.where(2 * votes > len(self.roots), MEMBER, NON_MEMBER)


def _ranges(first, lengths):
    """The ranges first[i], ..., first[i] + lengths[i] - 1, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(first - (ends - lengths), lengths) + np.arange(total)


def _sorted_feature(column, copies, member_copies, order):
    """One feature of the held rows listed in `order`: their values, the
    copies and member copies held before each position (one entry more
    than positions, starting at 0), and the positions whose value is below
    the next position's."""
    values = column[order]
    copies_before = np.concatenate(([0.0], np.cumsum(copies[order])))
    members_before = np.concatenate(([0.0], np.cumsum(member_copies[order])))
    return values, copies_before, members_before, np.flatnonzero(values[1:] > values[:-1])


def _level_splits(features, start, stop, size, ones, allowed):
    """Best Gini split of every open node of one level.

    Open node k holds positions start[k]:stop[k] of every order, and
    `size`/`ones` are its copy and member-copy counts. `features[j]` is
    feature j's `_sorted_feature`, in which each node's segment lists its
    rows by value; its prefix sums score each boundary between distinct
    values of a segment. A node keeps the first minimum over its boundaries
    and, across features, the lowest feature index among equal Ginis, and
    splits at the midpoint of the boundary's two values (at the lower one
    where the midpoint rounds to the upper). `allowed[k, j]` says whether
    node k may split on feature j (None: every feature). Returns the chosen
    feature (-1 where no boundary exists), threshold and cut per node: the
    rows at or below the threshold hold start:cut of the chosen feature's
    order.
    """
    count = len(size)
    best_gini = np.full(count, np.inf)
    best_feature = np.full(count, -1, dtype=np.int32)
    best_threshold = np.zeros(count)
    best_cut = np.zeros(count, dtype=start.dtype)
    for j, (values, copies_before, members_before, rises) in enumerate(features):
        lo = np.searchsorted(rises, start)
        n_at = np.searchsorted(rises, stop - 1) - lo
        if allowed is not None:
            n_at[~allowed[:, j]] = 0
        boundary = rises[_ranges(lo, n_at)]
        if len(boundary) == 0:
            continue
        after = boundary + 1
        m = np.repeat(size, n_at)
        left_n = copies_before[after] - np.repeat(copies_before[start], n_at)
        right_n = m - left_n
        left_ones = members_before[after] - np.repeat(members_before[start], n_at)
        right_ones = np.repeat(ones, n_at) - left_ones
        p_left = left_ones / left_n
        p_right = right_ones / right_n
        gini = (left_n * 2 * p_left * (1 - p_left) + right_n * 2 * p_right * (1 - p_right)) / m
        del after, left_n, right_n, left_ones, right_ones, p_left, p_right, m
        # first minimum per node: a node's boundaries run in value order
        k = np.flatnonzero(n_at)
        n_at = n_at[k]
        offsets = np.cumsum(n_at) - n_at
        g = np.minimum.reduceat(gini, offsets)
        hit = np.flatnonzero(gini == np.repeat(g, n_at))
        b = boundary[hit[np.searchsorted(hit, offsets)]]
        better = g < best_gini[k]
        k, b = k[better], b[better]
        best_gini[k] = g[better]
        best_feature[k] = j
        best_cut[k] = b + 1
        low, high = values[b], values[b + 1]
        middle = 0.5 * (low + high)
        # the midpoint of two adjacent doubles (or of two huge ones) can
        # round to the larger value, which would send it left as well
        best_threshold[k] = np.where(middle < high, middle, low)
    return best_feature, best_threshold, best_cut


def _stable_order(keys):
    """Stable argsort of non-negative integer keys along their last axis, in
    the smallest unsigned type that holds them: numpy radix-sorts keys of at
    most 16 bits and merge-sorts wider ones, in the same order."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max())), axis=-1, kind="stable")


def _grow_group(X, ranks, labels, rngs, max_depth, first, table) -> int:
    """Grow one tree per generator in `rngs`, all together one depth at a
    time, appending each level's nodes to the lists in `table` with ids from
    `first` on. Returns the id after the last node.

    A tree holds each distinct row of its bootstrap once, with its number
    of copies. `ranks[j]` holds each row's dense rank among the distinct
    values of feature j, and one stable sort per feature lists the group's
    held rows by (tree, value, row): that feature's order. Every node of a
    level is one segment, at the same positions in every order, so its
    counts and each boundary's Gini come from prefix sums over an order. A
    split keeps its rows at or below the threshold first in its feature's
    order, which makes the children two segments; every other order is
    stably re-partitioned within the split segments (and its prefix sums
    taken again) only when some split of the level used another feature,
    never with one feature. Leaves keep their segments, which no later level
    reads."""
    m, f = X.shape
    n_sub = math.ceil(math.sqrt(f))
    # tree t's draw of row i is t * m + i
    draws = np.concatenate([t * m + rng.integers(0, m, size=m) for t, rng in enumerate(rngs)])
    copies = np.bincount(draws, minlength=len(rngs) * m)
    held = np.flatnonzero(copies)
    tree, rows = np.divmod(held, m)
    # float counts, exact below 2**53, keep the Gini arithmetic in one dtype
    copies = copies[held].astype(float)
    member_copies = copies * labels[rows]
    start = np.searchsorted(held, np.arange(len(rngs)) * m)
    stop = np.append(start[1:], len(held))
    tree_of = np.arange(len(rngs))
    orders = _stable_order(tree * (ranks.max(axis=1, keepdims=True) + 1) + ranks[:, rows])
    columns = X[rows].T.copy()
    features = [_sorted_feature(columns[j], copies, member_copies, orders[j]) for j in range(f)]
    del draws, held, tree
    for depth in range(max_depth + 1):
        count = len(start)
        _, copies_before, members_before, _ = features[0]
        size = copies_before[stop] - copies_before[start]
        ones = members_before[stop] - members_before[start]
        majority = np.where(2 * ones > size, MEMBER, NON_MEMBER)
        open_nodes = np.flatnonzero((ones > 0) & (ones < size)) if depth < max_depth else np.empty(0, dtype=int)
        feature = np.full(count, -1, dtype=np.int32)
        threshold = np.zeros(count)
        cut = np.zeros(count, dtype=start.dtype)
        if len(open_nodes):
            allowed = None
            if n_sub < f:
                allowed = np.zeros((len(open_nodes), f), dtype=bool)
                for i, k in enumerate(open_nodes):
                    allowed[i, rngs[tree_of[k]].choice(f, size=n_sub, replace=False)] = True
            feature[open_nodes], threshold[open_nodes], cut[open_nodes] = _level_splits(
                features, start[open_nodes], stop[open_nodes], size[open_nodes], ones[open_nodes], allowed
            )
        split = feature >= 0
        n_split = int(split.sum())
        child = np.full(count, -1, dtype=np.int32)
        child[split] = first + count + 2 * np.arange(n_split, dtype=np.int32)
        table["feature"].append(feature)
        table["threshold"].append(threshold)
        table["left"].append(child)
        table["right"].append(np.where(split, child + 1, -1))
        table["leaf"].append(np.where(split, -1, majority))
        first += count
        if n_split == 0:
            return first
        start, cut, stop, used = start[split], cut[split], stop[split], feature[split]
        stale = [j for j in range(f) if np.any(used != j)]
        if stale:
            goes_left = np.zeros(len(rows), dtype=bool)
            for j in np.unique(used):
                on_j = used == j
                goes_left[orders[j][_ranges(start[on_j], cut[on_j] - start[on_j])]] = True
            inside = _ranges(start, stop - start)
            left_key, right_key = np.repeat(start, stop - start), np.repeat(cut, stop - start)
            for j in stale:
                order = orders[j][inside]
                orders[j][inside] = order[_stable_order(np.where(goes_left[order], left_key, right_key))]
                features[j] = _sorted_feature(columns[j], copies, member_copies, orders[j])
            del goes_left, inside, left_key, right_key
        start, stop = np.column_stack((start, cut)).ravel(), np.column_stack((cut, stop)).ravel()
        tree_of = np.repeat(tree_of[split], 2)
    return first


def train_attack_classifier(
    ds: MembershipDataset, trees: int = 100, max_depth: int = 8, seed: int = 0
) -> AttackClassifier:
    """Train the forest: bootstrapped rows per tree, ceil(sqrt(f)) random
    features per split, deterministic for a fixed seed.

    Tree t draws its bootstrap from its own generator, spawned from `seed`.
    A node becomes a leaf (majority vote, ties to non-member) at depth
    `max_depth`, when its rows share one label, or when no candidate feature
    separates them; otherwise it splits at the midpoint of the lowest-Gini
    boundary. The trees grow in groups, all of a group together one depth
    at a time, each holding its distinct bootstrap rows once with a count,
    on orders of them presorted once per feature (see `_grow_group`). With
    f features and ceil(sqrt(f)) < f, every node that is not yet a leaf by
    depth or purity draws its candidate features from its tree's generator,
    in level order: depth by depth, left to right. With f <= 2 every node
    considers every feature and nothing is drawn after the bootstrap.
    """
    if trees < 1 or max_depth < 1:
        raise ValueError("trees and max_depth must be at least 1")
    labels = ds.membership_labels
    if np.all(labels == labels[0]):
        raise ValueError("attack training data must contain both membership classes")
    X = ds.feature_rows
    ranks = np.array([np.unique(column, return_inverse=True)[1] for column in X.T])
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(trees)]
    table = {name: [] for name in _TABLE}
    roots = []
    first = 0
    step = max(1, _GROUP_SAMPLES // ds.m)
    for start in range(0, trees, step):
        group = rngs[start : start + step]
        roots.append(np.arange(first, first + len(group)))
        first = _grow_group(X, ranks, labels, group, max_depth, first, table)
    parts = {name: np.concatenate(levels) for name, levels in table.items()}
    return AttackClassifier(**parts, roots=np.concatenate(roots), n_features=X.shape[1])


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

