import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpattack import membership
from gpattack.data import Dataset, generate_blobs, split
from gpattack.gp import fit_classification_laplace, fit_regression
from gpattack.kernels import LINEAR, POLY, RBF, KernelSpec
from gpattack.membership import (
    FEATURE_ORDER,
    LATENT_MEAN,
    MEAN,
    MEMBER,
    NON_MEMBER,
    RAW_INPUT,
    VARIANCE,
    MembershipDataset,
    build_attack_dataset,
    distribution_drift,
    evaluate_membership,
    overfitting_gap,
    split_attack_dataset,
    train_attack_classifier,
)


def victim_setup(seed=0, lengthscale=0.15, n_pool=200, separation=1.5):
    pool = generate_blobs(n_pool, 2, separation, seed)
    train, rest = split(pool, 0.4, seed)
    gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=lengthscale), train)
    return gp, train, rest


def toy_dataset(rows, labels, feature_set=(MEAN,)):
    return MembershipDataset(np.asarray(rows, dtype=float), np.asarray(labels), tuple(feature_set))


class TestBuildAttackDataset:
    def test_single_feature_arity(self):
        gp, train, rest = victim_setup()
        ds = build_attack_dataset(gp, train, rest, {MEAN})
        assert ds.feature_rows.shape[1] == 1

    def test_mixed_feature_arity(self):
        gp, train, rest = victim_setup()
        ds = build_attack_dataset(gp, train, rest, {MEAN, VARIANCE, RAW_INPUT})
        assert ds.feature_rows.shape[1] == 4  # 1 + 1 + d

    def test_balanced(self):
        gp, train, rest = victim_setup()
        ds = build_attack_dataset(gp, train, rest, {LATENT_MEAN})
        members = int((ds.membership_labels == MEMBER).sum())
        outsiders = int((ds.membership_labels == NON_MEMBER).sum())
        assert abs(members - outsiders) <= 1

    def test_in_out_overlap_rejected(self):
        gp, train, rest = victim_setup()
        with pytest.raises(ValueError):
            build_attack_dataset(gp, train, train, {MEAN})

    def test_signed_zero_overlap_rejected(self):
        # an out-point equal to a training row except for the sign of a zero
        train = Dataset(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF), train, 1e-8)
        outside = Dataset(np.array([[-0.0, 1.0], [5.0, 5.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="disjoint"):
            build_attack_dataset(gp, train, outside, {MEAN})

    def test_in_points_must_be_training_points(self):
        gp, train, rest = victim_setup()
        with pytest.raises(ValueError):
            build_attack_dataset(gp, rest, rest, {MEAN})

    def test_unknown_feature_name(self):
        gp, train, rest = victim_setup()
        with pytest.raises(ValueError):
            build_attack_dataset(gp, train, rest, {"logits"})

    def test_deterministic(self):
        gp, train, rest = victim_setup()
        a = build_attack_dataset(gp, train, rest, {LATENT_MEAN}, seed=5)
        b = build_attack_dataset(gp, train, rest, {LATENT_MEAN}, seed=5)
        assert np.array_equal(a.feature_rows, b.feature_rows)


class TestForest:
    def test_single_split_suffices(self):
        rows = [[1.5], [0.7], [2.0], [-0.5], [-1.1], [-2.0]]
        labels = [MEMBER, MEMBER, MEMBER, NON_MEMBER, NON_MEMBER, NON_MEMBER]
        ds = toy_dataset(rows, labels)
        clf = train_attack_classifier(ds, trees=1, max_depth=1, seed=0)
        assert evaluate_membership(clf, ds)["accuracy"] == 1.0

    def test_constant_features_predict_majority(self):
        rows = [[3.0]] * 10
        labels = [MEMBER] * 7 + [NON_MEMBER] * 3
        ds = toy_dataset(rows, labels)
        clf = train_attack_classifier(ds, trees=15, max_depth=3, seed=1)
        assert np.all(clf.predict(ds.feature_rows) == MEMBER)

    def test_same_seed_same_trees(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(40, 3))
        labels = np.where(rng.random(40) > 0.5, MEMBER, NON_MEMBER)
        ds = toy_dataset(rows, labels, (MEAN, VARIANCE, LATENT_MEAN))
        a = train_attack_classifier(ds, trees=20, max_depth=4, seed=9)
        b = train_attack_classifier(ds, trees=20, max_depth=4, seed=9)
        for name in ("feature", "threshold", "left", "right", "leaf"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_split_between_adjacent_doubles_separates_them(self):
        # 0.5 * (prev(1.0) + 1.0) rounds to 1.0, so a midpoint threshold
        # would send the 1.0 rows left with the prev(1.0) rows
        below = np.nextafter(1.0, 0.0)
        rows = np.repeat([[0.0], [below], [1.0]], 10, axis=0)
        labels = np.repeat([NON_MEMBER, NON_MEMBER, MEMBER], 10)
        clf = train_attack_classifier(toy_dataset(rows, labels), trees=1, max_depth=3, seed=0)
        assert clf.threshold[clf.roots[0]] == below
        assert np.array_equal(clf.predict(rows), labels)

    def test_one_class_data_rejected(self):
        ds = toy_dataset([[1.0], [2.0]], [MEMBER, MEMBER])
        with pytest.raises(ValueError):
            train_attack_classifier(ds)

    def test_monotone_linear_rescale_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(60, 2))
        labels = np.where(rows[:, 0] + 0.3 * rng.normal(size=60) > 0, MEMBER, NON_MEMBER)
        test_rows = rng.normal(size=(30, 2))
        scaled = rows.copy()
        scaled[:, 1] = 5.0 * scaled[:, 1] + 2.0
        scaled_test = test_rows.copy()
        scaled_test[:, 1] = 5.0 * scaled_test[:, 1] + 2.0
        base = train_attack_classifier(toy_dataset(rows, labels, (MEAN, VARIANCE)), trees=25, seed=4)
        rescaled = train_attack_classifier(toy_dataset(scaled, labels, (MEAN, VARIANCE)), trees=25, seed=4)
        assert np.array_equal(base.predict(test_rows), rescaled.predict(scaled_test))

    def test_monotone_nonlinear_rescale_on_training_rows(self):
        # any strictly monotone map preserves how splits route the rows the
        # trees were grown on
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(50, 2))
        labels = np.where(rows.sum(axis=1) > 0, MEMBER, NON_MEMBER)
        warped = np.exp(rows)
        base = train_attack_classifier(toy_dataset(rows, labels, (MEAN, VARIANCE)), trees=25, seed=7)
        rewarped = train_attack_classifier(toy_dataset(warped, labels, (MEAN, VARIANCE)), trees=25, seed=7)
        assert np.array_equal(base.predict(rows), rewarped.predict(warped))


class _RefNode:
    __slots__ = ("feature", "threshold", "left", "right", "leaf")

    def __init__(self, leaf=None, feature=-1, threshold=0.0, left=None, right=None):
        self.leaf = leaf
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _ref_majority(y):
    ones = int(y.sum())
    zeros = len(y) - ones
    return MEMBER if ones > zeros else NON_MEMBER


def _ref_best_split(X, y, features):
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


def _ref_build_tree(X, y, depth, n_sub, rng):
    if depth == 0 or np.all(y == y[0]):
        return _RefNode(leaf=_ref_majority(y))
    features = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
    found = _ref_best_split(X, y, features)
    if found is None:
        return _RefNode(leaf=_ref_majority(y))
    _, feature, threshold = found
    mask = X[:, feature] <= threshold
    return _RefNode(
        feature=feature,
        threshold=threshold,
        left=_ref_build_tree(X[mask], y[mask], depth - 1, n_sub, rng),
        right=_ref_build_tree(X[~mask], y[~mask], depth - 1, n_sub, rng),
    )


def _ref_build_tree_level_order(X, y, max_depth, n_sub, rng):
    """`_ref_build_tree` grown breadth first: every node that is not a leaf
    by depth or purity draws its features when its level is reached, left
    to right."""
    root = _RefNode()
    level = [(root, X, y)]
    for depth in range(max_depth, -1, -1):
        below = []
        for node, X_node, y_node in level:
            found = None
            if depth > 0 and not np.all(y_node == y_node[0]):
                features = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
                found = _ref_best_split(X_node, y_node, features)
            if found is None:
                node.leaf = _ref_majority(y_node)
                continue
            _, node.feature, node.threshold = found
            mask = X_node[:, node.feature] <= node.threshold
            node.left, node.right = _RefNode(), _RefNode()
            below += [(node.left, X_node[mask], y_node[mask]), (node.right, X_node[~mask], y_node[~mask])]
        level = below
    return root


def reference_forest(ds, trees, max_depth, seed, grow=_ref_build_tree):
    """The forest the flat one must reproduce, one tree at a time. The
    default grows each tree depth first, which gives the flat forest's trees
    for f <= 2 features and for f >= 3 stumps; deeper trees on f >= 3
    features draw their feature subsets in level order, as
    `grow=_ref_build_tree_level_order` does for any f."""
    X = ds.feature_rows
    n_sub = math.ceil(math.sqrt(X.shape[1]))
    forest = []
    for seq in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, ds.m, size=ds.m)
        forest.append(grow(X[idx], ds.membership_labels[idx], max_depth, n_sub, rng))
    return forest


def reference_predict(forest, rows):
    votes = np.zeros(len(rows))
    for tree in forest:
        for i, row in enumerate(rows):
            node = tree
            while node.leaf is None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            votes[i] += node.leaf
    return np.where(2 * votes > len(forest), MEMBER, NON_MEMBER)


def preorder(node, out):
    if node.leaf is not None:
        out.append(("leaf", node.leaf))
    else:
        out.append((node.feature, node.threshold))
        preorder(node.left, out)
        preorder(node.right, out)
    return out


def flat_preorder(clf, i, out):
    if clf.feature[i] < 0:
        out.append(("leaf", int(clf.leaf[i])))
    else:
        out.append((int(clf.feature[i]), float(clf.threshold[i])))
        flat_preorder(clf, clf.left[i], out)
        flat_preorder(clf, clf.right[i], out)
    return out


@st.composite
def forest_cases(draw, widths=st.integers(1, 2)):
    """Rows of `widths` columns on a coarse grid (so ties are common),
    optionally with a constant column, labels holding both classes, and five
    query rows on the same grid."""
    f = draw(widths)
    m = draw(st.integers(2, 40))
    value = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    rows = np.array(draw(st.lists(value, min_size=m * f, max_size=m * f))).reshape(m, f)
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, f - 1))] = 2.0
    labels = np.array(draw(st.lists(st.sampled_from([MEMBER, NON_MEMBER]), min_size=m, max_size=m)))
    labels[draw(st.integers(0, m - 1))] = MEMBER
    labels[draw(st.integers(0, m - 1))] = NON_MEMBER
    if labels.min() == labels.max():
        labels[0] = NON_MEMBER if labels[0] == MEMBER else MEMBER
    features = FEATURE_ORDER[: min(f, 4)]  # raw_input spans the columns past the third
    queries = np.array(draw(st.lists(value, min_size=5 * f, max_size=5 * f))).reshape(5, f)
    return toy_dataset(rows, labels, features), queries


def assert_same_forest(clf, forest, rows):
    for t, tree in enumerate(forest):
        assert flat_preorder(clf, clf.roots[t], []) == preorder(tree, [])
    assert np.array_equal(clf.predict(rows), reference_predict(forest, rows))


class TestForestMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(forest_cases(), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
    def test_flat_forest_equals_recursive(self, case, trees, max_depth, seed):
        ds, queries = case
        clf = train_attack_classifier(ds, trees=trees, max_depth=max_depth, seed=seed)
        forest = reference_forest(ds, trees, max_depth, seed)
        assert_same_forest(clf, forest, np.vstack([ds.feature_rows, queries]))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(forest_cases(st.integers(3, 5)), st.integers(1, 11), st.integers(2, 6), st.integers(0, 2**16))
    def test_wide_forest_equals_level_order_reference(self, case, trees, max_depth, seed):
        ds, queries = case
        clf = train_attack_classifier(ds, trees=trees, max_depth=max_depth, seed=seed)
        forest = reference_forest(ds, trees, max_depth, seed, grow=_ref_build_tree_level_order)
        assert_same_forest(clf, forest, np.vstack([ds.feature_rows, queries]))

    def test_group_past_sixteen_bit_sort_keys_equals_reference(self, monkeypatch):
        # one tree of 70,000 bootstrap rows with about as many distinct
        # values per feature: its (tree, value) keys need more than 16 bits
        key_max = []
        stable_order = membership._stable_order

        def spy(keys):
            key_max.append(int(keys.max()))
            return stable_order(keys)

        monkeypatch.setattr(membership, "_stable_order", spy)
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(70_000, 3))
        labels = np.where(rows[:, 0] - rows[:, 2] + rng.normal(size=70_000) > 0, MEMBER, NON_MEMBER)
        ds = toy_dataset(rows, labels, (MEAN, VARIANCE, LATENT_MEAN))
        clf = train_attack_classifier(ds, trees=1, max_depth=3, seed=2)
        assert key_max[0] >= 2**16
        forest = reference_forest(ds, 1, 3, 2, grow=_ref_build_tree_level_order)
        assert_same_forest(clf, forest, rows[:500])

    def test_forest_spanning_several_groups_equals_recursive(self):
        # 60 trees of 400 bootstrap rows exceed one group of trees grown together
        rng = np.random.default_rng(8)
        rows = np.round(rng.normal(size=(400, 2)), 1)
        labels = np.where(rows[:, 0] + rng.normal(size=400) > 0, MEMBER, NON_MEMBER)
        ds = toy_dataset(rows, labels, (MEAN, VARIANCE))
        clf = train_attack_classifier(ds, trees=60, max_depth=4, seed=5)
        assert_same_forest(clf, reference_forest(ds, 60, 4, 5), rows)

    def test_three_feature_stumps_match_reference(self):
        # f >= 3 draws per-node feature subsets in level order, so deeper
        # trees differ from the depth-first reference, but a depth-1 tree
        # draws once, at its root, either way
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30), (MEAN, VARIANCE, LATENT_MEAN))
        clf = train_attack_classifier(ds, trees=7, max_depth=1, seed=11)
        forest = reference_forest(ds, 7, 1, 11)
        for t, tree in enumerate(forest):
            assert flat_preorder(clf, clf.roots[t], []) == preorder(tree, [])


def table_digest(clf):
    """sha256 of the flat node table, in a fixed byte layout."""
    h = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "leaf", "roots"):
        h.update(getattr(clf, name).astype("<f8" if name == "threshold" else "<i4").tobytes())
    return h.hexdigest()


class TestForestTable:
    def test_one_feature_is_sorted_once_per_group(self, monkeypatch):
        # 60 trees of 400 rows grow in three groups; with one feature every
        # split keeps its feature's order partitioned, so no level re-sorts
        calls = []
        stable_order = membership._stable_order

        def spy(keys):
            calls.append(keys.shape)
            return stable_order(keys)

        monkeypatch.setattr(membership, "_stable_order", spy)
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(400, 1))
        labels = np.where(rows[:, 0] + rng.normal(size=400) > 0, MEMBER, NON_MEMBER)
        clf = train_attack_classifier(toy_dataset(rows, labels), trees=60, max_depth=8, seed=3)
        assert math.ceil(60 / (membership._GROUP_SAMPLES // 400)) == 3
        assert [shape[0] for shape in calls] == [1, 1, 1]
        # the trees are deep, so a sort per level would have shown
        assert len(clf.feature) > 60 * 30

    @pytest.mark.parametrize(
        "f, digest",
        [
            (1, "892237e7b0678eeb6fe7a140766bf3950a07bb27ba164d044e8c9f2b483ce86f"),
            (2, "84ec76f98a6e048b0f5c4c7cce0f71f4087ee98cc52869af452f18aa98d8bfeb"),
            (3, "ea0cc69d66d2bc7e496602e84d90bbf89e01a2dfa295a7ce038cd65e351d4f74"),
        ],
    )
    def test_flat_table_is_pinned(self, f, digest):
        # tables of the CLI's forest shape (100 trees, depth 8, four groups)
        # on rows with repeated values; the digests fix the table layout and
        # every node in it
        rng = np.random.default_rng(30 + f)
        rows = np.round(rng.normal(size=(320, f)), 2)
        labels = (rows.sum(axis=1) + rng.normal(size=320) > 0).astype(int)
        ds = toy_dataset(rows, labels, FEATURE_ORDER[:f])
        assert table_digest(train_attack_classifier(ds, trees=100, max_depth=8, seed=7)) == digest


class TestEvaluateMembership:
    def test_balanced_fifty_point_baseline(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 1))
        labels = np.array([MEMBER] * 25 + [NON_MEMBER] * 25)
        test = toy_dataset(rows, labels)
        train = toy_dataset(rng.normal(size=(20, 1)), [MEMBER] * 10 + [NON_MEMBER] * 10)
        clf = train_attack_classifier(train, trees=5, seed=0)
        assert evaluate_membership(clf, test)["baseline"] == 0.5

    def test_constant_features_stay_near_baseline(self):
        accuracies = []
        baselines = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = np.ones((40, 1))
            labels = np.array([MEMBER] * 20 + [NON_MEMBER] * 20)
            perm = rng.permutation(40)
            ds = toy_dataset(rows[perm], labels[perm])
            train, test = split_attack_dataset(ds, 0.5, seed)
            clf = train_attack_classifier(train, trees=10, max_depth=2, seed=seed)
            result = evaluate_membership(clf, test)
            accuracies.append(result["accuracy"])
            baselines.append(result["baseline"])
        assert abs(np.mean(accuracies) - np.mean(baselines)) <= 0.15

    def test_overfit_victim_leaks_membership(self):
        accuracies = []
        baselines = []
        for seed in range(10):
            gp, train, rest = victim_setup(seed=seed, lengthscale=0.15)
            ds = build_attack_dataset(gp, train, rest, {LATENT_MEAN}, seed=seed)
            attack_train, attack_test = split_attack_dataset(ds, 0.8, seed)
            clf = train_attack_classifier(attack_train, trees=50, max_depth=8, seed=seed)
            result = evaluate_membership(clf, attack_test)
            accuracies.append(result["accuracy"])
            baselines.append(result["baseline"])
        assert np.mean(accuracies) >= np.mean(baselines) + 0.1

    def test_empty_test_rejected(self):
        ds = toy_dataset([[0.0], [1.0]], [MEMBER, NON_MEMBER])
        clf = train_attack_classifier(ds, trees=3, seed=0)
        with pytest.raises(ValueError):
            evaluate_membership(clf, toy_dataset(np.empty((0, 1)), []))


class TestOverfittingGap:
    def test_exact_tenth(self):
        spec = KernelSpec(RBF, lengthscale=0.5)
        anchors = Dataset(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(spec, anchors, 1e-9)
        # nine test points near the right anchors, one adversarially mislabeled
        rng = np.random.default_rng(1)
        offsets = rng.uniform(-0.2, 0.2, size=(10, 2))
        features = np.vstack([np.zeros((5, 2)), np.tile([5.0, 0.0], (5, 1))]) + offsets
        labels = np.array([1.0] * 5 + [-1.0] * 4 + [1.0])  # last one is wrong
        result = overfitting_gap(gp, anchors, Dataset(features, labels))
        assert result["train_acc"] == 1.0
        assert result["test_acc"] == 0.9
        assert result["gap"] == pytest.approx(0.1)

    def test_identical_sets_have_zero_gap(self):
        gp, train, _ = victim_setup()
        result = overfitting_gap(gp, train, train)
        assert result["gap"] == 0.0

    def test_short_lengthscale_overfits_more(self):
        gaps = {}
        for name, lengthscale in (("short", 0.15), ("long", 2.0)):
            values = []
            for seed in range(5):
                gp, train, rest = victim_setup(seed=seed, lengthscale=lengthscale)
                values.append(overfitting_gap(gp, train, rest)["gap"])
            gaps[name] = np.mean(values)
        assert gaps["short"] >= gaps["long"]


class TestDistributionDrift:
    def test_iid_test_is_close(self):
        gp, train, rest = victim_setup(lengthscale=1.0)
        result = distribution_drift(gp, train, rest)
        assert 0.5 <= result["ratio"] <= 2.0

    def test_shift_by_ten_lengthscales(self):
        pool = generate_blobs(100, 2, 1.0, 0)
        train, rest = split(pool, 0.5, 0)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=20.0), train)
        shifted = Dataset(rest.features + np.array([200.0, 0.0]), rest.labels)
        assert distribution_drift(gp, train, shifted)["ratio"] >= 100.0

    def test_self_comparison_is_exactly_one(self):
        gp, train, _ = victim_setup()
        assert distribution_drift(gp, train, train)["ratio"] == 1.0

    def test_degenerate_sets_rejected(self):
        gp, train, rest = victim_setup()
        single = Dataset(train.features[:1], train.labels[:1])
        with pytest.raises(ValueError):
            distribution_drift(gp, single, rest)
        pair = Dataset(train.features[:2], train.labels[:2])
        with pytest.raises(ValueError):
            distribution_drift(gp, pair, rest)  # one within pair, zero spread

    def test_poly_kernel_uses_negative_log_similarity(self):
        rng = np.random.default_rng(0)
        train = Dataset(rng.uniform(0.1, 2.0, size=(12, 2)), np.where(np.arange(12) % 2, 1.0, -1.0))
        test = Dataset(rng.uniform(0.1, 2.0, size=(9, 2)), np.where(np.arange(9) % 2, 1.0, -1.0))
        spec = KernelSpec(POLY, variance=2.0, degree=3, offset=0.5)
        gp = fit_regression(spec, train)

        def distances(A, B):  # -log(k/v) with k = v * (<a, b> + offset)^degree
            return -np.log((A @ B.T + 0.5) ** 3)

        within = distances(train.features, train.features)[np.triu_indices(train.n, k=1)]
        cross = distances(train.features, test.features).ravel()
        result = distribution_drift(gp, train, test)
        assert result["within_std"] == pytest.approx(np.std(within), rel=1e-12)
        assert result["cross_std"] == pytest.approx(np.std(cross), rel=1e-12)

    def test_linear_kernel_rejects_nonpositive_similarity(self):
        train = Dataset(np.array([[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0, 1.0]))
        test = Dataset(np.array([[1.0, 2.0], [-1.0, -1.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(LINEAR), train)
        with pytest.raises(ValueError, match="strictly positive"):
            distribution_drift(gp, train, test)


class TestPipelineDeterminism:
    def test_end_to_end(self):
        outputs = []
        for _ in range(2):
            gp, train, rest = victim_setup(seed=3, lengthscale=0.15)
            ds = build_attack_dataset(gp, train, rest, {LATENT_MEAN, VARIANCE}, seed=3)
            attack_train, attack_test = split_attack_dataset(ds, 0.8, 3)
            clf = train_attack_classifier(attack_train, trees=20, max_depth=6, seed=3)
            outputs.append(
                (
                    evaluate_membership(clf, attack_test)["accuracy"],
                    overfitting_gap(gp, train, rest)["gap"],
                    distribution_drift(gp, train, rest)["ratio"],
                )
            )
        assert outputs[0] == outputs[1]
