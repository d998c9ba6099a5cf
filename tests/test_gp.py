import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gpattack import gp as gp_module
from gpattack.data import Dataset, generate_blobs, generate_two_moons, split
from gpattack.extraction import ModelOracle
from gpattack.gp import (
    CLASSIFICATION,
    REGRESSION,
    REJECT,
    FactorizationError,
    RejectionPolicy,
    TrainedGP,
    ZeroRejection,
    accuracy,
    decision_grid,
    fit_classification_laplace,
    fit_regression,
    latent_gradient,
    latent_mean,
    latent_mean_batch,
    load_gp,
    predict,
    predict_batch,
    save_gp,
)
from gpattack.kernels import RBF, KernelSpec, kernel_eval, kernel_matrix


def dense_inverse_prediction(spec, X, y, jitter, query):
    """Brute-force oracle: mean and variance through an explicit inverse."""
    K = kernel_matrix(spec, X, X) + jitter * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    k_star = kernel_matrix(spec, query[None, :], X)[0]
    mean = k_star @ K_inv @ y
    variance = kernel_eval(spec, query, query) - k_star @ K_inv @ k_star
    return mean, max(variance, 0.0)


def random_regression_case(seed, max_n=10, max_d=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    X = rng.uniform(-3, 3, size=(n, d))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    spec = KernelSpec(RBF, lengthscale=float(rng.uniform(0.4, 2.5)), variance=float(rng.uniform(0.3, 3.0)))
    query = rng.uniform(-3, 3, size=d)
    return spec, X, y, query


class TestFitRegression:
    def test_interpolates_single_point(self):
        spec = KernelSpec(RBF)
        ds = Dataset(np.array([[0.5, -0.5]]), np.array([1.0]))
        gp = fit_regression(spec, ds, jitter=1e-9)
        assert predict(gp, np.array([0.5, -0.5])).mean == pytest.approx(1.0, abs=1e-6)

    def test_two_point_system_matches_hand_inverse(self):
        spec = KernelSpec(RBF, lengthscale=1.2, variance=0.8)
        X = np.array([[0.0, 0.0], [1.0, 0.5]])
        y = np.array([1.0, -1.0])
        jitter = 1e-8
        gp = fit_regression(spec, Dataset(X, y), jitter)
        query = np.array([0.3, -0.2])
        # explicit 2x2 inverse: [[a, b], [b, a]]^-1 = [[a, -b], [-b, a]] / (a^2 - b^2)
        a = kernel_eval(spec, X[0], X[0]) + jitter
        b = kernel_eval(spec, X[0], X[1])
        det = a * a - b * b
        k1 = kernel_eval(spec, query, X[0])
        k2 = kernel_eval(spec, query, X[1])
        expected = (k1 * (a * y[0] - b * y[1]) + k2 * (-b * y[0] + a * y[1])) / det
        assert predict(gp, query).mean == pytest.approx(expected, abs=1e-10)

    def test_conflicting_duplicate_labels_cancel(self):
        spec = KernelSpec(RBF)
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        gp = fit_regression(spec, Dataset(X, np.array([1.0, -1.0])), jitter=1e-6)
        assert abs(predict(gp, X[0]).mean) < 1e-9

    def test_alpha_solves_training_system(self):
        spec, X, y, _ = random_regression_case(3)
        jitter = 1e-6
        gp = fit_regression(spec, Dataset(X, y), jitter)
        K = kernel_matrix(spec, X, X) + jitter * np.eye(len(X))
        assert np.max(np.abs(K @ gp.alpha - y)) < 1e-8

    def test_factorization_error_reports_pivot(self):
        # exactly singular system: duplicated point and vanishing jitter
        spec = KernelSpec(RBF)
        X = np.array([[0.0], [0.0]])
        with pytest.raises(FactorizationError) as err:
            fit_regression(spec, Dataset(X, np.array([1.0, -1.0])), jitter=1e-300)
        assert err.value.pivot == 2

    @pytest.mark.parametrize("jitter", [0.0, -1e-8, math.inf, math.nan])
    def test_jitter_must_be_positive_and_finite(self, jitter):
        # with an infinite jitter alpha is 0 and every prediction the prior's
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="jitter must be positive and finite"):
            fit_regression(KernelSpec(RBF), Dataset(X, np.array([1.0, -1.0])), jitter=jitter)

    def test_label_flip_flips_means(self):
        spec, X, y, query = random_regression_case(11)
        gp = fit_regression(spec, Dataset(X, y), 1e-8)
        flipped = fit_regression(spec, Dataset(X, -y), 1e-8)
        assert predict(gp, query).mean == pytest.approx(-predict(flipped, query).mean, abs=1e-10)


# signed zeros, both sides of exp's overflow at -x = log(DBL_MAX), a link
# that is subnormal (x = -709), and the ends of the float line
LOGISTIC_EDGES = [
    0.0,
    -0.0,
    -709.0,
    709.782712893384,
    -709.782712893384,
    math.nextafter(-709.782712893384, -math.inf),
    745.0,
    -745.0,
    -745.2,
    1e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
]


def logistic_by_element(x):
    """1 / (1 + exp(-x)) with the C library's exp, one Python float at a
    time; an exp that overflows is infinite."""

    def link(v):
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            return 0.0

    return np.array([link(v) for v in np.ravel(x).tolist()], dtype=float).reshape(np.shape(x))


class TestLogistic:
    @settings(derandomize=True)
    @given(values=st.lists(st.floats(), max_size=40))
    def test_matches_expit_and_the_formula_bit_for_bit(self, values):
        x = np.array(values + LOGISTIC_EDGES)
        got = gp_module._logistic(x).tobytes()
        assert got == expit(x).tobytes()
        assert got == logistic_by_element(x).tobytes()

    @pytest.mark.parametrize(
        "x",
        [0.3, -800.0, np.float64(2.5), np.array(-1.5), np.zeros(0), np.array(LOGISTIC_EDGES)],
        ids=["float", "overflowing-float", "numpy-scalar", "0-d", "empty", "edges"],
    )
    def test_keeps_the_shape_of_every_input(self, x):
        got = gp_module._logistic(x)
        assert np.shape(got) == np.shape(x)
        assert np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(expit(x)).tobytes()

    def test_class_probability_is_the_link_of_the_mean(self):
        data = generate_two_moons(30, 0.2, 0)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.5), data)
        p = predict(gp, np.array([0.2, 0.1]))
        assert p.class_probability == expit(p.mean)


class TestFitClassification:
    def test_separated_blobs_train_accuracy(self):
        data = generate_blobs(40, 2, 10.0, 0)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=1.0), data)
        assert accuracy(gp, data)["accuracy"] == 1.0
        assert np.all(np.sign(gp.latent_mode) == data.labels)

    def test_symmetric_midpoint_probability(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_classification_laplace(KernelSpec(RBF), ds)
        p = predict(gp, np.array([0.0, 0.0]))
        assert p.class_probability == pytest.approx(0.5, abs=1e-9)

    def test_zero_iterations_gives_prior(self):
        ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        gp = fit_classification_laplace(KernelSpec(RBF), ds, max_iter=0)
        assert np.array_equal(gp.latent_mode, [0.0, 0.0])
        assert predict(gp, np.array([0.4])).class_probability == 0.5

    def test_one_class_data_rejected(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fit_classification_laplace(KernelSpec(RBF), ds)

    def test_objective_never_decreases(self):
        data = generate_two_moons(60, 0.2, 1)
        history = []
        fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), data, objective_history=history)
        assert len(history) > 2
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(history[:-1])))

    def test_mode_is_fixed_point(self):
        data = generate_two_moons(40, 0.1, 2)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.5), data, tol=1e-12)
        # latent mean at a training point reproduces the mode
        reproduced = np.array([latent_mean(gp, x) for x in data.features])
        assert np.max(np.abs(reproduced - gp.latent_mode)) < 1e-6


class TestTrainedGP:
    @pytest.mark.parametrize("field", ["alpha", "latent_mode"])
    def test_weights_of_the_wrong_length_refused(self, field):
        # each weight vector holds one entry per training row
        data = generate_two_moons(20, 0.1, 0)
        weights = {"alpha": np.zeros(20), "latent_mode": np.zeros(20), field: np.zeros(3)}
        with pytest.raises(ValueError, match=re.escape(f"{field} has shape (3,), expected (20,)")):
            TrainedGP(KernelSpec(RBF), data, weights["alpha"], 1e-6, weights["latent_mode"])

    def test_fits_share_their_dataset_and_mode_follows_latent_mode(self):
        data = generate_two_moons(20, 0.1, 0)
        regression = fit_regression(KernelSpec(RBF), data)
        classification = fit_classification_laplace(KernelSpec(RBF), data)
        assert regression.data is data and classification.data is data
        assert regression.latent_mode is None and regression.mode == REGRESSION
        assert classification.latent_mode is not None and classification.mode == CLASSIFICATION


class TestPredict:
    def test_far_query_returns_to_prior(self):
        spec = KernelSpec(RBF, lengthscale=0.5, variance=1.7)
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(spec, ds, 1e-8)
        p = predict(gp, np.array([10.0, 0.0]))  # 20 lengthscales out
        assert abs(p.mean) < 1e-10
        assert p.variance == pytest.approx(1.7, abs=1e-6)

    def test_training_point_mean_near_label(self):
        spec = KernelSpec(RBF)
        ds = Dataset(np.array([[0.0], [3.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(spec, ds, 1e-9)
        assert predict(gp, np.array([0.0])).mean == pytest.approx(1.0, abs=1e-6)

    def test_three_point_system_matches_dense_inverse(self):
        spec, X, y, query = random_regression_case(5, max_n=3)
        jitter = 1e-7
        gp = fit_regression(spec, Dataset(X, y), jitter)
        mean, variance = dense_inverse_prediction(spec, X, y, jitter, query)
        p = predict(gp, query)
        assert p.mean == pytest.approx(mean, abs=1e-9)
        assert p.variance == pytest.approx(variance, abs=1e-9)

    def test_oracle_equivalence_small_systems(self):
        for seed in range(40):
            spec, X, y, query = random_regression_case(seed)
            jitter = 1e-6
            gp = fit_regression(spec, Dataset(X, y), jitter)
            mean, variance = dense_inverse_prediction(spec, X, y, jitter, query)
            p = predict(gp, query)
            assert abs(p.mean - mean) < 1e-9
            assert abs(p.variance - variance) < 1e-9

    def test_variance_clamped_and_small_at_training_points(self):
        spec, X, y, _ = random_regression_case(21)
        jitter = 1e-6
        gp = fit_regression(spec, Dataset(X, y), jitter)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-4, 4, size=(50, X.shape[1])):
            assert predict(gp, x).variance >= 0.0
        for x in X:
            assert predict(gp, x).variance <= 10 * jitter

    def test_dimension_mismatch(self):
        gp = fit_regression(KernelSpec(RBF), Dataset(np.array([[0.0, 1.0]]), np.array([1.0])), 1e-8)
        with pytest.raises(ValueError):
            predict(gp, np.array([1.0]))


class TestQueryPointShape:
    @pytest.mark.parametrize("entry_point", [latent_mean, latent_gradient, predict], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x", [0.5, [[0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]], ids=["scalar", "1xd", "2xd"])
    def test_only_a_vector_is_a_query_point(self, entry_point, x):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        with pytest.raises(ValueError, match="expected a 1-D query point"):
            entry_point(gp, np.array(x))


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteQueries:
    @pytest.fixture
    def gp(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        return fit_classification_laplace(KernelSpec(RBF, lengthscale=0.5), ds)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_single_point_entry_points_raise(self, gp, bad, column):
        x = np.zeros(2)
        x[column] = bad
        for entry_point in (latent_mean, latent_gradient, predict):
            with pytest.raises(ValueError, match="not finite"):
                entry_point(gp, x)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_batch_entry_points_name_the_row(self, gp, bad):
        X = np.zeros((3, 2))
        X[2, 1] = bad
        for entry_point in (latent_mean_batch, predict_batch):
            with pytest.raises(ValueError, match="query row 2 is not finite"):
                entry_point(gp, X)

    def test_finite_extremes_still_answer(self, gp):
        # a finite query far from every training point gets the prior mean 0
        assert latent_mean_batch(gp, np.array([[1e6, 0.0]]))[0] == 0.0
        assert np.all(latent_gradient(gp, np.array([1e6, 0.0])) == 0.0)


class TestRejection:
    def test_policy_arithmetic(self):
        policy = RejectionPolicy(0.3, 0.3)
        assert policy.mask(0.0)
        assert not policy.mask(0.8)  # 0.8 > 0.7
        assert policy.mask(0.65)  # 0.65 <= 0.7
        assert policy.mask(0.7)  # boundary included
        assert not policy.mask(-0.9)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RejectionPolicy(0.0, 0.3)
        with pytest.raises(ValueError):
            RejectionPolicy(0.3, 1.0)
        with pytest.raises(ValueError):
            ZeroRejection(-1e-3)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
                ZeroRejection(eps)

    def test_through_model(self):
        # single +1 anchor: latent mean at distance r is k(r)/(1 + jitter)
        spec = KernelSpec(RBF)
        gp = fit_regression(spec, Dataset(np.zeros((1, 2)), np.array([1.0])), 1e-12)
        policy = RejectionPolicy(0.3, 0.3)
        x_high = np.array([np.sqrt(-2.0 * np.log(0.8)), 0.0])  # mean ~ 0.8
        x_mid = np.array([np.sqrt(-2.0 * np.log(0.65)), 0.0])  # mean ~ 0.65
        means = latent_mean_batch(gp, np.array([x_high, x_mid, [50.0, 0.0]]))
        assert policy.labels(means).tolist() == [1, REJECT, REJECT]

    @settings(max_examples=80, deadline=None)
    @given(
        mean=st.floats(min_value=-1.5, max_value=1.5),
        tau0=st.floats(min_value=0.01, max_value=0.99),
        tau1=st.floats(min_value=0.01, max_value=0.99),
        shrink0=st.floats(min_value=0.0, max_value=0.9),
        shrink1=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_band_grows_as_thresholds_shrink(self, mean, tau0, tau1, shrink0, shrink1):
        # smaller taus (equivalently a larger rho) only ever widen the band
        wide = RejectionPolicy(tau0 * (1 - shrink0), tau1 * (1 - shrink1))
        if RejectionPolicy(tau0, tau1).mask(mean):
            assert wide.mask(mean)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        tau0=st.floats(min_value=0.01, max_value=0.99),
        tau1=st.floats(min_value=0.01, max_value=0.99),
        eps=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_vectorised_labels_match_scalar_rules(self, data, tau0, tau1, eps):
        edges = [-1.0 + tau0, 1.0 - tau1, 0.0, -0.0, eps, -eps]
        drawn = data.draw(st.lists(st.sampled_from(edges) | st.floats(min_value=-2.0, max_value=2.0), max_size=20))
        means = edges + drawn

        def sign_label(m):
            return 1 if m > 0 else -1

        band = [REJECT if -1.0 + tau0 <= m <= 1.0 - tau1 else sign_label(m) for m in means]
        zero = [REJECT if abs(m) < eps or m == 0.0 else sign_label(m) for m in means]
        for policy, expected in ((RejectionPolicy(tau0, tau1), band), (ZeroRejection(eps), zero)):
            assert policy.labels(np.array(means)).tolist() == expected
            assert [bool(policy.mask(m)) for m in means] == [label == REJECT for label in expected]

    def test_zero_rejection(self):
        spec = KernelSpec(RBF)
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(spec, ds, 1e-8)
        assert ZeroRejection().labels(latent_mean(gp, np.array([10.0, 0.0]))) == REJECT
        assert ZeroRejection(1e-3).labels(latent_mean(gp, np.array([0.1, 0.0]))) == 1

    def test_zero_eps_only_rejects_exact_zero(self):
        ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        assert ZeroRejection(0.0).labels(latent_mean(gp, np.array([0.9]))) == 1
        # a zero-iteration classifier has an exactly zero latent mean
        prior = fit_classification_laplace(KernelSpec(RBF), ds, max_iter=0)
        assert ZeroRejection(0.0).labels(latent_mean(prior, np.array([0.9]))) == REJECT


class TestLatentGradient:
    def test_symmetric_pair_points_toward_positive(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        grad = latent_gradient(gp, np.array([0.0, 0.5]))
        assert grad[0] > 0  # toward the +1 anchor
        assert abs(grad[1]) < 1e-12

    def test_far_query_vanishes(self):
        ds = Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.4), ds, 1e-8)
        assert np.linalg.norm(latent_gradient(gp, np.array([8.0, 0.0]))) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, size=(5, 3))
        y = np.where(rng.random(5) > 0.5, 1.0, -1.0)
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.9), Dataset(X, y), 1e-8)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            grad = latent_gradient(gp, x)
            fd = np.zeros(3)
            for j in range(3):
                up, down = x.copy(), x.copy()
                up[j] += 1e-5
                down[j] -= 1e-5
                fd[j] = (predict(gp, up).mean - predict(gp, down).mean) / 2e-5
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10) < 1e-5


class TestDecisionGrid:
    def test_resolution_two_hits_corners(self):
        ds = Dataset(np.array([[0.2, 0.2]]), np.array([1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        grid = decision_grid(gp, ((0.0, 1.0), (0.0, 1.0)), 2)
        assert grid.points.shape == (4, 2)
        assert {tuple(p) for p in grid.points} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_antisymmetric_mean_field(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-10)
        grid = decision_grid(gp, ((-2.0, 2.0), (-1.0, 1.0)), 21)
        means = grid.means.reshape(21, 21)
        assert np.max(np.abs(means + means[::-1, :])) < 1e-9

    def test_two_moons_short_lengthscale_rejects_somewhere(self):
        data = generate_two_moons(80, 0.1, 0)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.15), data)
        grid = decision_grid(gp, ((-3.0, 4.0), (-3.0, 3.5)), 25, RejectionPolicy(0.5, 0.5))
        assert (grid.labels == REJECT).sum() > 0

    def test_requires_2d(self):
        ds = Dataset(np.array([[0.0]]), np.array([1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        with pytest.raises(ValueError):
            decision_grid(gp, ((0, 1), (0, 1)), 2)

    def test_csv_schema(self, tmp_path):
        ds = Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
        gp = fit_regression(KernelSpec(RBF), ds, 1e-8)
        path = tmp_path / "grid.csv"
        decision_grid(gp, ((0, 1), (0, 1)), 3).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,label,mean,variance"
        assert len(lines) == 10


class TestAccuracy:
    def test_perfect_fit(self):
        data = generate_blobs(30, 2, 8.0, 1)
        gp = fit_classification_laplace(KernelSpec(RBF), data)
        result = accuracy(gp, data)
        assert result == {"accuracy": 1.0, "reject_rate": 0.0}

    def test_all_rejected(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.3), ds, 1e-8)
        far = Dataset(np.array([[30.0, 0.0], [40.0, 0.0]]), np.array([1.0, -1.0]))
        result = accuracy(gp, far, RejectionPolicy(0.1, 0.1))
        assert result == {"accuracy": 0.0, "reject_rate": 1.0}

    def test_two_moons_reference_quality(self):
        data = generate_two_moons(200, 0.1, 5)
        train, test = split(data, 0.5, 7)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.3), train)
        assert accuracy(gp, test)["accuracy"] >= 0.95

    def test_zero_rejection_accuracy(self):
        ds = Dataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([1.0, -1.0]))
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.3), ds, 1e-8)
        mixed = Dataset(np.array([[0.0, 0.0], [30.0, 0.0]]), np.array([1.0, -1.0]))
        result = accuracy(gp, mixed, 1e-3)
        assert result["reject_rate"] == 0.5
        assert result["accuracy"] == 0.5
        assert accuracy(gp, mixed, ZeroRejection(1e-3)) == result


class TestSerialization:
    def test_round_trip_regression(self, tmp_path):
        spec, X, y, query = random_regression_case(17)
        gp = fit_regression(spec, Dataset(X, y), 1e-7)
        path = tmp_path / "model.json"
        save_gp(gp, path)
        loaded = load_gp(path)
        assert predict(loaded, query) == predict(gp, query)

    def test_round_trip_one_row_regression(self, tmp_path):
        # a 1 x 1 Gram matrix is Fortran-ordered too: load_gp's check must
        # read it unfactored
        gp = fit_regression(KernelSpec(RBF, lengthscale=0.5), Dataset(np.array([[0.3, -0.2]]), np.array([1.0])))
        path = tmp_path / "model.json"
        save_gp(gp, path)
        loaded = load_gp(path)
        assert predict(loaded, [0.1, 0.4]) == predict(gp, [0.1, 0.4])

    def test_round_trip_classification(self, tmp_path):
        data = generate_two_moons(40, 0.15, 3)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), data)
        path = tmp_path / "model.json"
        save_gp(gp, path)
        loaded = load_gp(path)
        q = np.array([0.5, 0.2])
        assert predict(loaded, q) == predict(gp, q)
        assert loaded.mode == CLASSIFICATION

    @staticmethod
    def corrupted(tmp_path, edit):
        data = generate_two_moons(40, 0.15, 3)
        gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), data)
        path = tmp_path / "model.json"
        save_gp(gp, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_truncated_alpha_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda p: p.update(alpha=p["alpha"][:-1]))
        with pytest.raises(ValueError, match="alpha has shape"):
            load_gp(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda p: p["train_features"][3].__setitem__(1, float("nan")))
        with pytest.raises(ValueError, match="non-finite"):
            load_gp(path)

    @pytest.mark.parametrize("lengthscale", [math.nan, [0.4, math.nan]])
    def test_nan_lengthscale_rejected_by_name(self, tmp_path, lengthscale):
        # the spec check runs first, before the alpha residual could fail on it
        path = self.corrupted(tmp_path, lambda p: p["spec"].update(lengthscale=lengthscale))
        with pytest.raises(ValueError, match="lengthscale.* finite"):
            load_gp(path)

    def test_label_outside_pm_one_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda p: p["train_labels"].__setitem__(0, 0.5))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            load_gp(path)

    def test_infinite_jitter_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda p: p.update(jitter=math.inf))
        with pytest.raises(ValueError, match="jitter must be positive and finite"):
            load_gp(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda p: p.update(mode="ranking"))
        with pytest.raises(ValueError, match="unknown mode"):
            load_gp(path)

    def test_swapped_mode_rejected(self, tmp_path):
        # classification weights do not solve the regression system
        path = self.corrupted(tmp_path, lambda p: p.update(mode="regression", latent_mode=None))
        with pytest.raises(ValueError, match="does not reproduce"):
            load_gp(path)

    def test_alpha_of_another_model_rejected(self, tmp_path):
        other = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.8), generate_two_moons(40, 0.15, 3))
        path = self.corrupted(tmp_path, lambda p: p.update(alpha=other.alpha.tolist()))
        with pytest.raises(ValueError, match="does not reproduce"):
            load_gp(path)


@pytest.fixture
def dpotrf_calls(monkeypatch):
    """The number of Cholesky factorizations gp has made since the test
    began, counted on `gp.dpotrf`, the name the benchmark tracer wraps."""
    calls = []
    real = gp_module.dpotrf

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(gp_module, "dpotrf", counting)
    return lambda: len(calls)


MOONS = generate_two_moons(40, 0.15, 3)
FITS = {
    "regression": lambda: fit_regression(KernelSpec(RBF, lengthscale=0.4), MOONS, 1e-6),
    "classification": lambda: fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), MOONS),
}


class TestFactorOnFirstUse:
    def test_laplace_fit_factors_once_per_newton_iteration(self, dpotrf_calls):
        history = []
        fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), MOONS, objective_history=history)
        # one objective before the loop and one per accepted Newton step
        assert dpotrf_calls() == len(history) - 1 > 1
        fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), MOONS, max_iter=3)
        assert dpotrf_calls() == len(history) - 1 + 3
        fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), MOONS, max_iter=0)
        assert dpotrf_calls() == len(history) - 1 + 3

    @pytest.mark.parametrize("mode", FITS)
    def test_only_a_variance_builds_the_factor(self, dpotrf_calls, mode):
        gp = FITS[mode]()
        fitted = dpotrf_calls()
        q = np.array([0.5, 0.2])
        latent_mean_batch(gp, MOONS.features)
        accuracy(gp, MOONS)
        latent_mean(gp, q)
        latent_gradient(gp, q)
        assert dpotrf_calls() == fitted
        first = predict(gp, q)
        assert dpotrf_calls() == fitted + 1
        assert predict(gp, q) == first
        predict_batch(gp, MOONS.features)
        assert dpotrf_calls() == fitted + 1
        for array in gp.factor:
            assert array is None or not array.flags.writeable

    @pytest.mark.parametrize("mode", FITS)
    def test_a_loaded_model_factors_on_its_first_variance(self, tmp_path, dpotrf_calls, mode):
        gp = FITS[mode]()
        path = tmp_path / "model.json"
        save_gp(gp, path)
        before = dpotrf_calls()
        loaded = load_gp(path)
        accuracy(loaded, MOONS)
        assert dpotrf_calls() == before
        predict(loaded, [0.5, 0.2])
        assert dpotrf_calls() == before + 1
        for mine, theirs in zip(loaded.factor, gp.factor):
            assert (mine is None and theirs is None) or np.array_equal(mine, theirs)

    @pytest.mark.parametrize("mode", FITS)
    def test_a_fresh_model_answers_threads_as_it_answers_one(self, mode):
        # Python 3.12 dropped cached_property's lock: two threads may then
        # build the factor at once, and both builds are equal
        queries = np.random.default_rng(5).uniform(-1.5, 2.5, size=(64, 2))
        serial = ModelOracle.from_gp(FITS[mode]())
        expected = [serial.query(q) for q in queries]
        oracle = ModelOracle.from_gp(FITS[mode]())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(oracle.query, queries, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)
        assert oracle.query_count == serial.query_count == len(queries)
