"""Every batch path answers each row exactly as its single-point path does:
latent means, predictions, oracle reads and secure-classifier decisions.
The row-block core behind latent_mean, latent_gradient and the attacks
matches the one-point paths bit for bit, and each attack block matches its
one-point call and a one-point loop reference bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gpattack.data import Dataset
from gpattack.evasion import (
    CW_RESTARTS,
    AttackConfig,
    cw_l2,
    cw_l2_batch,
    gpfgs,
    gpfgs_batch,
    gpjm,
    gpjm_batch,
)
from gpattack.extraction import ModelOracle
from gpattack.gp import (
    CLASSIFICATION,
    REGRESSION,
    _latent_gradients,
    _latent_rows,
    fit_classification_laplace,
    fit_regression,
    latent_gradient,
    latent_mean,
    latent_mean_batch,
    predict,
    predict_batch,
)
from gpattack.kernels import FAMILIES, RBF, KernelSpec, kernel_gradient_x_batch, kernel_matrix, self_similarity
from gpattack.secure import SecureClassifier, _secure_classify_batch

# Batch and single paths may sum in different orders, so they agree to
# round-off, not bit for bit. A mean is compared relative to sum_i |k_i alpha_i|
# and a variance relative to the prior k(x, x); on 3,000 random models of
# every family and mode the worst observed differences were 1e-15 and 4e-14.
RTOL = 1e-10


@st.composite
def models_and_queries(draw, per_dimension=False):
    """A small fitted model of any family and mode, plus a block of queries.
    With `per_dimension`, an RBF lengthscale may also be one value per
    dimension."""
    family = draw(st.sampled_from(FAMILIES))
    mode = draw(st.sampled_from((REGRESSION, CLASSIFICATION)))
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    lengthscale = draw(st.floats(0.2, 3.0))
    if per_dimension and family == RBF and draw(st.booleans()):
        lengthscale = tuple(draw(st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    spec = KernelSpec(family, lengthscale=lengthscale, degree=draw(st.integers(1, 3)))
    data = Dataset(X, y)
    gp = fit_regression(spec, data) if mode == REGRESSION else fit_classification_laplace(spec, data)
    return gp, rng.uniform(-3.0, 3.0, size=(m, d))


def assert_close(single, batch, scale=1.0):
    assert abs(single - batch) <= RTOL * scale


@settings(derandomize=True, deadline=None, max_examples=60)
@given(models_and_queries())
def test_batch_rows_match_single_points(case):
    gp, queries = case
    means = latent_mean_batch(gp, queries)
    batch_means, batch_variances = predict_batch(gp, queries)
    assert means.shape == batch_variances.shape == (len(queries),)
    oracle = ModelOracle.from_gp(gp)
    mean_scales = np.abs(kernel_matrix(gp.spec, queries, gp.data.features)) @ np.abs(gp.alpha)
    variance_scales = self_similarity(gp.spec, queries)
    rows = zip(queries, means, batch_means, batch_variances, mean_scales, variance_scales)
    for x, mean, batch_mean, batch_variance, mean_scale, variance_scale in rows:
        single = predict(gp, x)
        assert_close(latent_mean(gp, x), mean, mean_scale)
        assert_close(single.mean, batch_mean, mean_scale)
        assert_close(single.variance, batch_variance, variance_scale)
        if gp.mode == CLASSIFICATION:
            assert_close(single.class_probability, expit(single.mean))
        else:
            assert single.class_probability is None
        count = oracle.query_count
        oracle_mean, oracle_variance = oracle.query(x)
        assert oracle.query_count == count + 1
        assert_close(oracle_mean, single.mean, mean_scale)
        assert_close(oracle_variance, single.variance, variance_scale)
    with pytest.raises(ValueError, match="not finite"):
        oracle.query(np.full(gp.d, np.nan))
    assert oracle.query_count == len(queries)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(models_and_queries(), st.floats(0.01, 0.99))
def test_secure_block_matches_each_row(case, rho):
    gp, queries = case
    spec = KernelSpec(RBF, lengthscale=gp.spec.lengthscale)
    sc = SecureClassifier(gp.data.features, gp.data.labels, rho)
    block = _secure_classify_batch(sc, spec, queries)
    rows = [_secure_classify_batch(sc, spec, x[None, :])[0] for x in queries]
    assert block.tolist() == rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(models_and_queries(per_dimension=True))
def test_latent_rows_equal_batch_paths(case):
    gp, queries = case
    k, means = _latent_rows(gp, queries)
    gradients = _latent_gradients(gp, queries, k)
    for x, mean, gradient in zip(queries, means, gradients):
        expected = gp.alpha @ kernel_gradient_x_batch(gp.spec, x, gp.data.features)
        assert mean == latent_mean_batch(gp, x[None])[0] == latent_mean(gp, x)
        assert np.array_equal(gradient, expected)
        assert np.array_equal(latent_gradient(gp, x), expected)


def sign(value):
    return 1 if value > 0 else -1 if value < 0 else 0


def one_mean(gp, x):
    return float(latent_mean_batch(gp, x[None])[0])


def one_gradient(gp, x):
    return gp.alpha @ kernel_gradient_x_batch(gp.spec, x, gp.data.features)


# Loop references for the three attacks: one point at a time, cw_l2's restarts
# one after another, each step through the one-point mean and gradient. Each
# returns (adversarial, success, iterations_used).


def reference_gpfgs(gp, x, epsilon, lo, hi):
    label = sign(one_mean(gp, x))
    adversarial = np.clip(x - epsilon * label * np.sign(one_gradient(gp, x)), lo, hi)
    return adversarial, label != 0 and sign(one_mean(gp, adversarial)) == -label, 1


def reference_gpjm(gp, x, budget, step, lo, hi):
    label = sign(one_mean(gp, x))
    current = np.clip(x, lo, hi)
    untouched = np.ones(gp.d, dtype=bool)
    iterations = 0
    success = label != 0 and not np.array_equal(current, x) and sign(one_mean(gp, current)) == -label
    if label != 0 and not success:
        for _ in range(min(budget, gp.d)):
            grad = one_gradient(gp, current)
            saliency = np.where(untouched, np.abs(grad), -1.0)
            j = int(np.argmax(saliency))
            if saliency[j] <= 0:
                break
            current[j] = np.clip(current[j] - label * np.sign(grad[j]) * step, lo[j], hi[j])
            untouched[j] = False
            iterations += 1
            if sign(one_mean(gp, current)) == -label:
                success = True
                break
    return current, success, iterations


def reference_cw_l2(gp, x, config, seed, lo, hi):
    half_range = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    label = sign(one_mean(gp, x))
    rng = np.random.default_rng(seed)
    span = np.where(half_range > 0, half_range, 1.0)
    w0 = np.arctanh(np.clip((np.clip(x, lo, hi) - mid) / span, -1.0 + 1e-12, 1.0 - 1e-12))
    best_success = best_any = None

    def consider(candidate):
        nonlocal best_success, best_any
        m = one_mean(gp, candidate)
        dist_sq = float(((candidate - x) ** 2).sum())
        objective = dist_sq + config.confidence * max(label * m, 0)
        if label != 0 and sign(m) == -label and (best_success is None or dist_sq < best_success[0]):
            best_success = (dist_sq, candidate)
        if best_any is None or objective < best_any[0]:
            best_any = (objective, candidate)
        return m

    for restart in range(CW_RESTARTS):
        w = w0 if restart == 0 else w0 + rng.normal(0.0, 0.1, size=w0.shape)
        for _ in range(config.max_iter):
            t = np.tanh(w)
            candidate = mid + half_range * t
            m = consider(candidate)
            grad = 2.0 * (candidate - x)
            if label != 0 and label * m > 0:
                grad = grad + config.confidence * label * one_gradient(gp, candidate)
            w = w - config.step_size * grad * half_range * (1.0 - t**2)
        consider(mid + half_range * np.tanh(w))
    iterations = CW_RESTARTS * config.max_iter
    return (best_success[1], True, iterations) if best_success else (best_any[1], False, iterations)


def assert_same_result(result, other):
    assert result.original.tobytes() == other.original.tobytes()
    assert result.adversarial.tobytes() == other.adversarial.tobytes()
    assert result.success == other.success
    assert result.norms == other.norms
    assert result.iterations_used == other.iterations_used


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    models_and_queries(per_dimension=True),
    st.floats(0.0, 2.0),
    st.integers(1, 4),
    st.floats(0.01, 2.0),
    st.integers(1, 6),
    st.floats(0.001, 0.5),
    st.floats(0.0, 10.0),
    st.integers(0, 5),
)
def test_attack_rows_equal_one_point_attacks(case, epsilon, budget, step, max_iter, step_size, confidence, seed):
    # queries reach past the training data, so the default box clips some
    gp, queries = case
    lo, hi = gp.data.features.min(axis=0), gp.data.features.max(axis=0)
    config = AttackConfig(max_iter=max_iter, step_size=step_size, confidence=confidence)
    attacks = [
        (
            gpfgs_batch(gp, queries, epsilon),
            lambda x: gpfgs(gp, x, epsilon),
            lambda x: reference_gpfgs(gp, x, epsilon, lo, hi),
        ),
        (
            gpjm_batch(gp, queries, budget, step),
            lambda x: gpjm(gp, x, budget, step),
            lambda x: reference_gpjm(gp, x, budget, step, lo, hi),
        ),
        (
            cw_l2_batch(gp, queries, config, seed),
            lambda x: cw_l2(gp, x, config, seed),
            lambda x: reference_cw_l2(gp, x, config, seed, lo, hi),
        ),
    ]
    for block, one_point, reference in attacks:
        assert len(block) == len(queries)
        for x, row in zip(queries, block):
            assert_same_result(row, one_point(x))
            adversarial, success, iterations = reference(x)
            assert row.adversarial.tobytes() == adversarial.tobytes()
            assert (row.success, row.iterations_used) == (success, iterations)


def test_gpjm_block_with_every_row_inactive_from_the_start():
    # far from the data every kernel entry underflows to 0, so each mean is
    # exactly 0, has no sign, and every round differentiates at zero rows
    data = Dataset(np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0, 1.0]))
    gp = fit_classification_laplace(KernelSpec(RBF, lengthscale=(0.5, 0.7)), data)
    queries = np.array([[60.0, -50.0], [-70.0, 80.0], [90.0, 90.0]])
    assert not _latent_rows(gp, queries)[1].any()
    lo, hi = gp.data.features.min(axis=0), gp.data.features.max(axis=0)
    block = gpjm_batch(gp, queries, 2, 0.3)
    assert len(block) == len(queries)
    for x, row in zip(queries, block):
        assert_same_result(row, gpjm(gp, x, 2, 0.3))
        adversarial, success, iterations = reference_gpjm(gp, x, 2, 0.3, lo, hi)
        assert row.adversarial.tobytes() == adversarial.tobytes()
        assert (row.success, row.iterations_used) == (success, iterations) == (False, 0)


def test_attack_blocks_name_the_non_finite_row():
    gp = fit_classification_laplace(KernelSpec(RBF), Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0])))
    X = np.array([[0.2], [0.4], [np.inf]])
    for attack in (
        lambda: gpfgs_batch(gp, X, 0.1),
        lambda: gpjm_batch(gp, X, 1, 0.1),
        lambda: cw_l2_batch(gp, X, AttackConfig(max_iter=2)),
    ):
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            attack()
