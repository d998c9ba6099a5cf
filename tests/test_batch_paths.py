"""Every batch path answers each row exactly as its single-point path does:
latent means, predictions, oracle reads and secure-classifier decisions.
The one-point core behind latent_mean and latent_gradient matches its batch
paths bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gpattack.data import Dataset
from gpattack.extraction import ModelOracle
from gpattack.gp import (
    CLASSIFICATION,
    REGRESSION,
    _LatentPoint,
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
    mean_scales = np.abs(kernel_matrix(gp.spec, queries, gp.train_features)) @ np.abs(gp.alpha)
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
    sc = SecureClassifier(gp.train_features, gp.train_labels, rho)
    block = _secure_classify_batch(sc, spec, queries)
    rows = [_secure_classify_batch(sc, spec, x[None, :])[0] for x in queries]
    assert block.tolist() == rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(models_and_queries(per_dimension=True))
def test_latent_point_equals_batch_paths(case):
    gp, queries = case
    for x in queries:
        point = _LatentPoint(gp, x)
        gradient = gp.alpha @ kernel_gradient_x_batch(gp.spec, x, gp.train_features)
        assert point.mean == latent_mean_batch(gp, x[None])[0] == latent_mean(gp, x)
        assert np.array_equal(point.gradient(), gradient)
        assert np.array_equal(latent_gradient(gp, x), gradient)
