"""The kernels and fits that build their results in place give the bits of
the out-of-place expressions they replaced, with scalar and per-dimension
RBF lengthscales. The extraction lengthscale path's Gram matrices equal
kernel_matrix's, a fit on one equals the fit without it, and no buffer a
fit or the path reuses leaks into a model. A model's factor is built in its
Gram matrix's buffer and a prediction solves in its query block's buffer,
with the bits of the copying formulas and no n x n or R x n copy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from gpattack.data import Dataset
from gpattack.extraction import _LengthscalePath
from gpattack.gp import _jittered_gram, _laplace_factor, fit_classification_laplace, fit_regression, predict_batch
from gpattack.kernels import (
    RBF,
    KernelSpec,
    _kernel_gradient_block,
    kernel_matrix,
    scaled_sq_distances,
    self_similarity,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def lengthscales(draw, d):
    """A scalar RBF lengthscale, or one per dimension."""
    if draw(st.booleans()):
        return draw(st.floats(0.05, 5.0))
    return tuple(draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d)))


@st.composite
def point_sets(draw):
    """Training rows with both labels, query rows, and 1-4 RBF specs on them."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    variance = draw(st.floats(0.25, 4.0))
    specs = [
        KernelSpec(RBF, lengthscale=ls, variance=variance)
        for ls in draw(st.lists(lengthscales(d), min_size=1, max_size=4))
    ]
    return Dataset(X, y), rng.uniform(-3.0, 3.0, size=(m, d)), specs


def chol(matrix):
    """The lower factor of a copy of `matrix`."""
    return dpotrf(matrix, lower=1)[0]


def arrays(gp) -> dict:
    """The model's fitted arrays and its derived factor, by name, leaving out
    those the model's mode does not have."""
    lower, sqrt_w = gp.factor
    named = {"alpha": gp.alpha, "latent_mode": gp.latent_mode, "chol": lower, "sqrt_w": sqrt_w}
    return {name: value for name, value in named.items() if value is not None}


def same_model(a, b) -> bool:
    """Every array of the two models is equal."""
    a, b = arrays(a), arrays(b)
    return a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)


def fit(spec, data, mode):
    return fit_regression(spec, data, 1e-8) if mode == "regression" else fit_classification_laplace(spec, data)


def copying_prediction(gp, X):
    """predict_batch's means and variances by the formula that copies k*."""
    chol_l, sw = gp.factor
    k = kernel_matrix(gp.spec, X, gp.data.features)
    v = solve_triangular(chol_l, k.T if sw is None else sw[:, None] * k.T, lower=True)
    return k @ gp.alpha, np.maximum(self_similarity(gp.spec, X) - (v**2).sum(0), 0.0)


def traced_peak(call):
    """call()'s result and the most memory it held at once beyond what was
    allocated before it, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@SETTINGS
@given(point_sets())
def test_rbf_block_equals_the_distance_formula(case):
    data, queries, specs = case
    spec = specs[0]
    ls = spec.lengthscales(data.d)
    sq = sum(((queries[:, j, None] - data.features[None, :, j]) / ls[j]) ** 2 for j in range(data.d))
    assert np.array_equal(scaled_sq_distances(spec, queries, data.features), sq)
    assert np.array_equal(kernel_matrix(spec, queries, data.features), spec.variance * np.exp(-0.5 * sq))


@st.composite
def gradient_cases(draw):
    """Training rows, 0-5 query rows of which some may equal training rows,
    and an RBF spec, in d = 1-9."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 9))
    m = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Q = rng.uniform(-3.0, 3.0, size=(m, d))
    coincident = draw(st.lists(st.integers(0, n - 1), max_size=m))
    Q[: len(coincident)] = X[coincident]
    return X, Q, KernelSpec(RBF, lengthscale=draw(lengthscales(d)), variance=draw(st.floats(0.25, 4.0)))


@SETTINGS
@given(gradient_cases())
def test_gradient_block_equals_the_closed_form(case):
    # bytes, not np.array_equal, so a coincident point's -0.0 must stay -0.0
    X, Q, spec = case
    k = kernel_matrix(spec, Q, X) if len(Q) else np.empty((0, len(X)))
    reference = k[:, :, None] * (-(Q[:, None, :] - X) / spec.lengthscales(X.shape[1]) ** 2)
    for block in (_kernel_gradient_block(spec, Q, X), _kernel_gradient_block(spec, Q, X, k)):
        assert block.shape == reference.shape
        assert block.tobytes() == reference.tobytes()


@SETTINGS
@given(point_sets(), st.floats(1e-10, 1e-4))
def test_regression_fit_equals_the_copying_solve(case, jitter):
    data, _, specs = case
    spec = specs[0]
    K = _jittered_gram(spec, data.features, jitter)
    gp = fit_regression(spec, data, jitter)
    assert np.array_equal(gp.factor[0], chol(K))
    assert np.array_equal(gp.alpha, cho_solve((chol(K), True), data.labels))


@SETTINGS
@given(point_sets())
def test_laplace_factor_equals_the_copying_factor(case):
    data, _, specs = case
    spec = specs[0]
    gp = fit_classification_laplace(spec, data)
    K = _jittered_gram(spec, data.features, gp.jitter)
    chol_b, sqrt_w = gp.factor
    B = sqrt_w[:, None] * K * sqrt_w[None, :] + np.eye(data.n)
    assert np.array_equal(chol_b, chol(B))


@SETTINGS
@given(point_sets(), st.integers(1, 40), st.sampled_from(["regression", "classification"]), st.integers(0, 2**32 - 1))
def test_prediction_equals_the_copying_formula(case, rows, mode, seed):
    data, _, specs = case
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows, data.d))
    gp = fit(specs[0], data, mode)
    means, variances = predict_batch(gp, X)
    expected_means, expected_variances = copying_prediction(gp, X)
    assert np.array_equal(means, expected_means)
    assert np.array_equal(variances, expected_variances)


@SETTINGS
@given(point_sets())
def test_factor_in_the_gram_buffer_equals_the_copying_factor(case):
    data, _, specs = case
    gp = fit_classification_laplace(specs[0], data)
    K = _jittered_gram(gp.spec, data.features, gp.jitter)
    expected = _laplace_factor(K.copy(), gp.latent_mode)
    in_place = _laplace_factor(K, gp.latent_mode, out=K.T)
    assert np.shares_memory(in_place[3], K)
    for got, want in zip(in_place, expected):
        assert np.array_equal(got, want)
    assert np.array_equal(gp.factor[0], expected[3])
    assert np.array_equal(gp.factor[1], expected[2])


@pytest.mark.parametrize("mode", ["regression", "classification"])
def test_prediction_leaves_its_inputs_and_shares_no_memory(mode):
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    gp = fit(KernelSpec(RBF, lengthscale=0.7), Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0)), mode)
    queries = rng.uniform(-3.0, 3.0, size=(25, 2))
    kept_queries = queries.copy()
    kept = {name: np.copy(value) for name, value in arrays(gp).items()}
    first = predict_batch(gp, queries)
    second = predict_batch(gp, queries)
    assert np.array_equal(queries, kept_queries)
    assert all(np.array_equal(value, kept[name]) for name, value in arrays(gp).items())
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    for output in first:
        assert not any(np.shares_memory(output, value) for value in [queries, *arrays(gp).values()])


@pytest.mark.parametrize("mode", ["regression", "classification"])
def test_factor_and_prediction_make_no_large_copies(mode):
    # on 1-D points kernel_matrix allocates one block, which K then is; so
    # building the factor holds one n x n array and a prediction of R rows
    # one R x n array, beside some 130 kB of small arrays, where a copy of
    # either block would double it
    n, rows = 600, 400
    X = np.linspace(-2.0, 2.0, n)[:, None]
    gp = fit(KernelSpec(RBF, lengthscale=0.3), Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0)), mode)
    (chol_l, _), peak = traced_peak(lambda: gp.factor)
    assert peak < 1.5 * chol_l.nbytes
    queries = np.linspace(-2.5, 2.5, rows)[:, None]
    _, peak = traced_peak(lambda: predict_batch(gp, queries))
    assert peak < 1.5 * rows * n * 8


def test_models_keep_their_values_after_later_fits():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2.0, 2.0, size=(15, 2))
    data = Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0))
    first, second = KernelSpec(RBF, lengthscale=0.5), KernelSpec(RBF, lengthscale=2.0)
    path = _LengthscalePath(data.features)
    models = [
        fit_regression(first, data, 1e-8),
        fit_classification_laplace(first, data),
        fit_regression(first, data, 1e-8, gram=path.gram(first)),
        fit_classification_laplace(first, data, gram=path.gram(first)),
    ]
    queries = rng.uniform(-3.0, 3.0, size=(7, 2))
    kept = [{name: np.copy(value) for name, value in arrays(gp).items()} for gp in models]
    predicted = [predict_batch(gp, queries) for gp in models]

    fit_regression(second, data, 1e-8)
    fit_classification_laplace(second, data)
    fit_regression(second, data, 1e-8, gram=path.gram(second))
    fit_classification_laplace(second, data, gram=path.gram(second))

    held = [*path._diffs, path._K, path._scratch]
    for gp, fields_kept, prediction in zip(models, kept, predicted):
        now = arrays(gp)
        assert now.keys() == fields_kept.keys()
        for name, copy in fields_kept.items():
            assert np.array_equal(now[name], copy)
            assert not now[name].flags.writeable
            assert not any(np.shares_memory(now[name], array) for array in held)
        assert all(np.array_equal(a, b) for a, b in zip(predict_batch(gp, queries), prediction))


@SETTINGS
@given(point_sets(), st.floats(1e-10, 1e-4))
def test_fits_on_the_path_grams_equal_the_fits(case, jitter):
    # one path serves every spec in turn, as in the scan and the sweeps
    data, _, specs = case
    path = _LengthscalePath(data.features)
    for spec in specs:
        assert np.array_equal(path.gram(spec), kernel_matrix(spec, data.features, data.features))
        assert same_model(fit_regression(spec, data, jitter, gram=path.gram(spec)), fit_regression(spec, data, jitter))
        assert same_model(
            fit_classification_laplace(spec, data, gram=path.gram(spec)), fit_classification_laplace(spec, data)
        )


def test_a_gram_of_another_shape_is_refused():
    data = Dataset(np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]]), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="gram has shape"):
        fit_regression(KernelSpec(RBF, lengthscale=1.0), data, gram=np.eye(2))
