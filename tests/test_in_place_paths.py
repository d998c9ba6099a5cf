"""The kernels and fits that build their results in place give the bits of
the out-of-place expressions they replaced, with scalar and per-dimension
RBF lengthscales. The extraction lengthscale path's Gram matrices equal
kernel_matrix's, a fit on one equals the fit without it, and no buffer a
fit or the path reuses leaks into a model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from gpattack.data import Dataset
from gpattack.extraction import _LengthscalePath
from gpattack.gp import _jittered_gram, fit_classification_laplace, fit_regression
from gpattack.kernels import RBF, KernelSpec, _kernel_gradient_block, kernel_matrix, scaled_sq_distances

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


@SETTINGS
@given(point_sets())
def test_rbf_block_equals_the_distance_formula(case):
    data, queries, specs = case
    spec = specs[0]
    ls = spec.lengthscales(data.d)
    sq = sum(((queries[:, j, None] - data.features[None, :, j]) / ls[j]) ** 2 for j in range(data.d))
    assert np.array_equal(scaled_sq_distances(spec, queries, data.features), sq)
    assert np.array_equal(kernel_matrix(spec, queries, data.features), spec.variance * np.exp(-0.5 * sq))


@SETTINGS
@given(point_sets())
def test_gradient_block_equals_the_closed_form(case):
    data, queries, specs = case
    spec = specs[0]
    k = kernel_matrix(spec, queries, data.features)
    ls = spec.lengthscales(data.d)
    reference = k[:, :, None] * (-(queries[:, None, :] - data.features) / ls**2)
    assert np.array_equal(_kernel_gradient_block(spec, queries, data.features), reference)


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
    kept = [{name: np.copy(value) for name, value in arrays(gp).items()} for gp in models]

    fit_regression(second, data, 1e-8)
    fit_classification_laplace(second, data)
    fit_regression(second, data, 1e-8, gram=path.gram(second))
    fit_classification_laplace(second, data, gram=path.gram(second))

    held = [*path._diffs, path._K, path._scratch]
    for gp, fields_kept in zip(models, kept):
        now = arrays(gp)
        assert now.keys() == fields_kept.keys()
        for name, copy in fields_kept.items():
            assert np.array_equal(now[name], copy)
            assert not now[name].flags.writeable
            assert not any(np.shares_memory(now[name], array) for array in held)


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
