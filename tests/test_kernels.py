import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky

from gpattack.kernels import (
    FAMILIES,
    LINEAR,
    POLY,
    RBF,
    KernelSpec,
    kernel_eval,
    kernel_gradient_x_batch,
    kernel_matrix,
    scaled_sq_distances,
    self_similarity,
)

# the least lengthscale whose square is a normal double
SMALLEST_LENGTHSCALE = math.sqrt(sys.float_info.min)


def reference_kernel(spec, x, x2):
    """Scalar closed forms, the reference for the batch kernel code."""
    if spec.family == RBF:
        z = ((x - x2) / spec.lengthscales(len(x))) ** 2
        return spec.variance * math.exp(-0.5 * z.sum())
    if spec.family == LINEAR:
        return spec.variance * x.dot(x2)
    return spec.variance * (x.dot(x2) + spec.offset) ** spec.degree


def reference_gradient(spec, x, x2):
    """Scalar closed forms of d k(x, x2) / dx."""
    if spec.family == RBF:
        return reference_kernel(spec, x, x2) * (-(x - x2) / spec.lengthscales(len(x)) ** 2)
    if spec.family == LINEAR:
        return spec.variance * x2
    return spec.variance * spec.degree * (x.dot(x2) + spec.offset) ** (spec.degree - 1) * x2


def finite_difference_gradient(spec, x, x2, step=1e-5):
    grad = np.zeros_like(x)
    for j in range(len(x)):
        up = x.copy()
        up[j] += step
        down = x.copy()
        down[j] -= step
        grad[j] = (kernel_eval(spec, up, x2) - kernel_eval(spec, down, x2)) / (2 * step)
    return grad


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("nope")
        with pytest.raises(ValueError):
            KernelSpec(RBF, lengthscale=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(RBF, variance=0.0)
        for degree in (0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="degree must be an integer"):
                KernelSpec(POLY, degree=degree)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("lengthscale", {"lengthscale": math.nan}),
            ("lengthscale", {"lengthscale": math.inf}),
            ("lengthscale", {"lengthscale": (1.0, math.nan)}),
            ("lengthscale", {"lengthscale": (math.inf, 2.0)}),
            ("variance", {"variance": math.nan}),
            ("variance", {"variance": math.inf}),
            ("offset", {"offset": math.nan}),
            ("offset", {"offset": -math.inf}),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, kwargs):
        # NaN passes every comparison check, so only a finiteness test stops it
        for family in FAMILIES:
            with pytest.raises(ValueError, match=f"{field}.* finite"):
                KernelSpec(family, **kwargs)

    @pytest.mark.parametrize("lengthscale", [1e-160, (1.0, 1e-160), math.nextafter(SMALLEST_LENGTHSCALE, 0.0)])
    def test_lengthscale_with_subnormal_square_rejected(self, lengthscale):
        # the RBF gradient divides by l^2, and a subnormal l^2 makes it inf * 0 = NaN
        for family in FAMILIES:
            with pytest.raises(ValueError, match="lengthscale.*normal double"):
                KernelSpec(family, lengthscale=lengthscale)

    @pytest.mark.parametrize("lengthscale", [1e-150, SMALLEST_LENGTHSCALE])
    def test_tiny_lengthscale_with_normal_square_accepted(self, lengthscale):
        spec = KernelSpec(RBF, lengthscale=lengthscale)
        X = np.array([[lengthscale, 0.0], [1.0, 1.0]])
        assert np.isfinite(kernel_gradient_x_batch(spec, np.zeros(2), X)).all()

    def test_per_dimension_lengthscale(self):
        spec = KernelSpec(RBF, lengthscale=(1.0, 2.0))
        assert np.array_equal(spec.lengthscales(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            spec.lengthscales(3)

    def test_json_round_trip(self):
        for spec in (
            KernelSpec(RBF, lengthscale=0.7, variance=2.0),
            KernelSpec(RBF, lengthscale=(1.0, 3.0)),
            KernelSpec(LINEAR, variance=0.5),
            KernelSpec(POLY, degree=3, offset=0.2),
        ):
            assert KernelSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


class TestKernelEval:
    def test_rbf_zero_distance(self):
        spec = KernelSpec(RBF, lengthscale=0.7, variance=3.0)
        x = np.array([1.0, -2.0])
        assert kernel_eval(spec, x, x) == pytest.approx(3.0)

    def test_rbf_unit_case(self):
        # squared distance 2 with unit lengthscale/variance gives exp(-1)
        spec = KernelSpec(RBF, lengthscale=1.0, variance=1.0)
        value = kernel_eval(spec, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_linear_dot(self):
        spec = KernelSpec(LINEAR)
        assert kernel_eval(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_poly(self):
        spec = KernelSpec(POLY, degree=2, offset=1.0, variance=1.0)
        assert kernel_eval(spec, np.array([1.0]), np.array([2.0])) == pytest.approx(9.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(RBF), np.array([1.0]), np.array([1.0, 2.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=2**31),
        d=st.integers(min_value=1, max_value=5),
    )
    def test_symmetry(self, family, seed, d):
        rng = np.random.default_rng(seed)
        spec = KernelSpec(family, lengthscale=float(rng.uniform(0.2, 3.0)), variance=float(rng.uniform(0.2, 3.0)))
        a, b = rng.normal(size=(2, d))
        assert kernel_eval(spec, a, b) == pytest.approx(kernel_eval(spec, b, a), rel=1e-12, abs=1e-12)

    def test_abation(self):
        # similarity is negligible twenty lengthscales out
        for l in (0.3, 1.0, 4.0):
            spec = KernelSpec(RBF, lengthscale=l, variance=1.0)
            a = np.zeros(2)
            b = np.array([20.0 * l, 0.0])
            assert kernel_eval(spec, a, b) < 1e-12

    def test_shorter_lengthscale_is_smaller(self):
        a = np.zeros(3)
        b = np.ones(3)
        values = [
            kernel_eval(KernelSpec(RBF, lengthscale=l), a, b)
            for l in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestKernelMatrix:
    def test_rbf_diagonal(self):
        spec = KernelSpec(RBF, variance=2.5)
        A = np.random.default_rng(0).normal(size=(6, 3))
        K = kernel_matrix(spec, A, A)
        assert np.allclose(np.diag(K), 2.5)
        assert np.max(np.abs(K - K.T)) < 1e-12
        assert np.all(K > 0) and np.all(K <= 2.5 + 1e-15)

    def test_duplicate_points(self):
        spec = KernelSpec(RBF, variance=1.5)
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert np.allclose(kernel_matrix(spec, A, A), 1.5)

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 2))
        B = rng.normal(size=(4, 2))
        for family in FAMILIES:
            spec = KernelSpec(family, lengthscale=0.8, variance=1.3)
            K = kernel_matrix(spec, A, B)
            expected = np.array([[reference_kernel(spec, a, b) for b in B] for a in A])
            assert np.allclose(K, expected, atol=1e-12)
            assert kernel_eval(spec, A[1], B[2]) == pytest.approx(expected[1, 2], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(KernelSpec(RBF), np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            kernel_matrix(KernelSpec(RBF), np.ones((0, 2)), np.ones((2, 2)))

    def test_jittered_cholesky_up_to_500(self):
        rng = np.random.default_rng(11)
        for n in (50, 500):
            A = rng.normal(size=(n, 4))
            K = kernel_matrix(KernelSpec(RBF, lengthscale=0.9), A, A)
            cholesky(K + 1e-6 * np.eye(n), lower=True)

    def test_self_similarity_matches_diag(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 3))
        for family in FAMILIES:
            spec = KernelSpec(family, variance=1.7, degree=3)
            assert np.allclose(self_similarity(spec, X), np.diag(kernel_matrix(spec, X, X)))


def reference_sq_distances(A, B, ls):
    """The broadcast n x m x d form, the reference for the per-dimension loop."""
    return (((A[:, None] - B[None]) / ls) ** 2).sum(-1)


class TestScaledSqDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=12),
        per_dimension=st.booleans(),
    )
    def test_matches_broadcast_form(self, seed, n, m, d, per_dimension):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1e3, 1e3, size=(n, d))
        B = rng.uniform(-1e3, 1e3, size=(m, d))
        lengthscale = tuple(rng.uniform(1e-2, 1e2, d)) if per_dimension else float(rng.uniform(1e-2, 1e2))
        spec = KernelSpec(RBF, lengthscale=lengthscale)
        got = scaled_sq_distances(spec, A, B)
        expected = reference_sq_distances(A, B, spec.lengthscales(d))
        if d <= 7:  # numpy's reduction adds in column order too
            assert np.array_equal(got, expected)
        else:  # numpy's reduction sums pairwise
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=12),
        per_dimension=st.booleans(),
    )
    def test_exactly_symmetric_when_a_is_b(self, seed, n, d, per_dimension):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, d)) * rng.uniform(0.1, 100)
        lengthscale = tuple(rng.uniform(0.05, 5.0, d)) if per_dimension else float(rng.uniform(0.05, 5.0))
        D = scaled_sq_distances(KernelSpec(RBF, lengthscale=lengthscale), A, A)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)


class TestKernelGradient:
    def test_rbf_zero_at_coincident_points(self):
        spec = KernelSpec(RBF)
        x = np.array([0.3, -0.7])
        assert np.allclose(kernel_gradient_x_batch(spec, x, x[None, :]), 0.0)

    def test_linear_gradient(self):
        spec = KernelSpec(LINEAR, variance=2.0)
        x2 = np.array([3.0, -1.0])
        assert np.allclose(kernel_gradient_x_batch(spec, np.array([0.5, 0.5]), x2[None, :])[0], 2.0 * x2)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        specs = [
            KernelSpec(RBF, lengthscale=0.6, variance=1.2),
            KernelSpec(RBF, lengthscale=(0.5, 2.0, 1.0)),
            KernelSpec(LINEAR, variance=0.7),
            KernelSpec(POLY, degree=3, offset=0.5, variance=1.1),
        ]
        for spec in specs:
            for _ in range(10):
                x, x2 = rng.normal(size=(2, 3))
                grad = kernel_gradient_x_batch(spec, x, x2[None, :])[0]
                fd = finite_difference_gradient(spec, x, x2)
                scale = max(np.linalg.norm(fd), 1e-8)
                assert np.linalg.norm(grad - fd) / scale < 1e-5

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3)
        X = rng.normal(size=(6, 3))
        for family in FAMILIES:
            spec = KernelSpec(family, lengthscale=1.4, degree=2)
            batch = kernel_gradient_x_batch(spec, x, X)
            for i in range(6):
                expected = reference_gradient(spec, x, X[i])
                assert np.allclose(batch[i], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_gradient_x_batch(KernelSpec(RBF), np.ones(2), np.ones((1, 3)))
