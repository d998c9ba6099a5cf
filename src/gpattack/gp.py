"""Gaussian process regression and Laplace-approximated binary classification.

Uses the standard Cholesky formulations (Rasmussen & Williams, 2006, ch. 2-3).
Classification finds the latent posterior mode by Newton iteration on the
logistic likelihood, with a step-halving line search so the unnormalized log
posterior never decreases. The "mean" handed to rejection rules and attack
gradients is always the latent (pre-link) mean; the logistic link only enters
through `class_probability`.

The logistic link has one home, the private `_logistic`, which the Laplace
fit, `predict` and the membership features share. It takes exp from the C
library through `math.exp`, as `scipy.special.expit` does, so it matches
`expit` bit for bit without importing `scipy.special`; numpy's vectorized exp
rounds differently in about 2% of inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .data import Dataset, frozen_array, write_json, write_lines
from .kernels import KernelSpec, _kernel_block, _kernel_gradient_block, kernel_matrix, self_similarity

__all__ = [
    "REGRESSION",
    "CLASSIFICATION",
    "REJECT",
    "FactorizationError",
    "NumericalError",
    "RejectionPolicy",
    "ZeroRejection",
    "Prediction",
    "TrainedGP",
    "DecisionGrid",
    "fit_regression",
    "fit_classification_laplace",
    "predict",
    "predict_batch",
    "latent_mean",
    "latent_mean_batch",
    "latent_gradient",
    "grid_points",
    "decision_grid",
    "accuracy",
    "save_gp",
    "load_gp",
]

REGRESSION = "regression"
CLASSIFICATION = "classification"

# Label returned by rejection-aware predictors when no class is assigned.
REJECT = 0


class FactorizationError(RuntimeError):
    """Cholesky factorization failed; `pivot` is the failing leading minor."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix not positive definite: leading minor {pivot} failed")
        self.pivot = pivot


class NumericalError(RuntimeError):
    """A non-finite value appeared; `iteration` locates the failure."""

    def __init__(self, iteration: int, what: str = "non-finite value"):
        super().__init__(f"{what} at iteration {iteration}")
        self.iteration = iteration


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of `matrix`, factored in place when it is a
    Fortran-ordered float matrix (its lower triangle then holds the factor)."""
    chol, info = dpotrf(matrix, lower=1, overwrite_a=True)
    if info != 0:
        raise FactorizationError(int(info))
    return chol


class _Rejection:
    """A rejection rule on latent means. Subclasses define `mask(means)`,
    True where a mean is rejected; every rejection-aware prediction in the
    package goes through `mask` or `labels`."""

    def labels(self, means) -> np.ndarray:
        """REJECT (0) where `mask` holds, else +1 for a positive mean and -1
        otherwise."""
        means = np.asarray(means, dtype=float)
        return np.where(self.mask(means), REJECT, np.where(means > 0, 1, -1))


@dataclass(frozen=True)
class RejectionPolicy(_Rejection):
    """Band rejection: reject a sample iff its latent mean m satisfies
    -1+tau0 <= m <= 1-tau1 (both edges rejected)."""

    tau0: float
    tau1: float

    def __post_init__(self):
        if not (0.0 < self.tau0 < 1.0 and 0.0 < self.tau1 < 1.0):
            raise ValueError("tau0 and tau1 must lie in (0, 1)")

    def mask(self, means) -> np.ndarray:
        means = np.asarray(means, dtype=float)
        return (-1.0 + self.tau0 <= means) & (means <= 1.0 - self.tau1)


@dataclass(frozen=True)
class ZeroRejection(_Rejection):
    """Zero-mean rejection: reject a sample iff |m| < eps, or m == 0 exactly.

    A latent mean near zero signals a query far from all training data. An
    exactly zero mean is rejected for any eps, since it has no sign.
    """

    eps: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"zero-rejection eps must be nonnegative and finite, got {self.eps!r}")

    def mask(self, means) -> np.ndarray:
        means = np.asarray(means, dtype=float)
        return (np.abs(means) < self.eps) | (means == 0.0)


@dataclass(frozen=True)
class Prediction:
    """Prediction at one point. `mean` is the latent (pre-link) mean
    K_x^T alpha; `class_probability` is its logistic link, present only for
    classification models."""

    mean: float
    variance: float
    class_probability: float | None = None


@dataclass(frozen=True, eq=False)
class TrainedGP:
    """Immutable fitted model: only what its fit decides.

    `alpha` are the representer weights: the latent mean at x is
    K(x, train)^T alpha, with K built with `jitter` added to its diagonal.
    `latent_mode` is the latent posterior mode for classification and None
    for regression. `factor` derives from these fields.
    """

    spec: KernelSpec
    train_features: np.ndarray
    train_labels: np.ndarray
    alpha: np.ndarray
    jitter: float
    mode: str
    latent_mode: np.ndarray | None = None

    def __post_init__(self):
        for name in ("train_features", "train_labels", "alpha", "latent_mode"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, frozen_array(value))
        if self.mode not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.latent_mode is not None) != (self.mode == CLASSIFICATION):
            raise ValueError("latent_mode is present iff mode is classification")

    @property
    def d(self) -> int:
        return self.train_features.shape[1]

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(chol, sqrt_w), read-only and built on the first predictive variance,
        bit for bit the fit's: chol factors K for regression (sqrt_w None), or
        B = I + sqrt(W) K sqrt(W) with W the logistic Hessian at `latent_mode`.
        Either is built and factored in K's own buffer, so the model holds one
        n x n array from its first variance on."""
        K = _jittered_gram(self.spec, self.train_features, self.jitter)
        if self.mode == REGRESSION:
            chol, sw = _cholesky_lower(K.T), None
        else:
            _, _, sw, chol = _laplace_factor(K, self.latent_mode, out=K.T)
        for array in (chol, sw):
            if array is not None:
                array.flags.writeable = False
        return chol, sw


def _default_jitter(spec: KernelSpec, jitter: float | None) -> float:
    if jitter is None:
        jitter = 1e-6 * spec.variance
    if not jitter > 0:
        raise ValueError("jitter must be positive")
    return float(jitter)


def _diagonal(matrix: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of a C- or F-contiguous square matrix:
    element (i, i) lies i * (n + 1) elements past the first in either order."""
    return matrix.ravel(order="K")[:: len(matrix) + 1]


def _jittered_gram(spec: KernelSpec, X: np.ndarray, jitter: float, gram: np.ndarray | None = None) -> np.ndarray:
    """K(X, X) + jitter*I, built in `gram` when that already holds K(X, X)."""
    K = kernel_matrix(spec, X, X) if gram is None else gram
    if K.shape != (len(X), len(X)):
        raise ValueError(f"gram has shape {K.shape}, expected {(len(X), len(X))}")
    _diagonal(K)[:] += jitter
    return K


def _exp_or_inf(v: float) -> float:
    """math.exp(v), or infinity where it overflows, as the C library's exp."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _logistic(x):
    """1 / (1 + exp(-x)) elementwise, with exp the C library's, taken one
    element at a time through math.exp: bit for bit scipy.special.expit."""
    x = np.asarray(x, dtype=float)
    neg = (-x).ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, neg), float, len(neg))
    except OverflowError:  # rare: x below about -709.78, where the link is 0
        e = np.fromiter(map(_exp_or_inf, neg), float, len(neg))
    return 1.0 / (1.0 + e.reshape(x.shape))


def _laplace_factor(K: np.ndarray, f: np.ndarray, out: np.ndarray | None = None):
    """Laplace quantities at latent values f (Rasmussen & Williams 2006,
    Alg. 3.1): the logistic probabilities pi, the Hessian diagonal W, its
    square root, and the lower Cholesky factor of B = I + sqrt(W) K sqrt(W).
    B is built from K.T, as K is exactly symmetric, in `out` or a fresh array,
    and factored in place. `out` must be Fortran-ordered; it may be K.T itself,
    which then holds the factor in place of K."""
    pi = _logistic(f)
    w = pi * (1.0 - pi)
    sw = np.sqrt(w)
    B = np.multiply(sw[:, None], K.T, out=np.empty(K.shape, order="F") if out is None else out)
    B *= sw
    _diagonal(B)[:] += 1.0
    return pi, w, sw, _cholesky_lower(B)


def fit_regression(
    spec: KernelSpec, data: Dataset, jitter: float | None = None, *, gram: np.ndarray | None = None
) -> TrainedGP:
    """Exact GP regression on labels in {-1, +1}: alpha solves (K + jitter*I) alpha = y.

    A caller that already holds K = kernel_matrix(spec, X, X) for the
    training rows X may pass it as `gram`; the fit adds the jitter to it and
    factors it in place, and the model is the same, bit for bit.
    """
    jitter = _default_jitter(spec, jitter)
    K = _jittered_gram(spec, data.features, jitter, gram)
    # K is exactly symmetric, so K.T is its Fortran view: dpotrf factors it in place, with no copy
    alpha = dpotrs(_cholesky_lower(K.T), data.labels, lower=1)[0]
    return TrainedGP(
        spec=spec,
        train_features=data.features,
        train_labels=data.labels,
        alpha=alpha,
        jitter=jitter,
        mode=REGRESSION,
    )


def _log_likelihood(f: np.ndarray, labels: np.ndarray) -> float:
    # sum_i log sigmoid(y_i f_i), computed stably
    return float(-np.logaddexp(0.0, -labels * f).sum())


def fit_classification_laplace(
    spec: KernelSpec,
    data: Dataset,
    max_iter: int = 100,
    tol: float = 1e-8,
    objective_history: list | None = None,
    *,
    gram: np.ndarray | None = None,
) -> TrainedGP:
    """Binary GP classification via the Laplace approximation.

    Newton iteration on the logistic-likelihood latent posterior mode,
    stopping once the mode changes by less than `tol` in max-norm or after
    `max_iter` iterations. Each Newton step is halved (up to 20 times)
    until the unnormalized log posterior does not decrease. K carries the
    default jitter, 1e-6 * variance, on its diagonal; as in fit_regression, a
    caller may pass K as `gram`, which the fit then overwrites.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    labels = data.labels
    if np.all(labels == labels[0]):
        raise ValueError("classification needs both classes in the training data")
    jitter = _default_jitter(spec, None)

    K = _jittered_gram(spec, data.features, jitter, gram)
    n = data.n
    y01 = (labels + 1.0) / 2.0
    B = np.empty((n, n), order="F")  # every step builds and factors B here

    def objective(f, a):
        # log p(y|f) - 0.5 f^T K^-1 f, with a = K^-1 f carried alongside
        return _log_likelihood(f, labels) - 0.5 * float(a @ f)

    f = np.zeros(n)
    a = np.zeros(n)
    current = objective(f, a)
    if objective_history is not None:
        objective_history.append(current)
    for iteration in range(max_iter):
        pi, w, sw, chol_b = _laplace_factor(K, f, B)
        b = w * f + (y01 - pi)
        # the LAPACK solve cho_solve makes, without its finiteness scan of the factor
        a_prop = b - sw * dpotrs(chol_b, sw * (K @ b), lower=1)[0]
        f_prop = K @ a_prop
        if not (np.all(np.isfinite(f_prop)) and np.all(np.isfinite(a_prop))):
            raise NumericalError(iteration, "non-finite Newton proposal")

        step = 1.0
        accepted = None
        for _ in range(20):
            f_try = f + step * (f_prop - f)
            a_try = a + step * (a_prop - a)
            value = objective(f_try, a_try)
            if np.isfinite(value) and value >= current - 1e-12 * max(1.0, abs(current)):
                accepted = (f_try, a_try)
                break
            step /= 2.0
        if accepted is None:
            break
        change = float(np.max(np.abs(accepted[0] - f)))
        # the accepted step's objective is the search's last value, on the same arrays
        f, a = accepted
        current = value
        if objective_history is not None:
            objective_history.append(current)
        if change < tol:
            break

    return TrainedGP(
        spec=spec,
        train_features=data.features,
        train_labels=data.labels,
        alpha=a,
        jitter=jitter,
        mode=CLASSIFICATION,
        latent_mode=f,
    )


def _query_matrix(gp: TrainedGP, X) -> np.ndarray:
    """X as a float matrix of query rows, checked against the model: a NaN or
    infinite query raises instead of yielding a made-up mean."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != gp.d:
        raise ValueError(f"query dimension {X.shape[1]} does not match model dimension {gp.d}")
    if not np.isfinite(X).all():
        row = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise ValueError(f"query row {row} is not finite: {X[row].tolist()}")
    return X


def latent_mean_batch(gp: TrainedGP, X) -> np.ndarray:
    X = _query_matrix(gp, X)
    return kernel_matrix(gp.spec, X, gp.train_features) @ gp.alpha


def _query_row(x) -> np.ndarray:
    """x as a 1 x d float matrix: a scalar or a matrix is not one query point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D query point")
    return x[None, :]


def _latent_rows(gp: TrainedGP, X) -> tuple[np.ndarray, np.ndarray]:
    """The kernel block k(X, train) at the query rows X, which it checks, and
    the latent means there. Each mean is its own 1 x n matrix-vector product, so
    row i equals latent_mean_batch(gp, X[i:i + 1])[0] bit for bit; one
    (R, n) product would round differently."""
    k = _kernel_block(gp.spec, _query_matrix(gp, X), gp.train_features, rowwise=True)
    return k, np.matmul(k[:, None, :], gp.alpha)[:, 0]


def _latent_gradients(gp: TrainedGP, X: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Latent-mean gradients at the checked float query rows X, each its own
    matrix-vector product as for one row alone. `k` may hold k(X, train)."""
    return np.matmul(gp.alpha, _kernel_gradient_block(gp.spec, X, gp.train_features, k))


def latent_mean(gp: TrainedGP, x) -> float:
    return float(_latent_rows(gp, _query_row(x))[1][0])


def predict_batch(gp: TrainedGP, X) -> tuple[np.ndarray, np.ndarray]:
    """Latent means and clamped predictive variances for each row of X.

    The factor is built (on a model's first variance) before the R x n query
    block, and the variances are solved in that block's own buffer, so a
    prediction of R rows holds one R x n array beside the model's factor."""
    X = _query_matrix(gp, X)
    chol, sw = gp.factor
    k_star = kernel_matrix(gp.spec, X, gp.train_features)
    means = k_star @ gp.alpha
    # v = L \ (sqrt(W) k*), with sqrt(W) = I for regression (R&W Alg. 2.1, 3.2);
    # k*.T is Fortran-ordered, so the solve overwrites it. The factor and X are
    # already known finite, so the solve does not scan them again.
    v = k_star.T
    if sw is not None:
        v *= sw[:, None]
    v = solve_triangular(chol, v, lower=True, overwrite_b=True, check_finite=False)
    variances = np.maximum(self_similarity(gp.spec, X) - np.square(v, out=v).sum(axis=0), 0.0)
    return means, variances


def predict(gp: TrainedGP, x) -> Prediction:
    """Predictive mean and variance at a single point.

    The reported mean is the latent mean K_x^T alpha; for classification the
    logistic link additionally yields `class_probability`.
    """
    means, variances = predict_batch(gp, _query_row(x))
    mean = float(means[0])
    prob = float(_logistic(mean)) if gp.mode == CLASSIFICATION else None
    return Prediction(mean=mean, variance=float(variances[0]), class_probability=prob)


def latent_gradient(gp: TrainedGP, x) -> np.ndarray:
    """Gradient of the latent mean with respect to the query point."""
    return _latent_gradients(gp, _query_matrix(gp, _query_row(x)))[0]


@dataclass(frozen=True, eq=False)
class DecisionGrid:
    """Row-major prediction grid over a 2-D box, ready for CSV export."""

    points: np.ndarray
    labels: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    resolution: int

    def write_csv(self, path):
        rows = zip(self.points, self.labels, self.means, self.variances)
        lines = (f"{p[0]!r},{p[1]!r},{int(lab)},{m!r},{v!r}" for p, lab, m, v in rows)
        write_lines(path, ["x0,x1,label,mean,variance", *lines])


def grid_points(lo, hi, resolution: int) -> np.ndarray:
    """The resolution x resolution grid spanning the 2-D box from corner `lo`
    to corner `hi`, one point per row, row-major with x1 varying fastest."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    g0, g1 = np.meshgrid(*(np.linspace(lo[j], hi[j], resolution) for j in range(2)), indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])


def decision_grid(
    gp: TrainedGP,
    bounds,
    resolution: int,
    policy: RejectionPolicy | ZeroRejection | None = None,
) -> DecisionGrid:
    """Evaluate the model over a resolution x resolution grid of a 2-D box.

    `bounds` is ((x0_min, x0_max), (x1_min, x1_max)). Points are row-major
    with x1 varying fastest. Labels are +1/-1, or REJECT (0) under `policy`.
    """
    if gp.d != 2:
        raise ValueError("decision grids require 2-D models")
    (lo0, hi0), (lo1, hi1) = bounds
    points = grid_points((lo0, lo1), (hi0, hi1), resolution)
    means, variances = predict_batch(gp, points)
    labels = np.sign(means).astype(int) if policy is None else policy.labels(means)
    return DecisionGrid(points=points, labels=labels, means=means, variances=variances, resolution=resolution)


def accuracy(
    gp: TrainedGP,
    data: Dataset,
    policy: RejectionPolicy | ZeroRejection | float | None = None,
) -> dict:
    """Accuracy over a dataset, optionally with a rejection rule.

    `policy` may be a RejectionPolicy, a ZeroRejection, a float eps meaning
    ZeroRejection(eps), or None for forced classification. Rejected points
    count as errors (the Acc_r convention); `reject_rate` reports their
    fraction.
    """
    if data.n < 1:
        raise ValueError("dataset must be nonempty")
    return _scores(latent_mean_batch(gp, data.features), data.labels, policy)


def _scores(means: np.ndarray, labels: np.ndarray, policy: RejectionPolicy | ZeroRejection | float | None) -> dict:
    """`accuracy`'s report for the latent means at rows with these labels."""
    if policy is not None and not isinstance(policy, _Rejection):
        policy = ZeroRejection(float(policy))
    rejected = np.zeros(len(means), dtype=bool) if policy is None else policy.mask(means)
    correct = ~rejected & (np.sign(means) == labels)
    return {"accuracy": float(correct.mean()), "reject_rate": float(rejected.mean())}


def _to_json_dict(gp: TrainedGP) -> dict:
    return {
        "spec": gp.spec.to_json_dict(),
        "mode": gp.mode,
        "jitter": gp.jitter,
        "train_features": gp.train_features.tolist(),
        "train_labels": gp.train_labels.tolist(),
        "alpha": gp.alpha.tolist(),
        "latent_mode": None if gp.latent_mode is None else gp.latent_mode.tolist(),
    }


def save_gp(gp: TrainedGP, path):
    write_json(path, _to_json_dict(gp))


# Relative tolerance of the stored-alpha check in load_gp: the residual of
# the system alpha solves may be at most this times |K| |alpha| + |target|
# (max norms), far above a Cholesky solve's round-off and far below the
# residual of any other model's weights.
_ALPHA_RTOL = 1e-8


def _stored_array(payload: dict, key: str, shape: tuple | None = None) -> np.ndarray:
    value = np.array(payload[key], dtype=float)
    if shape is not None and value.shape != shape:
        raise ValueError(f"model file: {key} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"model file: {key} holds a non-finite value")
    return value


def load_gp(path) -> TrainedGP:
    """Reload a model saved by save_gp; its factor is rebuilt on first use.

    A file save_gp could not have written raises ValueError: an unknown
    mode, a kernel spec KernelSpec refuses (such as a non-finite
    lengthscale, named in the message), arrays of the wrong shape,
    non-finite values, a non-positive jitter, labels outside {-1, +1}, or
    an `alpha` that does not solve its fit, (K + jitter I) alpha = labels
    for regression and (K + jitter I) alpha = latent_mode for
    classification, each to the relative tolerance _ALPHA_RTOL (1e-8).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    mode = payload["mode"]
    if mode not in (REGRESSION, CLASSIFICATION):
        raise ValueError(f"model file: unknown mode {mode!r}")
    spec = KernelSpec.from_json_dict(payload["spec"])
    features = _stored_array(payload, "train_features")
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"model file: train_features has shape {features.shape}, expected (n, d)")
    n = features.shape[0]
    labels = _stored_array(payload, "train_labels", (n,))
    if not np.isin(labels, (-1.0, 1.0)).all():
        raise ValueError("model file: train_labels must be -1 or +1")
    alpha = _stored_array(payload, "alpha", (n,))
    jitter = float(payload["jitter"])
    if not (np.isfinite(jitter) and jitter > 0):
        raise ValueError(f"model file: jitter {jitter!r} is not a positive number")
    K = _jittered_gram(spec, features, jitter)
    f = None if mode == REGRESSION else _stored_array(payload, "latent_mode", (n,))
    target = labels if f is None else f
    residual = np.abs(K @ alpha - target).max()
    scale = np.abs(K).sum(axis=1).max() * np.abs(alpha).max() + np.abs(target).max()
    if not residual <= _ALPHA_RTOL * scale:
        raise ValueError(f"model file: alpha does not reproduce the fit (residual {residual:.3g}, scale {scale:.3g})")
    return TrainedGP(
        spec=spec,
        train_features=features,
        train_labels=labels,
        alpha=alpha,
        jitter=jitter,
        mode=mode,
        latent_mode=f,
    )
