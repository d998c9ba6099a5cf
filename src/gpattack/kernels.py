"""Covariance functions, kernel matrices and analytic input-space gradients.

Three families are supported:

    rbf     k(x, x') = variance * exp(-sum_j (x_j - x'_j)^2 / (2 l_j^2))
    linear  k(x, x') = variance * <x, x'>
    poly    k(x, x') = variance * (<x, x'> + offset)^degree

The RBF lengthscale may be a scalar or one positive value per dimension.
Short lengthscales make the similarity abate quickly, i.e. a local, steep
decision surface; long lengthscales give a flat one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RBF",
    "LINEAR",
    "POLY",
    "FAMILIES",
    "KernelSpec",
    "kernel_eval",
    "kernel_matrix",
    "kernel_gradient_x_batch",
    "scaled_sq_distances",
    "self_similarity",
]

RBF = "rbf"
LINEAR = "linear"
POLY = "poly"
FAMILIES = (RBF, LINEAR, POLY)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters. Immutable; its fields, as
    `dataclasses.asdict` lists them, are a model file's spec block."""

    family: str
    lengthscale: float | tuple[float, ...] = 1.0
    variance: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        _require_positive("variance", self.variance)
        ls = self.lengthscale
        if np.ndim(ls) == 0:
            ls = float(ls)
        else:
            ls = tuple(float(v) for v in np.asarray(ls).ravel())
            if len(ls) == 0:
                raise ValueError("per-dimension lengthscale vector must be nonempty")
        object.__setattr__(self, "lengthscale", ls)
        scales = ls if isinstance(ls, tuple) else (ls,)
        if not all(map(_positive, scales)):
            raise ValueError(f"lengthscale(s) must be positive and finite, got {ls!r}")
        # the RBF gradient divides by l^2; a subnormal square turns it into inf * 0 = NaN
        if min(scales) ** 2 < sys.float_info.min:
            raise ValueError(f"lengthscale(s) must be at least about 1.49e-154, so l^2 is a normal double, got {ls!r}")
        if not math.isfinite(self.degree) or int(self.degree) != self.degree or self.degree < 1:
            raise ValueError("degree must be an integer >= 1")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset!r}")

    def lengthscales(self, d: int) -> np.ndarray:
        """Lengthscale broadcast to a length-d vector."""
        if isinstance(self.lengthscale, tuple):
            if len(self.lengthscale) != d:
                raise ValueError(
                    f"per-dimension lengthscale has length {len(self.lengthscale)}, data has d={d}"
                )
            return np.asarray(self.lengthscale, dtype=float)
        return np.full(d, float(self.lengthscale))


def _positive(value) -> bool:
    """value > 0 and finite; math.isfinite keeps the check cheap for the
    hundreds of specs an extraction builds."""
    return math.isfinite(value) and value > 0


def _require_positive(name: str, value) -> None:
    """Refuse a `value` that is not positive and finite, naming it."""
    if not _positive(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _query_row(x) -> np.ndarray:
    """x as a 1 x d float matrix: a scalar or a matrix is not one query point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D query point")
    return x[None, :]


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Similarity of two points under the given kernel."""
    return float(kernel_matrix(spec, _query_row(x), _query_row(x2))[0, 0])


def scaled_sq_distances(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between the rows of A and B after dividing
    each coordinate by its lengthscale.

    Differences are taken pairwise before scaling, so the A-is-B case is
    exactly symmetric. The sum runs one dimension at a time, each an n x m
    slab added in column order 0, 1, ..., d-1: this never forms the
    n x m x d difference array, and is about ten times faster than reducing
    one over its short last axis. For d <= 7 it is also the order numpy's
    reduction adds in, so the result is bit-identical to
    `(((A[:, None] - B[None]) / ls) ** 2).sum(-1)`; from d = 8 numpy sums
    pairwise and the two differ by about one ulp.
    """
    return _scaled_sq_sum(_differences(A, B), spec.lengthscales(A.shape[1]))


def _differences(A: np.ndarray, B: np.ndarray):
    """Slab j is a fresh array of A[:, j] - B[:, j] over all pairs of rows."""
    return (A[:, j, None] - B[None, :, j] for j in range(A.shape[1]))


def _scaled_sq_sum(diffs, ls: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """sum_j (diffs_j / ls_j)^2 over difference slabs, added in column order:
    slab 0 is scaled into `out` and later ones into `scratch`, or without
    `out` each slab into itself."""
    for j, c in enumerate(diffs):
        s = np.divide(c, ls[j], out=c if out is None else out if j == 0 else scratch)
        s *= s
        total = s if j == 0 else np.add(total, s, out=total)
    return total


def _rbf(sq: np.ndarray, variance: float) -> np.ndarray:
    """variance * exp(-0.5 * sq), in place on the squared distances `sq`:
    the one home of the RBF formula."""
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= variance
    return sq


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """All pairwise similarities: entry (i, j) = k(A_i, B_j).

    Self-covariance (A is B) is exactly symmetric because squared
    differences are computed pairwise.
    """
    return _kernel_block(spec, *_point_sets(A, B))


def _point_sets(A, B) -> tuple[np.ndarray, np.ndarray]:
    """A and B as nonempty float matrices of equal width."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("point sets must be nonempty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return A, B


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """kernel_matrix without the argument checks: A and B are float matrices
    of equal width. Each family's formula has one home, `_rbf` or
    `_dot_kernel`. With `rowwise`, row i is bit for bit the block of
    A[i:i + 1] alone: one matrix-vector product per row, since a matrix
    product over all of A rounds otherwise."""
    if spec.family == RBF:
        return _rbf(scaled_sq_distances(spec, A, B), spec.variance)
    return _dot_kernel(spec, np.matmul(A[:, None, :], B.T)[:, 0] if rowwise else A @ B.T)


def _dot_kernel(spec: KernelSpec, dot):
    """The linear or polynomial kernel of the inner products `dot`: the one home of both formulas."""
    if spec.family == LINEAR:
        return spec.variance * dot
    return spec.variance * (dot + spec.offset) ** spec.degree


def self_similarity(spec: KernelSpec, X) -> np.ndarray:
    """k(x, x) for each row of X without forming the full matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.family == RBF:
        return np.full(X.shape[0], spec.variance)
    return _dot_kernel(spec, (X**2).sum(axis=1))


def kernel_gradient_x_batch(spec: KernelSpec, x, X) -> np.ndarray:
    """Row i holds the gradient of k(x, X_i) with respect to x."""
    return _kernel_gradient_block(spec, *_point_sets(_query_row(x), X))[0]


def _kernel_gradient_block(spec: KernelSpec, Q: np.ndarray, X: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """kernel_gradient_x_batch at every row of Q, without the argument checks
    (Q and X are float matrices of equal width); slice i is bit for bit the
    block at Q[i] alone. For RBF, `k` may hold k(Q, X), then not built again.
    Two callers: the latent-mean gradients of the attacks, and the
    training-data recovery's closed-form Jacobian, which takes it at the
    candidate anchors against the probes and against the anchors themselves.

    The RBF block, entry (r, i, j) = -(Q_rj - X_ij) / l_j^2 * k(Q_r, X_i), is
    built one dimension at a time from the same R x n difference slabs that
    `scaled_sq_distances` sums: each slab is negated, divided by l_j^2 and
    multiplied by k in place, then stored in column j. Elementwise passes
    over the whole R x n x d block would run over an inner axis of length d,
    which is 2 in every workload: on the `evade` attack blocks (n = 200) they
    took about three times as long. Each entry gets the same three roundings
    in the same order either way, and the negation is kept (rather than
    subtracting the other way round) so that coincident points still give
    -0.0."""
    if spec.family == RBF:
        if k is None:
            k = _kernel_block(spec, Q, X)
        G = np.empty((*k.shape, Q.shape[1]))
        sq_ls = spec.lengthscales(Q.shape[1]) ** 2
        for j, c in enumerate(_differences(Q, X)):
            np.negative(c, out=c)
            c /= sq_ls[j]
            c *= k
            G[:, :, j] = c
        return G
    if spec.family == LINEAR:
        return spec.variance * np.broadcast_to(X, (len(Q), *X.shape))
    base = np.matmul(X, Q[:, :, None])[:, :, 0] + spec.offset
    return spec.variance * spec.degree * (base ** (spec.degree - 1))[:, :, None] * X
