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
    """Kernel family plus parameters. Immutable and JSON-serializable."""

    family: str
    lengthscale: float | tuple[float, ...] = 1.0
    variance: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        if not self.variance > 0:
            raise ValueError("variance must be positive")
        ls = self.lengthscale
        if np.ndim(ls) == 0:
            ls = float(ls)
        else:
            ls = tuple(float(v) for v in np.asarray(ls).ravel())
            if len(ls) == 0:
                raise ValueError("per-dimension lengthscale vector must be nonempty")
        object.__setattr__(self, "lengthscale", ls)
        if np.any(np.asarray(ls) <= 0):
            raise ValueError("lengthscale(s) must be positive")
        if int(self.degree) != self.degree or self.degree < 1:
            raise ValueError("degree must be an integer >= 1")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "offset", float(self.offset))

    def lengthscales(self, d: int) -> np.ndarray:
        """Lengthscale broadcast to a length-d vector."""
        if isinstance(self.lengthscale, tuple):
            if len(self.lengthscale) != d:
                raise ValueError(
                    f"per-dimension lengthscale has length {len(self.lengthscale)}, data has d={d}"
                )
            return np.asarray(self.lengthscale, dtype=float)
        return np.full(d, float(self.lengthscale))

    def to_json_dict(self) -> dict:
        ls = self.lengthscale
        return {
            "family": self.family,
            "lengthscale": list(ls) if isinstance(ls, tuple) else ls,
            "variance": self.variance,
            "degree": self.degree,
            "offset": self.offset,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "KernelSpec":
        ls = payload.get("lengthscale", 1.0)
        if isinstance(ls, list):
            ls = tuple(ls)
        return cls(
            family=payload["family"],
            lengthscale=ls,
            variance=payload.get("variance", 1.0),
            degree=payload.get("degree", 2),
            offset=payload.get("offset", 1.0),
        )


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-D point")
    return p


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Similarity of two points under the given kernel."""
    return float(kernel_matrix(spec, _as_point(x), _as_point(x2))[0, 0])


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
    ls = spec.lengthscales(A.shape[1])

    def scaled_square(j: int) -> np.ndarray:
        c = A[:, j, None] - B[None, :, j]
        c /= ls[j]
        c *= c
        return c

    out = scaled_square(0)
    for j in range(1, A.shape[1]):
        out += scaled_square(j)
    return out


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """All pairwise similarities: entry (i, j) = k(A_i, B_j).

    Self-covariance (A is B) is exactly symmetric because squared
    differences are computed pairwise.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("point sets must be nonempty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return _kernel_block(spec, A, B)


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """kernel_matrix without the argument checks: A and B are nonempty float
    matrices of equal width. The one home of each family's formula."""
    if spec.family == RBF:
        return spec.variance * np.exp(-0.5 * scaled_sq_distances(spec, A, B))
    if spec.family == LINEAR:
        return spec.variance * (A @ B.T)
    return spec.variance * (A @ B.T + spec.offset) ** spec.degree


def self_similarity(spec: KernelSpec, X) -> np.ndarray:
    """k(x, x) for each row of X without forming the full matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.family == RBF:
        return np.full(X.shape[0], spec.variance)
    sq = (X**2).sum(axis=1)
    if spec.family == LINEAR:
        return spec.variance * sq
    return spec.variance * (sq + spec.offset) ** spec.degree


def kernel_gradient_x_batch(spec: KernelSpec, x, X) -> np.ndarray:
    """Row i holds the gradient of k(x, X_i) with respect to x."""
    x = _as_point(x)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        raise ValueError("point sets must be nonempty")
    if X.shape[1] != x.shape[0]:
        raise ValueError(f"point dimensions differ: {x.shape[0]} vs {X.shape[1]}")
    return _kernel_gradient_block(spec, x, X)


def _kernel_gradient_block(spec: KernelSpec, x: np.ndarray, X: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """kernel_gradient_x_batch without the argument checks: x is a float
    vector and X a float matrix of its width. For RBF, `k` may hold the row
    k(x, X) already built at x, which is then not built again."""
    if spec.family == RBF:
        if k is None:
            k = _kernel_block(spec, x[None, :], X)[0]
        ls = spec.lengthscales(x.shape[0])
        return k[:, None] * (-(x[None, :] - X) / ls**2)
    if spec.family == LINEAR:
        return spec.variance * X
    base = X @ x + spec.offset
    return spec.variance * spec.degree * (base ** (spec.degree - 1))[:, None] * X
