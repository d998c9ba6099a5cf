"""A provably unfoolable nearest-anchor classifier and its GP equivalence.

The secure classifier assigns an anchor's label only to points whose RBF
similarity to that anchor exceeds rho, and rejects everything else. When
anchors are mutually so far apart that the kernel matrix is (numerically)
the identity, a GP fit on the anchors with rejection thresholds
tau0 = tau1 = 1 - rho makes exactly the same decisions. The generalization
probe measures how much area outside all rho-balls a GP still classifies,
which is the price of learning.

rho lives in kernel-similarity units; the Euclidean ball radius is
l * sqrt(-2 ln(rho / variance)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import frozen_array
from .gp import RejectionPolicy, TrainedGP, latent_mean_batch, REJECT
from .kernels import RBF, KernelSpec, kernel_matrix, scaled_sq_distances

__all__ = [
    "SecureClassifier",
    "build_secure_classifier",
    "rho_ball_radius",
    "check_identity_assumption",
    "equivalence_check",
    "generalization_probe",
]

IDENTITY_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class SecureClassifier:
    """Anchors, their labels, and the similarity threshold rho."""

    anchors: np.ndarray
    labels: np.ndarray
    rho: float

    def __post_init__(self):
        anchors = frozen_array(self.anchors)
        labels = frozen_array(self.labels)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a nonempty n x d matrix")
        if labels.shape != (anchors.shape[0],) or not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be one value in {-1, +1} per anchor")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "labels", labels)


def rho_ball_radius(spec: KernelSpec, rho: float) -> float:
    """Euclidean radius of {x : k(x, anchor) > rho} for a scalar-lengthscale RBF."""
    radius = _scaled_radius(spec, rho)
    if isinstance(spec.lengthscale, tuple):
        raise ValueError("Euclidean radius is only defined for a scalar lengthscale")
    return float(spec.lengthscale) * radius


def _scaled_radius(spec: KernelSpec, rho: float) -> float:
    """rho-ball radius in lengthscale-scaled units, sqrt(-2 ln(rho / variance))."""
    if spec.family != RBF:
        raise ValueError("the secure classifier requires an abating (RBF) kernel")
    if not 0.0 < rho < spec.variance:
        raise ValueError("rho must lie in (0, variance)")
    return np.sqrt(-2.0 * np.log(rho / spec.variance))


def build_secure_classifier(anchors, labels, rho: float, spec: KernelSpec) -> SecureClassifier:
    """Construct a SecureClassifier, checking the non-overlap assumption.

    Construction fails if any point could fall inside the rho-balls of two
    differently labeled anchors, i.e. if two such anchors are closer than
    two ball radii. Offending anchor sets must be thinned by the caller.
    """
    sc = SecureClassifier(np.asarray(anchors, dtype=float), np.asarray(labels, dtype=float), float(rho))
    radius = _scaled_radius(spec, sc.rho)
    dist = np.sqrt(scaled_sq_distances(spec, sc.anchors, sc.anchors))
    conflicting = sc.labels[:, None] != sc.labels[None, :]
    bad = conflicting & (dist < 2.0 * radius)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"anchors {i} and {j} carry different labels but their rho-balls overlap "
            f"(scaled distance {dist[i, j]:.4g} < {2 * radius:.4g})"
        )
    return sc


def check_identity_assumption(anchors, spec: KernelSpec) -> bool:
    """True iff every off-diagonal kernel entry is below IDENTITY_EPS in magnitude."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    K = kernel_matrix(spec, anchors, anchors)
    off = K[~np.eye(K.shape[0], dtype=bool)]
    return bool(np.all(np.abs(off) < IDENTITY_EPS))


def _secure_classify_batch(sc: SecureClassifier, spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Per row of `points`, the label of the most similar anchor if its
    similarity exceeds rho, else REJECT (the boundary is rejected). Anchors
    of different labels cannot tie, by construction."""
    sims = kernel_matrix(spec, points, sc.anchors)
    best = np.argmax(sims, axis=1)
    best_sim = sims[np.arange(points.shape[0]), best]
    labels = sc.labels[best].astype(int)
    return np.where(best_sim > sc.rho, labels, REJECT)


def equivalence_check(sc: SecureClassifier, gp: TrainedGP, policy: RejectionPolicy, probes) -> dict:
    """Compare the secure classifier against GP-with-rejection probe by probe.

    Preconditions are enforced rather than silently ignored: the GP must be
    trained on exactly the anchors/labels, every off-diagonal kernel entry
    between anchors must be below IDENTITY_EPS (the identity assumption),
    and the thresholds must match tau0 = tau1 = 1 - rho.
    """
    if not np.array_equal(gp.train_features, sc.anchors) or not np.array_equal(gp.train_labels, sc.labels):
        raise ValueError("the GP must be trained on the secure classifier's anchors and labels")
    if not check_identity_assumption(sc.anchors, gp.spec):
        raise ValueError("identity assumption violated: some anchors are too similar")
    expected = 1.0 - sc.rho
    if abs(policy.tau0 - expected) > 1e-12 or abs(policy.tau1 - expected) > 1e-12:
        raise ValueError(f"thresholds must satisfy tau0 = tau1 = 1 - rho = {expected}")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    secure_out = _secure_classify_batch(sc, gp.spec, probes)
    gp_out = policy.labels(latent_mean_batch(gp, probes))
    agree = secure_out == gp_out
    return {
        "agreement_rate": float(agree.mean()),
        "disagreements": [probes[i].tolist() for i in np.flatnonzero(~agree)],
    }


def generalization_probe(
    gp: TrainedGP,
    spec: KernelSpec,
    rho: float,
    grid,
    policy: RejectionPolicy,
) -> dict:
    """Fraction of grid points outside every rho-ball that still get a label.

    Zero in the identity-assumption regime; positive once anchors interact,
    which is exactly the learning-vs-static-guarantee trade-off.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    sims = kernel_matrix(spec, grid, gp.train_features)
    outside = sims.max(axis=1) <= rho
    classified = ~policy.mask(latent_mean_batch(gp, grid))
    return {"outside_classified_fraction": float((outside & classified).mean())}
