"""Evasion attacks driven by the latent-mean gradient of a trained GP.

Three attackers are provided, covering the usual perturbation metrics:

* `gpfgs`  - one-step signed-gradient perturbation (L-inf style),
* `gpjm`   - greedy per-feature saliency attack with an L0 budget,
* `cw_l2`  - iterative L2-minimizing attack in the tanh reparameterization
  (Carlini-Wagner style), which keeps candidates inside the box by
  construction.

Each attack runs on a block of points (`gpfgs_batch`, `gpjm_batch`,
`cw_l2_batch`); every row gets the result its one-point form gives, bit for bit.

All attacks run white-box against the attacked model's latent mean; the
resulting AdversarialResult objects can be replayed unchanged against other
victims for transfer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import _require_nonnegative, frozen_array, write_lines
from .gp import NumericalError, TrainedGP, ZeroRejection, latent_mean_batch
from .gp import _latent_gradients, _latent_rows, _query_matrix
from .kernels import _query_row, _require_positive

__all__ = [
    "AttackConfig",
    "AdversarialResult",
    "gpfgs",
    "gpfgs_batch",
    "gpjm",
    "gpjm_batch",
    "cw_l2",
    "cw_l2_batch",
    "adversarial_accuracy",
    "curvature_comparison",
    "write_attack_sets_csv",
]

L0_TOLERANCE = 1e-12
CW_RESTARTS = 3


@dataclass(frozen=True, eq=False)
class AttackConfig:
    """Shared attack knobs.

    `confidence` is the trade-off weight on the misclassification term of
    the cw_l2 objective. `box` holds per-feature (min, max) bounds; None
    means "derive from the victim's training data".
    """

    max_iter: int = 100
    step_size: float = 0.01
    confidence: float = 1.0
    box: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        _require_positive("step_size", self.step_size)
        _require_nonnegative("confidence", self.confidence)
        if self.box is not None:
            object.__setattr__(self, "box", _box_sides(self.box))


def _box_sides(box) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (min, max) sides of `box` as float tuples of one length, min <= max per feature."""
    lo, hi = (tuple(float(v) for v in side) for side in box)
    if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("box must satisfy min <= max per feature")
    return lo, hi


@dataclass(frozen=True, eq=False)
class AdversarialResult:
    original: np.ndarray
    adversarial: np.ndarray
    delta: np.ndarray
    norms: dict
    success: bool
    iterations_used: int


def _make_result(original: np.ndarray, adversarial: np.ndarray, success: bool, iterations: int) -> AdversarialResult:
    delta = adversarial - original
    norms = {
        "l0": int((np.abs(delta) > L0_TOLERANCE).sum()),
        "l2": float(np.linalg.norm(delta)),
        "linf": float(np.max(np.abs(delta))) if delta.size else 0.0,
    }
    return AdversarialResult(
        original=frozen_array(original),
        adversarial=frozen_array(adversarial),
        delta=frozen_array(delta),
        norms=norms,
        success=bool(success),
        iterations_used=int(iterations),
    )


def _resolve_box(gp: TrainedGP, box) -> tuple[np.ndarray, np.ndarray]:
    """The box as (min, max) vectors; None means the per-feature (min, max)
    observed in the victim's training data."""
    if box is None:
        return gp.data.features.min(axis=0), gp.data.features.max(axis=0)
    lo, hi = map(np.array, _box_sides(box))
    if len(lo) != gp.d:
        raise ValueError("box must provide one (min, max) pair per feature")
    return lo, hi


def gpfgs_batch(gp: TrainedGP, X, epsilon: float, box=None) -> list[AdversarialResult]:
    """One-step signed-gradient attack on the latent mean, at every row of X.

    Moves every feature by epsilon against the model's current decision,
    then clips to the box. A zero gradient yields a zero delta and
    success=False rather than an error.
    """
    _require_nonnegative("epsilon", epsilon)
    X = _query_matrix(gp, X)
    lo, hi = _resolve_box(gp, box)
    k, means = _latent_rows(gp, X)
    labels = np.sign(means)
    adversarial = np.clip(X - epsilon * labels[:, None] * np.sign(_latent_gradients(gp, X, k)), lo, hi)
    flipped = (labels != 0) & (np.sign(_latent_rows(gp, adversarial)[1]) == -labels)
    return [_make_result(x, adv, success, 1) for x, adv, success in zip(X, adversarial, flipped)]


def gpjm_batch(gp: TrainedGP, X, budget: int, step: float, box=None) -> list[AdversarialResult]:
    """Greedy saliency attack on each row x of X: change at most `budget` features.

    The attack starts from x clipped into the box, as cw_l2 does; features
    that clipping moves count in the result's l0 but not against `budget`.
    Each round touches the not-yet-modified feature whose gradient component
    moves the latent mean fastest toward the opposite class, by +-step
    (clipped to the box), until the decision flips or the budget runs out.
    Equal saliencies break toward the lowest feature index.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _require_positive("step", step)
    X = _query_matrix(gp, X)
    lo, hi = _resolve_box(gp, box)
    labels = np.sign(_latent_rows(gp, X)[1])
    current = np.clip(X, lo, hi)
    # each round's flip check leaves the block the next round differentiates at
    k, means = _latent_rows(gp, current)
    # a row stays active until its decision flips; clipping alone may flip it
    active = (labels != 0) & (np.sign(means) != -labels)
    untouched = np.ones(current.shape, dtype=bool)
    iterations = np.zeros(len(X), dtype=int)
    for _ in range(min(budget, gp.d)):
        rows = np.flatnonzero(active)
        grads = _latent_gradients(gp, current[rows], k[rows])
        saliency = np.where(untouched[rows], np.abs(grads), -1.0)
        j = np.argmax(saliency, axis=1)
        moved = saliency[np.arange(rows.size), j] > 0
        active[rows[~moved]] = False
        rows, j, grad = rows[moved], j[moved], grads[moved, j[moved]]
        current[rows, j] = np.clip(current[rows, j] - labels[rows] * np.sign(grad) * step, lo[j], hi[j])
        untouched[rows, j] = False
        iterations[rows] += 1
        k[rows], means[rows] = _latent_rows(gp, current[rows])
        active[rows] = np.sign(means[rows]) != -labels[rows]
    success = (labels != 0) & (np.sign(means) == -labels)
    return [_make_result(*row) for row in zip(X, current, success, iterations)]


def cw_l2_batch(gp: TrainedGP, X, config: AttackConfig, seed: int = 0) -> list[AdversarialResult]:
    """L2-minimizing attack in the tanh reparameterization, at every row of X.

    Candidates are box_min + (box_max - box_min) * (tanh(w) + 1) / 2, so the
    box constraint holds by construction. Plain gradient descent minimizes

        ||candidate - x||_2^2 + confidence * max(label * latent_mean, 0)

    (a zero margin: the misclassification term vanishes once the sign
    flips) for `config.max_iter` steps from the original point and from two
    initializations jittered with `seed`. Returns the successful candidate
    closest to x in L2, or the lowest objective seen with success=False;
    ties go to the earlier restart and step.

    The P points and CW_RESTARTS restarts run as one block, row restart * P
    + point. Each restart's jitter is drawn once from default_rng(seed) and
    shared by every point. A non-finite objective raises NumericalError with
    the step at which it appeared.
    """
    X = _query_matrix(gp, X)
    lo, hi = _resolve_box(gp, config.box)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("cw_l2 requires finite box bounds for every feature")
    half_range = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    weight = config.confidence

    span = np.where(half_range > 0, half_range, 1.0)
    w0 = np.arctanh(np.clip((np.clip(X, lo, hi) - mid) / span, -1.0 + 1e-12, 1.0 - 1e-12))
    jitter = np.random.default_rng(seed).normal(0.0, 0.1, size=(CW_RESTARTS - 1, 1, gp.d))
    w = np.concatenate([w0, *(w0 + jitter)])
    origins = np.tile(X, (CW_RESTARTS, 1))
    labels = np.tile(np.sign(_latent_rows(gp, X)[1]), CW_RESTARTS)

    # per row, the first minimum of the success distance and of the objective
    best_dist, best_objective = np.full((2, len(w)), np.inf)
    best_success, best_any = np.zeros((2, *w.shape))

    def consider(candidate: np.ndarray, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        k, means = _latent_rows(gp, candidate)
        dist_sq = ((candidate - origins) ** 2).sum(axis=1)
        objective = dist_sq + weight * np.maximum(labels * means, 0)
        if not np.isfinite(objective).all():
            raise NumericalError(iteration, "non-finite attack objective")
        better = (labels != 0) & (np.sign(means) == -labels) & (dist_sq < best_dist)
        best_dist[better] = dist_sq[better]
        best_success[better] = candidate[better]
        better = objective < best_objective
        best_objective[better] = objective[better]
        best_any[better] = candidate[better]
        return k, means

    for iteration in range(config.max_iter):
        t = np.tanh(w)
        candidate = mid + half_range * t
        k, means = consider(candidate, iteration)
        grad = 2.0 * (candidate - origins)
        pull = labels * means > 0
        if pull.any():
            grad[pull] = grad[pull] + (weight * labels[pull])[:, None] * _latent_gradients(gp, candidate[pull], k[pull])
        w = w - config.step_size * grad * half_range * (1.0 - t**2)
    consider(mid + half_range * np.tanh(w), config.max_iter)

    # merge the restarts in restart order: argmin keeps the first minimum
    success = np.isfinite(best_dist.reshape(CW_RESTARTS, -1)).any(axis=0)
    key = np.where(np.tile(success, CW_RESTARTS), best_dist, best_objective).reshape(CW_RESTARTS, -1)
    rows = key.argmin(axis=0) * len(X) + np.arange(len(X))
    adversarial = np.where(success[:, None], best_success[rows], best_any[rows])
    return [_make_result(x, adv, ok, CW_RESTARTS * config.max_iter) for x, adv, ok in zip(X, adversarial, success)]


def gpfgs(gp: TrainedGP, x, epsilon: float, box=None) -> AdversarialResult:
    """gpfgs_batch at the one point x."""
    return gpfgs_batch(gp, _query_row(x), epsilon, box)[0]


def gpjm(gp: TrainedGP, x, budget: int, step: float, box=None) -> AdversarialResult:
    """gpjm_batch at the one point x."""
    return gpjm_batch(gp, _query_row(x), budget, step, box)[0]


def cw_l2(gp: TrainedGP, x, config: AttackConfig, seed: int = 0) -> AdversarialResult:
    """cw_l2_batch at the one point x."""
    return cw_l2_batch(gp, _query_row(x), config, seed)[0]


def adversarial_accuracy(
    victim: TrainedGP,
    results: Sequence[AdversarialResult],
    true_labels,
    zero_rejection_eps: float | None = None,
) -> float:
    """Fraction of adversarial points the victim handles correctly.

    Without rejection a point counts iff the victim assigns the true label.
    With zero-mean rejection, rejecting an adversarial point also counts as
    correct handling (the attack did not produce a misclassification).
    """
    if len(results) == 0:
        raise ValueError("empty attack set")
    labels = np.asarray(true_labels, dtype=float)
    if labels.shape != (len(results),):
        raise ValueError("need exactly one true label per adversarial result")
    points = np.stack([r.adversarial for r in results])
    means = latent_mean_batch(victim, points)
    correct = np.sign(means) == labels
    if zero_rejection_eps is not None:
        correct |= ZeroRejection(zero_rejection_eps).mask(means)
    return float(correct.mean())


def curvature_comparison(
    victim_short: TrainedGP,
    victim_long: TrainedGP,
    adversarial_sets: Mapping[str, Sequence[AdversarialResult]],
    true_labels: Mapping[str, Sequence[float]],
    zero_rejection_eps: float | None = None,
) -> dict:
    """Short-vs-long lengthscale accuracy differences on shared attack sets.

    For each named set, reports (short accuracy - long accuracy) in absolute
    percentage points: positive means the steeper model handled more
    adversarial examples correctly. When `zero_rejection_eps` is given a
    second column repeats the comparison with the rejection option enabled.
    """
    table: dict[str, dict] = {}
    for name, results in adversarial_sets.items():
        labels = true_labels[name]
        acc_short = adversarial_accuracy(victim_short, results, labels)
        acc_long = adversarial_accuracy(victim_long, results, labels)
        row = {"forced_diff_pp": 100.0 * (acc_short - acc_long)}
        if zero_rejection_eps is not None:
            rej_short = adversarial_accuracy(victim_short, results, labels, zero_rejection_eps)
            rej_long = adversarial_accuracy(victim_long, results, labels, zero_rejection_eps)
            row["rejection_diff_pp"] = 100.0 * (rej_short - rej_long)
        table[name] = row
    return table


def write_attack_sets_csv(path, sets: Mapping[str, Sequence[AdversarialResult]], strengths: Mapping[str, float]):
    """One row per adversarial example: coordinates, norms, success, attack, strength."""
    dims = {len(r.original) for results in sets.values() for r in results}
    if len(dims) != 1:
        raise ValueError("all attack sets must share one feature dimension")
    d = dims.pop()
    orig_cols = ",".join(f"orig_{j}" for j in range(d))
    adv_cols = ",".join(f"adv_{j}" for j in range(d))
    lines = [f"attack,epsilon,success,l0,l2,linf,{orig_cols},{adv_cols}"]
    for name, results in sets.items():
        eps = strengths.get(name, "")
        for r in results:
            coords = ",".join(repr(float(v)) for v in r.original)
            adv = ",".join(repr(float(v)) for v in r.adversarial)
            lines.append(
                f"{name},{eps!r},{int(r.success)},{r.norms['l0']},{r.norms['l2']!r},{r.norms['linf']!r},{coords},{adv}"
            )
    write_lines(path, lines)
