"""Evasion attacks driven by the latent-mean gradient of a trained GP.

Three attackers are provided, covering the usual perturbation metrics:

* `gpfgs`  - one-step signed-gradient perturbation (L-inf style),
* `gpjm`   - greedy per-feature saliency attack with an L0 budget,
* `cw_l2`  - iterative L2-minimizing attack in the tanh reparameterization
  (Carlini-Wagner style), which keeps candidates inside the box by
  construction.

All attacks run white-box against the attacked model's latent mean; the
resulting AdversarialResult objects can be replayed unchanged against other
victims for transfer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import frozen_array, write_lines
from .gp import NumericalError, TrainedGP, ZeroRejection, _LatentPoint, latent_mean, latent_mean_batch

__all__ = [
    "AttackConfig",
    "AdversarialResult",
    "gpfgs",
    "gpjm",
    "cw_l2",
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
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.confidence < 0:
            raise ValueError("confidence must be nonnegative")
        if self.box is not None:
            lo, hi = (tuple(float(v) for v in side) for side in self.box)
            if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
                raise ValueError("box must satisfy min <= max per feature")
            object.__setattr__(self, "box", (lo, hi))


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
        return gp.train_features.min(axis=0), gp.train_features.max(axis=0)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (gp.d,) or hi.shape != (gp.d,):
        raise ValueError("box must provide one (min, max) pair per feature")
    if np.any(lo > hi):
        raise ValueError("box must satisfy min <= max per feature")
    return lo, hi


def _sign_label(value: float) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def gpfgs(gp: TrainedGP, x, epsilon: float, box=None) -> AdversarialResult:
    """One-step signed-gradient attack on the latent mean.

    Moves every feature by epsilon against the model's current decision,
    then clips to the box. A zero gradient yields a zero delta and
    success=False rather than an error.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    x = np.asarray(x, dtype=float)
    lo, hi = _resolve_box(gp, box)
    at_x = _LatentPoint(gp, x)
    label = _sign_label(at_x.mean)
    grad = at_x.gradient()
    adversarial = np.clip(x - epsilon * label * np.sign(grad), lo, hi)
    flipped = label != 0 and _sign_label(latent_mean(gp, adversarial)) == -label
    return _make_result(x, adversarial, flipped, 1)


def gpjm(gp: TrainedGP, x, budget: int, step: float, box=None) -> AdversarialResult:
    """Greedy saliency attack: change at most `budget` distinct features.

    The attack starts from x clipped into the box, as cw_l2 does; features
    that clipping moves count in the result's l0 but not against `budget`.
    Each round touches the not-yet-modified feature whose gradient component
    moves the latent mean fastest toward the opposite class, by +-step
    (clipped to the box), until the decision flips or the budget runs out.
    Equal saliencies break toward the lowest feature index.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    lo, hi = _resolve_box(gp, box)
    label = _sign_label(latent_mean(gp, x))
    current = np.clip(x, lo, hi)
    untouched = np.ones(gp.d, dtype=bool)
    iterations = 0
    # clipping alone may already flip the decision
    success = label != 0 and not np.array_equal(current, x) and _sign_label(latent_mean(gp, current)) == -label
    if label != 0 and not success:
        # each round's flip check leaves the point the next round differentiates at
        point = _LatentPoint(gp, current)
        for _ in range(min(budget, gp.d)):
            grad = point.gradient()
            saliency = np.where(untouched, np.abs(grad), -1.0)
            j = int(np.argmax(saliency))
            if saliency[j] <= 0:
                break
            current[j] = np.clip(current[j] - label * np.sign(grad[j]) * step, lo[j], hi[j])
            untouched[j] = False
            iterations += 1
            point = _LatentPoint(gp, current)
            if _sign_label(point.mean) == -label:
                success = True
                break
    return _make_result(x, current, success, iterations)


def cw_l2(gp: TrainedGP, x, config: AttackConfig, seed: int = 0) -> AdversarialResult:
    """L2-minimizing attack in the tanh reparameterization.

    Candidates are box_min + (box_max - box_min) * (tanh(w) + 1) / 2, so the
    box constraint holds by construction. Plain gradient descent minimizes

        ||candidate - x||_2^2 + confidence * max(label * latent_mean, 0)

    (a zero margin: the misclassification term vanishes once the sign
    flips) for `config.max_iter` steps from the original point and from two
    initializations jittered with `seed`. Returns the successful candidate
    closest to x in L2, or the lowest objective seen with success=False.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = _resolve_box(gp, config.box)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("cw_l2 requires finite box bounds for every feature")
    half_range = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    label = _sign_label(latent_mean(gp, x))
    weight = config.confidence
    rng = np.random.default_rng(seed)

    span = np.where(half_range > 0, half_range, 1.0)
    t0 = np.clip((np.clip(x, lo, hi) - mid) / span, -1.0 + 1e-12, 1.0 - 1e-12)
    w0 = np.arctanh(t0)

    best_success: tuple[float, np.ndarray] | None = None
    best_any: tuple[float, np.ndarray] | None = None
    iterations = 0

    def consider(candidate: np.ndarray) -> _LatentPoint:
        nonlocal best_success, best_any
        point = _LatentPoint(gp, candidate)
        m = point.mean
        dist_sq = float(((candidate - x) ** 2).sum())
        objective = dist_sq + weight * max(label * m, 0)
        if not np.isfinite(objective):
            raise NumericalError(iterations, "non-finite attack objective")
        if label != 0 and _sign_label(m) == -label:
            if best_success is None or dist_sq < best_success[0]:
                best_success = (dist_sq, candidate.copy())
        if best_any is None or objective < best_any[0]:
            best_any = (objective, candidate.copy())
        return point

    for restart in range(CW_RESTARTS):
        w = w0 if restart == 0 else w0 + rng.normal(0.0, 0.1, size=w0.shape)
        for _ in range(config.max_iter):
            t = np.tanh(w)
            candidate = mid + half_range * t
            point = consider(candidate)
            grad = 2.0 * (candidate - x)
            if label != 0 and label * point.mean > 0:
                grad = grad + weight * label * point.gradient()
            w = w - config.step_size * grad * half_range * (1.0 - t**2)
            iterations += 1
        consider(mid + half_range * np.tanh(w))

    if best_success is not None:
        return _make_result(x, best_success[1], True, iterations)
    return _make_result(x, best_any[1], False, iterations)


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
