"""Model extraction and stealing attacks against a black-box GP oracle.

The attacker only sees (mean, variance) pairs through a ModelOracle, which
counts every query. Two analytic attacks solve the prediction equations
directly on noiseless victims: lengthscale recovery needs exactly two
queries when the training data is known, and training-data recovery is a
nonlinear least-squares problem over the candidate anchor coordinates.
The empirical attacks mirror the query-only setting: a 50-model lengthscale
sweep and output-distance kernel identification.

Note on the "known data" equation system: although the recovery target is a
single scalar, the observed mean is nonlinear in the lengthscale (the whole
training covariance depends on it), so the lengthscale attack runs a
bracketing bisection on log l rather than a linear solve. The two-query
budget is preserved: candidate refits are attacker-side and free. They, and
a sweep's fits, take their kernel matrices from one `_LengthscalePath`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrs

from .data import Dataset, rows_in, write_lines
from .gp import TrainedGP, fit_classification_laplace, fit_regression, latent_mean, latent_mean_batch, predict
from .kernels import RBF, KernelSpec, _differences, _kernel_block, _kernel_gradient_block, _rbf, _scaled_sq_sum

__all__ = [
    "ModelOracle",
    "ComplexityEstimate",
    "ExtractionReport",
    "BracketingError",
    "REGIMES",
    "DATA_KNOWN_SINGLE",
    "DATA_KNOWN_PER_DIM",
    "LENGTHSCALE_KNOWN_SINGLE",
    "LENGTHSCALE_KNOWN_PER_DIM",
    "NOTHING_KNOWN_SINGLE",
    "NOTHING_KNOWN_PER_DIM",
    "SWEEP_REGIMES",
    "query_complexity",
    "extract_lengthscale_analytic",
    "recover_training_data_analytic",
    "match_points",
    "estimate_lengthscale_sweep",
    "identify_kernel",
    "write_sweep_csv",
    "write_kernel_distances_csv",
]


class ModelOracle:
    """Black-box query interface to a model: point -> (mean, variance), with a counter.

    The counter increments atomically by exactly one per query, so
    concurrent attackers can share one oracle and the accounting stays
    exact.
    """

    def __init__(self, gp: TrainedGP):
        self._gp = gp
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_gp(cls, gp: TrainedGP) -> "ModelOracle":
        return cls(gp)

    def query(self, x) -> tuple[float, float]:
        """(mean, variance) at x. Only answered queries are counted: a NaN
        or infinite point, or one the model refuses, raises ValueError."""
        p = predict(self._gp, x)
        with self._lock:
            self._count += 1
        return p.mean, p.variance

    @property
    def query_count(self) -> int:
        return self._count


DATA_KNOWN_SINGLE = "data_known_single_l"
DATA_KNOWN_PER_DIM = "data_known_per_dim"
LENGTHSCALE_KNOWN_SINGLE = "lengthscale_known_single"
LENGTHSCALE_KNOWN_PER_DIM = "lengthscale_known_per_dim"
NOTHING_KNOWN_SINGLE = "nothing_known_single"
NOTHING_KNOWN_PER_DIM = "nothing_known_per_dim"
REGIMES = (
    DATA_KNOWN_SINGLE,
    DATA_KNOWN_PER_DIM,
    LENGTHSCALE_KNOWN_SINGLE,
    LENGTHSCALE_KNOWN_PER_DIM,
    NOTHING_KNOWN_SINGLE,
    NOTHING_KNOWN_PER_DIM,
)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Minimal query count for an attack regime; a lower bound when the
    attacker knows nothing and the equation system turns nonlinear."""

    queries: int
    is_lower_bound_only: bool
    regime: str


@dataclass(frozen=True, eq=False)
class ExtractionReport:
    estimate: object
    residual: float
    queries_used: int
    converged: bool
    cost_history: tuple[float, ...] | None = None


class BracketingError(RuntimeError):
    """The lengthscale residual never changes sign on the search interval."""

    def __init__(self, residual_lo: float, residual_hi: float):
        super().__init__(
            f"no sign change in the search interval: residuals {residual_lo:.6g} and {residual_hi:.6g}"
        )
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


def query_complexity(regime: str, n: int, d: int) -> ComplexityEstimate:
    """Queries needed to solve the prediction equations, per attacker knowledge.

    Known data: 2 (single lengthscale) or d+1 (per-dimension). Known
    lengthscale(s): n+1 or n*d+1. Nothing known: the system is no longer
    linear and the counts (n*d+1, n*2d+1) are lower bounds only.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if regime == DATA_KNOWN_SINGLE:
        return ComplexityEstimate(2, False, regime)
    if regime == DATA_KNOWN_PER_DIM:
        return ComplexityEstimate(d + 1, False, regime)
    if regime == LENGTHSCALE_KNOWN_SINGLE:
        return ComplexityEstimate(n + 1, False, regime)
    if regime == LENGTHSCALE_KNOWN_PER_DIM:
        return ComplexityEstimate(n * d + 1, False, regime)
    if regime == NOTHING_KNOWN_SINGLE:
        return ComplexityEstimate(n * d + 1, True, regime)
    return ComplexityEstimate(n * 2 * d + 1, True, regime)


def _draw_probe(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, avoid: np.ndarray) -> np.ndarray:
    for _ in range(1000):
        probe = rng.uniform(lo, hi)
        if not rows_in(avoid, probe[None, :])[0]:
            return probe
    raise RuntimeError("could not draw a probe off the training set")


class _LengthscalePath:
    """kernel_matrix(spec, X, X) of one point set X under many RBF specs, bit
    for bit: X's coordinate differences are taken once, and each Gram matrix
    is built in one held buffer, which the next call overwrites."""

    def __init__(self, features: np.ndarray):
        self._diffs = list(_differences(features, features))
        self._K, self._scratch = np.empty((2, len(features), len(features)))

    def gram(self, spec: KernelSpec) -> np.ndarray:
        ls = spec.lengthscales(len(self._diffs))
        return _rbf(_scaled_sq_sum(self._diffs, ls, self._K, self._scratch), spec.variance)


def _observed_means(oracle: ModelOracle, points: np.ndarray) -> np.ndarray:
    """The oracle's mean at each row of `points`, one query per row."""
    return np.array([oracle.query(p)[0] for p in points])


SCAN_POINTS = 64  # log-spaced candidate lengthscales in the analytic scan
RESIDUAL_TOL = 1e-8  # the worst probe residual below which a root has converged


def extract_lengthscale_analytic(
    oracle: ModelOracle,
    train_data: Dataset,
    jitter: float,
    search_interval: tuple[float, float],
    variance: float = 1.0,
    seed: int = 0,
) -> ExtractionReport:
    """Recover a noiseless RBF victim's lengthscale from two oracle queries.

    The residual r(l) compares the observed mean at a probe against a local
    refit on the known training data with candidate l; the true lengthscale
    is a common root of both probes' residuals. Roots are isolated by a
    log-spaced scan of SCAN_POINTS lengthscales plus bisection on log l, run
    on each residual (one probe can have a tangent root that never changes
    sign; the other then supplies the bracket), and a candidate root counts
    as converged once both residuals there are below RESIDUAL_TOL. The
    candidates come per probe, the scan's exact zeros first and then its
    sign changes, each checked as soon as it is refined: the first converged
    one is the estimate and ends the search, and without one the estimate is
    the candidate of least worst residual. The scan and each check read both
    residuals from one refit per lengthscale; each bisection step refits for
    its own residual only.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not 0 < lo < hi:
        raise ValueError("search interval must satisfy 0 < lo < hi")
    rng = np.random.default_rng(seed)
    box_lo, box_hi = train_data.features.min(axis=0), train_data.features.max(axis=0)
    start_count = oracle.query_count

    probes, observed = [], []
    for _ in range(2):
        probes.append(_draw_probe(rng, box_lo, box_hi, train_data.features))
        observed.append(oracle.query(probes[-1])[0])

    path = _LengthscalePath(train_data.features)

    def residuals(length: float, which=(0, 1)) -> tuple[float, ...]:
        """The residuals of the probes in `which`, all from one refit."""
        spec = KernelSpec(RBF, lengthscale=length, variance=variance)
        gp = fit_regression(spec, train_data, jitter, gram=path.gram(spec))
        return tuple(observed[k] - latent_mean(gp, probes[k]) for k in which)

    grid = np.geomspace(lo, hi, SCAN_POINTS)
    scan = np.array([residuals(l) for l in grid])

    def candidates():
        """Per probe, the scan's exact zeros, then each sign change bisected
        on log l; each is refined only when the one before it has not
        converged."""
        for k, values in enumerate(scan.T):
            yield from (float(grid[i]) for i in np.flatnonzero(values == 0.0))
            for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
                log_lo, log_hi = np.log(grid[i]), np.log(grid[i + 1])
                r_lo = values[i]
                while (log_hi - log_lo) > 1e-13:
                    log_mid = 0.5 * (log_lo + log_hi)
                    (r_mid,) = residuals(float(np.exp(log_mid)), (k,))
                    if r_mid == 0.0:
                        log_lo = log_hi = log_mid
                        break
                    if np.sign(r_mid) == np.sign(r_lo):
                        log_lo, r_lo = log_mid, r_mid
                    else:
                        log_hi = log_mid
                yield float(np.exp(0.5 * (log_lo + log_hi)))

    best: tuple[float, float, bool] | None = None
    for root in candidates():
        worst = max(abs(r) for r in residuals(root))
        ok = worst < RESIDUAL_TOL
        if best is None or worst < best[1]:
            best = (root, worst, ok)
        if ok:
            break
    if best is None:
        raise BracketingError(float(scan[0, 0]), float(scan[-1, 0]))
    estimate, residual, converged = best
    return ExtractionReport(
        estimate=estimate,
        residual=residual,
        queries_used=oracle.query_count - start_count,
        converged=converged,
    )


RECOVERY_MAX_EVALUATIONS = 400  # residual evaluations per start
RECOVERY_TOL = 1e-9  # the residual norm below which a recovery has converged
EPS = np.finfo(float).eps  # a step shorter than EPS * |x| is round-off
GEODESIC_PROBE = 0.01  # the fraction of a step at which the residual's curvature along it is sampled
GEODESIC_RATIO = 0.75  # the largest 2|a| / |h| at which a step keeps its geodesic acceleration a


def _recovery_jacobian(gp: TrainedGP, probes: np.ndarray) -> np.ndarray:
    """The Q x (n*d) Jacobian of the refit's means at the Q probes P with
    respect to its n x d anchors X, flattened row-major as X.ravel().

    With g(u; v) = dk(u, v)/du, V = k(P, X) (K + jI)^-1 and s_i =
    sum_b g(X_i; X_b) alpha_b, the mean m_q = k(p_q, X) alpha has
    (Rasmussen & Williams 2006, ch. 5 and sec. 9.4)

        dm_q/dX_i = alpha_i g(X_i; p_q) - V_qi s_i - alpha_i sum_a V_qa g(X_i; X_a),

    the first term from k(p_q, X_i) and the others from alpha's dependence
    on K. V is one solve against the refit's `gp.factor`, which a regression
    model builds on first use, so each Jacobian also builds K and factors it
    once more: an n x n Cholesky, small at the few anchors a recovery takes."""
    X, alpha = gp.data.features, gp.alpha
    chol, _ = gp.factor
    V = dpotrs(chol, _kernel_block(gp.spec, X, probes), lower=1)[0].T
    to_probes = _kernel_gradient_block(gp.spec, X, probes)  # (n, Q, d): g(X_i; p_q)
    to_anchors = _kernel_gradient_block(gp.spec, X, X)  # (n, n, d): g(X_i; X_a)
    s = np.einsum("iad,a->id", to_anchors, alpha)
    jac = alpha[None, :, None] * (to_probes.transpose(1, 0, 2) - np.einsum("qa,iad->qid", V, to_anchors))
    jac -= V[:, :, None] * s[None]
    return jac.reshape(len(probes), -1)


def _trust_region_step(sv: np.ndarray, grad: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """The step h minimizing |J h + r|^2 subject to |h| <= radius (More
    1978), as -h in V's basis and its damping mu, given J = U S V^T's
    singular values S and the gradient S U^T r: h = -(J^T J + mu I)^-1 J^T r
    with mu = 0 when the Gauss-Newton step fits, and otherwise mu from
    Newton's method on 1/|h(mu)| = 1/radius, started at 0 and stopped within
    1% of the radius or after 10 iterations."""
    mu = 0.0
    for _ in range(10):
        damped = sv**2 + mu
        along = grad / damped
        size = float(np.linalg.norm(along))
        if size <= 1.01 * radius:
            break
        mu += (size / radius - 1.0) * size**2 / float(np.sum(along**2 / damped))
    return along, mu


def recover_training_data_analytic(
    oracle: ModelOracle,
    spec: KernelSpec,
    n: int,
    d: int,
    labels,
    query_budget: int,
    jitter: float = 1e-8,
    probe_box: tuple = (-5.0, 5.0),
    seed: int = 0,
    restarts: int = 5,
) -> ExtractionReport:
    """Recover the n x d training coordinates of a noiseless victim with
    known kernel spec (lengthscale included) and known labels.

    Poses sum_q (observed_mean(x_q) - refit_mean(X_hat, x_q))^2 over
    `query_budget` >= n*d+1 probes and minimizes it from a matched-probe
    start and then seeded random restarts, until the residual norm is below
    RECOVERY_TOL. Each start runs Levenberg-Marquardt in trust-region form
    (More 1978; `_trust_region_step`) on the closed-form Jacobian of
    `_recovery_jacobian`, taken through its SVD. The radius starts at the
    longest lengthscale, is quartered after a step whose gain (actual over
    predicted decrease) is below 1/4 and doubled after one at the radius
    with a gain above 3/4. Each step also takes geodesic acceleration
    (Transtrum & Sethna 2012): the residual is refitted at GEODESIC_PROBE of
    the step, which yields its second derivative along the step, and the
    second-order correction is kept when it is small against the step. This
    follows the curved valleys in which a weakly sensed anchor otherwise
    crawls. A step is accepted when it lowers the cost. A start stops once
    its residual norm is below RECOVERY_TOL, when its next step would pass
    RECOVERY_MAX_EVALUATIONS residual evaluations (two per step), or when
    its step falls below round-off.
    `cost_history` holds the best start's squared residual norm at its start
    and after each accepted step. `probe_box` is the attacker's prior on
    where the data lives, a (lo, hi) pair of scalars or per-dimension
    vectors. Recovered anchors are permutation-ambiguous within a label
    class; use `match_points` to align them with a reference.
    """
    minimum = query_complexity(LENGTHSCALE_KNOWN_PER_DIM, n, d).queries
    if query_budget < minimum:
        raise ValueError(
            f"query_budget {query_budget} is below the n*d+1 = {minimum} complexity bound"
        )
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (n,) or not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be n values in {-1, +1}")
    rng = np.random.default_rng(seed)
    lo = np.broadcast_to(np.asarray(probe_box[0], dtype=float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(probe_box[1], dtype=float), (d,)).copy()
    start_count = oracle.query_count

    probes = rng.uniform(lo, hi, size=(query_budget, d))
    targets = _observed_means(oracle, probes)

    def refit(flat: np.ndarray) -> tuple[TrainedGP, np.ndarray, float]:
        """The refit on candidate anchors `flat`, its residuals and cost."""
        gp = fit_regression(spec, Dataset(flat.reshape(n, d), labels), jitter)
        r = latent_mean_batch(gp, probes) - targets
        return gp, r, float(r @ r)

    def matched_probe_init() -> np.ndarray:
        # seed each candidate anchor at the unclaimed probe responding most
        # strongly with that anchor's sign
        taken: set[int] = set()
        init = np.empty((n, d))
        for i in range(n):
            scores = labels[i] * targets
            for q in np.argsort(-scores):
                if int(q) not in taken:
                    taken.add(int(q))
                    init[i] = probes[q]
                    break
        return init.ravel()

    def linearize(gp: TrainedGP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """J = U S V^T at the refit `gp`, as U, S and V^T cut to the singular
        values above EPS * (n*d) * max(S_max, 1): along the others, a unit
        move of the anchors changes the means by less than round-off."""
        u, sv, vt = np.linalg.svd(_recovery_jacobian(gp, probes), full_matrices=False)
        keep = sv > EPS * len(sv) * max(sv[0], 1.0)
        return u[:, keep], sv[keep], vt[keep]

    def descend(flat: np.ndarray) -> tuple[np.ndarray, float, list[float]]:
        """One start: its last point, cost and accepted costs."""
        gp, r, cost = refit(flat)
        u, sv, vt = linearize(gp)
        radius = float(np.max(spec.lengthscales(d)))  # an anchor moved farther leaves the probes that sense it
        history, evaluations = [cost], 1
        while cost >= RECOVERY_TOL**2 and evaluations + 2 <= RECOVERY_MAX_EVALUATIONS:
            grad = sv * (u.T @ r)  # J^T r in V's basis
            along, mu = _trust_region_step(sv, grad, radius)  # the step h is -along in V's basis
            size = float(np.linalg.norm(along))  # |h|, as V's rows are orthonormal
            # the decrease the linearization predicts, -2 h^T J^T r - |J h|^2, > 0 but for round-off
            predicted = float(2.0 * along @ grad - np.sum((sv * along) ** 2))
            if predicted <= 0 or size <= EPS * (np.linalg.norm(flat) + EPS):
                break
            # geodesic acceleration: r's second derivative along h by a finite difference, then
            # the correction a/2 with a = -(J^T J + mu I)^-1 J^T r_hh, kept if 2|a| <= GEODESIC_RATIO |h|
            _, nearby, _ = refit(flat - GEODESIC_PROBE * (vt.T @ along))
            r_hh = 2.0 / GEODESIC_PROBE * ((nearby - r) / GEODESIC_PROBE + u @ (sv * along))
            bend = sv * (u.T @ r_hh) / (2.0 * (sv**2 + mu))  # -a/2 in V's basis
            if 4.0 * np.linalg.norm(bend) <= GEODESIC_RATIO * size:
                along = along + bend
            trial = flat - vt.T @ along
            trial_gp, trial_r, trial_cost = refit(trial)
            evaluations += 2
            gain = (cost - trial_cost) / predicted  # actual over predicted decrease
            if gain < 0.25:
                radius = 0.25 * size
            elif gain > 0.75 and size > 0.95 * radius:
                radius *= 2.0
            if gain > 0:
                flat, r, cost = trial, trial_r, trial_cost
                history.append(cost)
                u, sv, vt = linearize(trial_gp)
        return flat, cost, history

    best_flat: np.ndarray | None = None
    best_cost = np.inf
    history: list[float] = []
    for restart in range(max(restarts, 1)):
        start = matched_probe_init() if restart == 0 else rng.uniform(lo, hi, size=(n, d)).ravel()
        flat, c, run_history = descend(start)
        if c < best_cost:
            best_cost, best_flat, history = c, flat, run_history
        if best_cost < RECOVERY_TOL**2:
            break

    residual_norm = float(np.sqrt(best_cost))
    return ExtractionReport(
        estimate=best_flat.reshape(n, d),
        residual=residual_norm,
        queries_used=oracle.query_count - start_count,
        converged=residual_norm < RECOVERY_TOL,
        cost_history=tuple(history),
    )


def _min_cost_assignment(costs: np.ndarray) -> np.ndarray:
    """The column assigned to each row of a square cost matrix, at least
    total cost: the O(s^3) Hungarian method (Kuhn-Munkres) by shortest
    augmenting paths, one row added per pass, with the Dijkstra-like inner
    loop vectorized over the columns. Rows and columns count from 1; column
    0 is a virtual one that each pass starts from."""
    s = len(costs)
    padded = np.pad(costs, ((1, 0), (1, 0)))  # so rows and columns index from 1
    u, v = np.zeros(s + 1), np.zeros(s + 1)  # the dual potentials of rows and columns
    match = np.zeros(s + 1, dtype=int)  # match[j]: the row holding column j, 0 for none
    way = np.zeros(s + 1, dtype=int)  # the previous column on the shortest path
    for row in range(1, s + 1):
        match[0], col = row, 0
        slack = np.full(s + 1, np.inf)
        used = np.zeros(s + 1, dtype=bool)
        while match[col] != 0:
            used[col] = True
            reduced = padded[match[col]] - u[match[col]] - v
            closer = ~used & (reduced < slack)
            slack[closer], way[closer] = reduced[closer], col
            col = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[col]
            u[match[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:  # augment along the path back to the virtual column
            match[col] = match[way[col]]
            col = way[col]
    assigned = np.empty(s, dtype=int)
    assigned[match[1:] - 1] = np.arange(s)
    return assigned


def match_points(recovered, reference, labels) -> tuple[np.ndarray, np.ndarray]:
    """Align recovered points to a reference by minimum-cost assignment.

    Matching is restricted to points with equal labels, since candidates are
    only permutation-ambiguous within a label class: each class's s x s
    matrix of Euclidean distances goes to `_min_cost_assignment`. Returns
    the recovered points reordered to line up with `reference`, plus
    per-row Euclidean distances.
    """
    recovered = np.asarray(recovered, dtype=float)
    reference = np.asarray(reference, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if recovered.shape != reference.shape or labels.shape != (reference.shape[0],):
        raise ValueError("recovered, reference and labels must agree in shape")
    aligned = np.empty_like(reference)
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        block_rec = recovered[idx]
        costs = np.linalg.norm(reference[idx][:, None, :] - block_rec[None, :, :], axis=-1)
        aligned[idx] = block_rec[_min_cost_assignment(costs)]
    distances = np.linalg.norm(aligned - reference, axis=1)
    return aligned, distances


def _output_distances(oracle: ModelOracle, holdout: Dataset, models: Iterable[TrainedGP]) -> list[float]:
    """Query the oracle on the holdout, then each of `models`' mean absolute
    latent-mean distance to it; a lazy `models` fits each once the queries are done."""
    targets = _observed_means(oracle, holdout.features)
    return [float(np.mean(np.abs(latent_mean_batch(gp, holdout.features) - targets))) for gp in models]


SWEEP_REGIMES = ("same", "mixed", "disjoint")
SWEEP_MODELS = 50


def estimate_lengthscale_sweep(
    oracle: ModelOracle,
    attacker_data: Dataset,
    regime: str,
    true_l_hint: float,
    holdout: Dataset,
    variance: float = 1.0,
) -> dict:
    """Train 50 attacker GPCs with lengthscales l_hint/2, l_hint/2 + l_hint/50, ...
    and record the mean absolute output distance to the oracle on a holdout.

    `regime` tags how attacker_data relates to the victim's training data
    (same / mixed / disjoint); the caller assembles the data accordingly.
    The argmin of the distance curve is the lengthscale estimate.
    """
    if regime not in SWEEP_REGIMES:
        raise ValueError(f"unknown sweep regime {regime!r}")
    if not true_l_hint > 0:
        raise ValueError("true_l_hint must be positive")
    if np.any(rows_in(attacker_data.features, holdout.features)):
        raise ValueError("holdout must be disjoint from the attacker's training data")

    start_count = oracle.query_count
    lengths = [float(l) for l in true_l_hint / 2.0 + np.arange(SWEEP_MODELS) * (true_l_hint / SWEEP_MODELS)]
    specs = [KernelSpec(RBF, lengthscale=length, variance=variance) for length in lengths]
    path = _LengthscalePath(attacker_data.features)  # the fits share one point set
    models = (fit_classification_laplace(spec, attacker_data, gram=path.gram(spec)) for spec in specs)
    curve = list(zip(lengths, _output_distances(oracle, holdout, models)))
    argmin = curve[int(np.argmin([c[1] for c in curve]))][0]
    return {
        "regime": regime,
        "curve": curve,
        "argmin": argmin,
        "queries_used": oracle.query_count - start_count,
    }


def identify_kernel(
    oracle: ModelOracle,
    candidates: Sequence[KernelSpec],
    train_data: Dataset,
    holdout: Dataset,
) -> list[tuple[KernelSpec, float]]:
    """Fit one GPC per candidate kernel on the (known) training data and rank
    candidates by mean absolute output distance on the holdout, ascending."""
    if len(candidates) == 0:
        raise ValueError("need at least one candidate kernel")
    models = (fit_classification_laplace(spec, train_data) for spec in candidates)
    return sorted(zip(candidates, _output_distances(oracle, holdout, models)), key=lambda pair: pair[1])


def write_sweep_csv(path, sweep: dict):
    write_lines(path, ["l_a,distance", *(f"{length!r},{distance!r}" for length, distance in sweep["curve"])])


def write_kernel_distances_csv(path, ranking: Sequence[tuple[KernelSpec, float]]):
    write_lines(path, ["kernel,distance", *(f"{spec.family},{distance!r}" for spec, distance in ranking)])
