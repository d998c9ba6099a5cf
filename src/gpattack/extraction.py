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
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Dataset, rows_in, write_lines
from .gp import TrainedGP, fit_classification_laplace, fit_regression, latent_mean, latent_mean_batch, predict
from .kernels import RBF, KernelSpec, _differences, _rbf, _scaled_sq_sum

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
    """Black-box query interface: point -> (mean, variance), with a counter.

    The counter increments atomically by exactly one per query, so
    concurrent attackers can share one oracle and the accounting stays
    exact.
    """

    def __init__(self, query_fn: Callable[[np.ndarray], tuple[float, float]]):
        self._query_fn = query_fn
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_gp(cls, gp: TrainedGP) -> "ModelOracle":
        def query_fn(x: np.ndarray) -> tuple[float, float]:
            p = predict(gp, x)
            return p.mean, p.variance

        return cls(query_fn)

    def query(self, x) -> tuple[float, float]:
        """(mean, variance) at x. Only answered queries are counted: a NaN
        or infinite point, or one the model refuses, raises ValueError."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(f"query point is not finite: {x.tolist()}")
        mean, variance = self._query_fn(x)
        with self._lock:
            self._count += 1
        return float(mean), float(variance)

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


RECOVERY_MAX_EVALUATIONS = 150  # residual evaluations per least-squares start
RECOVERY_TOL = 1e-9  # the residual norm below which a recovery has converged


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
    `query_budget` >= n*d+1 probes and minimizes it with scipy's
    `least_squares` (trust-region reflective, finite-difference Jacobian
    with relative step 1e-6, at most 150 residual evaluations per start),
    from a matched-probe start and then seeded random restarts, until the
    residual norm is below 1e-9. `cost_history` holds the best
    start's squared residual norm at its start and after each accepted
    step. `probe_box` is the attacker's prior on where the data lives, a
    (lo, hi) pair of scalars or per-dimension vectors. Recovered anchors are
    permutation-ambiguous within a label class; use `match_points` to align
    them with a reference.
    """
    from scipy.optimize import least_squares  # imported here: large, and only extract uses it
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

    def residual_vector(flat: np.ndarray) -> np.ndarray:
        candidate = Dataset(flat.reshape(n, d), labels)
        gp = fit_regression(spec, candidate, jitter)
        return latent_mean_batch(gp, probes) - targets

    def matched_probe_init() -> np.ndarray:
        # seed each candidate anchor at the unclaimed probe responding most
        # strongly with that anchor's sign
        taken: set[int] = set()
        init = np.empty((n, d))
        for i in np.argsort(-np.abs(labels)):  # stable order over anchors
            scores = labels[i] * targets
            for q in np.argsort(-scores):
                if int(q) not in taken:
                    taken.add(int(q))
                    init[i] = probes[q]
                    break
        return init.ravel()

    best_flat: np.ndarray | None = None
    best_cost = np.inf
    history: list[float] = []
    for restart in range(max(restarts, 1)):
        flat = matched_probe_init() if restart == 0 else rng.uniform(lo, hi, size=(n, d)).ravel()
        r = residual_vector(flat)
        run_history = [float(r @ r)]

        def record(intermediate_result):
            c = 2.0 * float(intermediate_result.cost)  # scipy's cost is half the squared norm
            if c < run_history[-1]:  # an iteration whose step was rejected repeats the cost
                run_history.append(c)
            if c < RECOVERY_TOL**2:
                raise StopIteration

        solution = least_squares(
            residual_vector,
            flat,
            method="trf",
            diff_step=1e-6,
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
            max_nfev=RECOVERY_MAX_EVALUATIONS,
            callback=record,
        )
        c = float(solution.fun @ solution.fun)
        if c < best_cost:
            best_cost, best_flat, history = c, solution.x, run_history
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


def match_points(recovered, reference, labels) -> tuple[np.ndarray, np.ndarray]:
    """Align recovered points to a reference by minimum-cost assignment.

    Matching is restricted to points with equal labels, since candidates are
    only permutation-ambiguous within a label class. Returns the recovered
    points reordered to line up with `reference`, plus per-row Euclidean
    distances.
    """
    from scipy.optimize import linear_sum_assignment
    recovered = np.asarray(recovered, dtype=float)
    reference = np.asarray(reference, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if recovered.shape != reference.shape or labels.shape != (reference.shape[0],):
        raise ValueError("recovered, reference and labels must agree in shape")
    aligned = np.empty_like(reference)
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        block_rec = recovered[idx]
        block_ref = reference[idx]
        costs = np.linalg.norm(block_ref[:, None, :] - block_rec[None, :, :], axis=-1)
        rows, cols = linear_sum_assignment(costs)
        aligned[idx[rows]] = block_rec[cols]
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
    if holdout.n < 1:
        raise ValueError("holdout must be nonempty")
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
    if holdout.n < 1:
        raise ValueError("holdout must be nonempty")
    models = (fit_classification_laplace(spec, train_data) for spec in candidates)
    return sorted(zip(candidates, _output_distances(oracle, holdout, models)), key=lambda pair: pair[1])


def write_sweep_csv(path, sweep: dict):
    write_lines(path, ["l_a,distance", *(f"{length!r},{distance!r}" for length, distance in sweep["curve"])])


def write_kernel_distances_csv(path, ranking: Sequence[tuple[KernelSpec, float]]):
    write_lines(path, ["kernel,distance", *(f"{spec.family},{distance!r}" for spec, distance in ranking)])
