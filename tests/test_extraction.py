import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gpattack import cli, extraction
from gpattack.data import Dataset, generate_blobs, generate_two_moons, split
from gpattack.extraction import (
    DATA_KNOWN_PER_DIM,
    DATA_KNOWN_SINGLE,
    LENGTHSCALE_KNOWN_PER_DIM,
    LENGTHSCALE_KNOWN_SINGLE,
    NOTHING_KNOWN_PER_DIM,
    NOTHING_KNOWN_SINGLE,
    BracketingError,
    ModelOracle,
    estimate_lengthscale_sweep,
    extract_lengthscale_analytic,
    identify_kernel,
    match_points,
    query_complexity,
    recover_training_data_analytic,
    write_kernel_distances_csv,
    write_sweep_csv,
)
from gpattack.gp import fit_classification_laplace, fit_regression, latent_mean, predict
from gpattack.kernels import LINEAR, POLY, RBF, KernelSpec


def regression_victim(seed=0, n=5, d=2, lengthscale=1.3, jitter=1e-8):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    data = Dataset(X, y)
    gp = fit_regression(KernelSpec(RBF, lengthscale=lengthscale), data, jitter)
    return gp, data


def per_residual_estimate(probes, observed, data, jitter, interval, scan_points=64, residual_tol=1e-8):
    """The analytic lengthscale recovery with a separate refit for every
    residual evaluation: the reference for the shared-refit scan."""

    def residual(k, length):
        gp = fit_regression(KernelSpec(RBF, lengthscale=length), data, jitter)
        return observed[k] - latent_mean(gp, probes[k])

    grid = np.geomspace(interval[0], interval[1], scan_points)
    candidates = []
    for k in (0, 1):
        values = np.array([residual(k, l) for l in grid])
        candidates.extend(float(grid[i]) for i in np.flatnonzero(values == 0.0))
        for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
            log_lo, log_hi, r_lo = np.log(grid[i]), np.log(grid[i + 1]), values[i]
            while (log_hi - log_lo) > 1e-13:
                log_mid = 0.5 * (log_lo + log_hi)
                r_mid = residual(k, float(np.exp(log_mid)))
                if r_mid == 0.0:
                    log_lo = log_hi = log_mid
                    break
                if np.sign(r_mid) == np.sign(r_lo):
                    log_lo, r_lo = log_mid, r_mid
                else:
                    log_hi = log_mid
            candidates.append(float(np.exp(0.5 * (log_lo + log_hi))))
    best = None
    for root in candidates:
        worst = max(abs(residual(0, root)), abs(residual(1, root)))
        if best is None or worst < best[1]:
            best = (root, worst)
        if worst < residual_tol:
            break
    return best


class RecordingOracle(ModelOracle):
    """A victim's oracle that keeps every point it answered and the mean it gave."""

    def __init__(self, gp):
        self.asked, self.means = [], []

        def answer(x):
            p = predict(gp, x)
            self.asked.append(x)
            self.means.append(p.mean)
            return p.mean, p.variance

        super().__init__(answer)


class TestModelOracle:
    def test_counts_one_per_query(self):
        gp, _ = regression_victim()
        oracle = ModelOracle.from_gp(gp)
        assert oracle.query_count == 0
        mean, variance = oracle.query(np.zeros(2))
        assert oracle.query_count == 1
        assert np.isfinite(mean) and variance >= 0
        oracle.query(np.ones(2))
        assert oracle.query_count == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_rejected_and_not_counted(self, bad):
        gp, _ = regression_victim()
        oracle = RecordingOracle(gp)
        oracle.query(np.zeros(2))
        for point in (np.array([bad, 0.0]), np.array([0.0, bad])):
            with pytest.raises(ValueError, match="not finite"):
                oracle.query(point)
        assert oracle.query_count == 1
        assert len(oracle.asked) == 1

    @pytest.mark.parametrize(
        "point", [np.zeros(3), np.zeros((1, 2)), np.float64(0.0)], ids=["wrong-dimension", "matrix", "scalar"]
    )
    def test_refused_query_not_counted(self, point):
        oracle = ModelOracle.from_gp(regression_victim()[0])
        oracle.query(np.zeros(2))
        with pytest.raises(ValueError):
            oracle.query(point)
        assert oracle.query_count == 1

    def test_concurrent_counting(self):
        oracle = ModelOracle(lambda x: (0.0, 1.0))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: oracle.query(np.array([float(i)])), range(800)))
        assert oracle.query_count == 800


class TestQueryComplexity:
    def test_headline_counts(self):
        assert query_complexity(DATA_KNOWN_SINGLE, 500, 10).queries == 2
        assert query_complexity(LENGTHSCALE_KNOWN_PER_DIM, 3, 2).queries == 7
        estimate = query_complexity(NOTHING_KNOWN_PER_DIM, 3, 2)
        assert estimate.queries == 13
        assert estimate.is_lower_bound_only

    @pytest.mark.parametrize(
        "regime,expected,lower",
        [
            (DATA_KNOWN_SINGLE, lambda n, d: 2, False),
            (DATA_KNOWN_PER_DIM, lambda n, d: d + 1, False),
            (LENGTHSCALE_KNOWN_SINGLE, lambda n, d: n + 1, False),
            (LENGTHSCALE_KNOWN_PER_DIM, lambda n, d: n * d + 1, False),
            (NOTHING_KNOWN_SINGLE, lambda n, d: n * d + 1, True),
            (NOTHING_KNOWN_PER_DIM, lambda n, d: n * 2 * d + 1, True),
        ],
    )
    def test_grid(self, regime, expected, lower):
        for n in (1, 2, 7, 100):
            for d in (1, 3, 20):
                estimate = query_complexity(regime, n, d)
                assert estimate.queries == expected(n, d)
                assert estimate.is_lower_bound_only == lower
                assert estimate.regime == regime

    def test_validation(self):
        with pytest.raises(ValueError):
            query_complexity("bogus", 1, 1)
        with pytest.raises(ValueError):
            query_complexity(DATA_KNOWN_SINGLE, 0, 1)


class TestLengthscaleExtraction:
    def test_recovers_self_play_victim(self):
        gp, data = regression_victim(lengthscale=1.3)
        oracle = ModelOracle.from_gp(gp)
        report = extract_lengthscale_analytic(oracle, data, 1e-8, (0.1, 10.0), seed=0)
        assert abs(report.estimate - 1.3) / 1.3 < 1e-6
        assert report.queries_used == 2
        assert report.converged

    def test_true_candidate_has_zero_residual(self):
        # the refit at the victim's lengthscale reproduces the oracle exactly
        gp, data = regression_victim(lengthscale=0.9)
        oracle = ModelOracle.from_gp(gp)
        probe = np.array([0.123, -0.456])
        observed = oracle.query(probe)[0]
        refit = fit_regression(KernelSpec(RBF, lengthscale=0.9), data, 1e-8)
        assert abs(observed - latent_mean(refit, probe)) < 1e-10

    def test_interval_excluding_root_raises(self):
        gp, data = regression_victim(lengthscale=1.3)
        oracle = ModelOracle.from_gp(gp)
        with pytest.raises(BracketingError) as err:
            extract_lengthscale_analytic(oracle, data, 1e-8, (5.0, 10.0), seed=0)
        assert np.isfinite(err.value.residual_lo)
        assert np.isfinite(err.value.residual_hi)

    def test_scan_refits_once_per_grid_point(self, monkeypatch):
        refit_lengths = []
        real_fit = extraction.fit_regression

        def counting_fit(spec, data, jitter=None, **kwargs):
            refit_lengths.append(spec.lengthscale)
            return real_fit(spec, data, jitter, **kwargs)

        monkeypatch.setattr(extraction, "fit_regression", counting_fit)
        gp, data = regression_victim(lengthscale=1.3)
        # no root in the interval: the scan is all the work done
        with pytest.raises(BracketingError):
            extract_lengthscale_analytic(ModelOracle.from_gp(gp), data, 1e-8, (5.0, 10.0))
        assert refit_lengths == list(np.geomspace(5.0, 10.0, extraction.SCAN_POINTS))

        refit_lengths.clear()
        report = extract_lengthscale_analytic(ModelOracle.from_gp(gp), data, 1e-8, (0.1, 10.0))
        grid = list(np.geomspace(0.1, 10.0, extraction.SCAN_POINTS))
        assert refit_lengths[: len(grid)] == grid
        assert sum(length in grid for length in refit_lengths) == len(grid)
        assert report.converged

    def test_first_converged_candidate_ends_the_search(self, monkeypatch):
        # both probes' residuals change sign once, at the true lengthscale,
        # and the first probe's root converges: the second probe's bracket,
        # which the eager reference bisects too, is never refit
        refit_lengths = []
        real_fit = extraction.fit_regression

        def counting_fit(spec, data, jitter=None, **kwargs):
            refit_lengths.append(spec.lengthscale)
            return real_fit(spec, data, jitter, **kwargs)

        gp, data = regression_victim(seed=6, lengthscale=1.3)
        oracle = RecordingOracle(gp)
        monkeypatch.setattr(extraction, "fit_regression", counting_fit)
        report = extract_lengthscale_analytic(oracle, data, 1e-8, (0.1, 10.0))
        monkeypatch.undo()

        grid = np.geomspace(0.1, 10.0, extraction.SCAN_POINTS)
        brackets = []
        for probe, observed in zip(oracle.asked, oracle.means):
            refits = (fit_regression(KernelSpec(RBF, lengthscale=l), data, 1e-8) for l in grid)
            values = [observed - latent_mean(refit, probe) for refit in refits]
            brackets += [(grid[i], grid[i + 1]) for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)]
        assert len(brackets) == 2 and brackets[0] == brackets[1]
        refined = refit_lengths[len(grid) :]
        # one bisection of about 40 steps on the first probe's residual and
        # one check, where the eager search bisects both brackets
        assert len(refined) < 60
        assert all(brackets[0][0] <= length <= brackets[0][1] for length in refined)
        assert refined[-1] == report.estimate
        estimate, residual = per_residual_estimate(oracle.asked, oracle.means, data, 1e-8, (0.1, 10.0))
        assert (report.estimate, report.residual, report.converged) == (estimate, residual, True)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_residual_refits(self, seed):
        rng = np.random.default_rng(700 + seed)
        true_l = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        gp, data = regression_victim(seed=seed, n=n, d=d, lengthscale=true_l)
        oracle = RecordingOracle(gp)
        report = extract_lengthscale_analytic(oracle, data, 1e-8, (0.1, 10.0), seed=seed)
        assert report.queries_used == 2
        estimate, residual = per_residual_estimate(oracle.asked, oracle.means, data, 1e-8, (0.1, 10.0))
        assert report.estimate == estimate
        assert report.residual == residual

    def test_bad_interval(self):
        gp, data = regression_victim()
        with pytest.raises(ValueError):
            extract_lengthscale_analytic(ModelOracle.from_gp(gp), data, 1e-8, (2.0, 1.0))

    def test_exactness_over_random_tasks(self):
        for task in range(15):
            rng = np.random.default_rng(500 + task)
            n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
            X = rng.uniform(-2, 2, size=(n, d))
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            true_l = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
            victim = fit_regression(KernelSpec(RBF, lengthscale=true_l), Dataset(X, y), 1e-8)
            report = extract_lengthscale_analytic(
                ModelOracle.from_gp(victim), Dataset(X, y), 1e-8, (0.1, 10.0), seed=task
            )
            assert abs(report.estimate - true_l) / true_l < 1e-6
            assert report.queries_used == 2

    # Two known defects of the analytic recovery on the benchmark's extract
    # config (two moons, n = 400, noise 0.2). Strict: a fix must flip them.
    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(
                140,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="no sign change over the scan: BracketingError, extract exits 1",
                ),
            ),
            pytest.param(
                7014,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="both residuals cross zero twice in one scan interval: 0.249956 against 0.2",
                ),
            ),
        ],
    )
    def test_cli_extract_recovers_the_lengthscale(self, seed, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"generator": "two_moons", "n": 400, "noise": 0.2}, "seed": seed}))
        out = tmp_path / "out"
        assert cli.main(["extract", "--config", str(config), "--out", str(out)]) == 0
        lengthscale = json.loads((out / "extraction.json").read_text())["lengthscale"]
        assert abs(lengthscale["estimate"] - lengthscale["true"]) / lengthscale["true"] < 1e-6


class TestTrainingDataRecovery:
    def test_two_by_two_recovery(self):
        rng = np.random.default_rng(1)
        anchors = rng.uniform(-1, 1, size=(2, 2))
        labels = np.array([1.0, -1.0])
        spec = KernelSpec(RBF, lengthscale=1.0)
        victim = fit_regression(spec, Dataset(anchors, labels), 1e-8)
        oracle = ModelOracle.from_gp(victim)
        report = recover_training_data_analytic(
            oracle, spec, 2, 2, labels, 12, jitter=1e-8, probe_box=(-3, 3), seed=1
        )
        matched, distances = match_points(report.estimate, anchors, labels)
        assert np.max(distances) < 1e-2
        assert report.queries_used == 12

    def test_single_anchor_matches_grid_peak(self):
        # independent oracle: the mean surface peaks at the anchor, found by
        # brute-force grid search
        spec = KernelSpec(RBF, lengthscale=1.0)
        anchor = np.array([[0.0]])
        labels = np.array([1.0])
        victim = fit_regression(spec, Dataset(anchor, labels), 1e-10)
        grid = np.linspace(-2, 2, 40001)
        means = np.array([latent_mean(victim, np.array([g])) for g in grid])
        assert abs(grid[int(np.argmax(means))]) < 1e-4

        oracle = ModelOracle.from_gp(victim)
        report = recover_training_data_analytic(
            oracle, spec, 1, 1, labels, 4, jitter=1e-10, probe_box=(-2, 2), seed=0
        )
        assert abs(float(report.estimate[0, 0])) < 1e-6

    def test_budget_bound_enforced(self):
        gp, data = regression_victim()
        oracle = ModelOracle.from_gp(gp)
        with pytest.raises(ValueError, match="n\\*d\\+1"):
            recover_training_data_analytic(oracle, gp.spec, 2, 2, [1.0, -1.0], 4)

    def test_minimal_budget_matches_complexity(self):
        rng = np.random.default_rng(4)
        anchors = rng.uniform(-1, 1, size=(2, 2))
        labels = np.array([1.0, -1.0])
        spec = KernelSpec(RBF, lengthscale=1.0)
        victim = fit_regression(spec, Dataset(anchors, labels), 1e-8)
        oracle = ModelOracle.from_gp(victim)
        bound = query_complexity(LENGTHSCALE_KNOWN_PER_DIM, 2, 2).queries
        report = recover_training_data_analytic(
            oracle, spec, 2, 2, labels, bound, jitter=1e-8, probe_box=(-3, 3), seed=4
        )
        assert report.queries_used == bound

    def test_cost_history_monotone(self):
        rng = np.random.default_rng(7)
        anchors = rng.uniform(-1, 1, size=(2, 2))
        labels = np.array([1.0, -1.0])
        spec = KernelSpec(RBF, lengthscale=1.0)
        victim = fit_regression(spec, Dataset(anchors, labels), 1e-8)
        report = recover_training_data_analytic(
            ModelOracle.from_gp(victim), spec, 2, 2, labels, 12, jitter=1e-8, probe_box=(-3, 3), seed=7
        )
        history = report.cost_history
        assert len(history) >= 2
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_match_points_alignment(self):
        reference = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        labels = np.array([1.0, 1.0, -1.0])
        shuffled = reference[[1, 0, 2]] + 1e-3
        aligned, distances = match_points(shuffled, reference, labels)
        assert np.allclose(aligned, reference, atol=2e-3)
        assert np.max(distances) < 2e-3


class TestLengthscaleSweep:
    @staticmethod
    def _setup(seed=0, lengthscale=1.0):
        data = generate_blobs(120, 2, 4.0, seed)
        train, rest = split(data, 0.5, seed)
        victim = fit_classification_laplace(KernelSpec(RBF, lengthscale=lengthscale), train)
        holdout = rest.subset(np.arange(40))
        return ModelOracle.from_gp(victim), train, holdout

    def test_same_data_regime_recovers_lengthscale(self):
        oracle, train, holdout = self._setup()
        sweep = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        assert abs(sweep["argmin"] - 1.0) <= 1.0 / 50 + 1e-12

    def test_zero_distance_at_true_lengthscale(self):
        oracle, train, holdout = self._setup()
        sweep = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        by_l = dict(sweep["curve"])
        assert by_l[1.0] < 1e-8

    def test_curve_shape(self):
        oracle, train, holdout = self._setup()
        sweep = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        lengths = [l for l, _ in sweep["curve"]]
        assert len(lengths) == 50
        assert lengths[0] == pytest.approx(0.5)
        assert lengths[-1] == pytest.approx(0.5 + 49 / 50)
        assert max(lengths) < 1.5

    def test_holdout_disjointness_enforced(self):
        oracle, train, _ = self._setup()
        with pytest.raises(ValueError):
            estimate_lengthscale_sweep(oracle, train, "same", 1.0, train.subset([0, 1]))

    def test_regime_validation(self):
        oracle, train, holdout = self._setup()
        with pytest.raises(ValueError):
            estimate_lengthscale_sweep(oracle, train, "all", 1.0, holdout)

    def test_deterministic(self):
        oracle, train, holdout = self._setup()
        a = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        b = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        assert a["curve"] == b["curve"]

    def test_csv(self, tmp_path):
        oracle, train, holdout = self._setup()
        sweep = estimate_lengthscale_sweep(oracle, train, "same", 1.0, holdout)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "l_a,distance"
        assert len(lines) == 51


class TestIdentifyKernel:
    @staticmethod
    def _setup(seed=3):
        data = generate_two_moons(120, 0.15, seed)
        train, rest = split(data, 0.5, seed)
        victim = fit_classification_laplace(KernelSpec(RBF, lengthscale=0.4), train)
        holdout = rest.subset(np.arange(40))
        return ModelOracle.from_gp(victim), train, holdout

    def test_matching_candidate_wins(self):
        oracle, train, holdout = self._setup()
        candidates = [KernelSpec(RBF, lengthscale=0.4), KernelSpec(LINEAR), KernelSpec(POLY)]
        ranking = identify_kernel(oracle, candidates, train, holdout)
        assert ranking[0][0].family == RBF
        assert ranking[0][1] < 1e-8
        assert all(a[1] <= b[1] for a, b in zip(ranking, ranking[1:]))

    def test_single_candidate(self):
        oracle, train, holdout = self._setup()
        ranking = identify_kernel(oracle, [KernelSpec(LINEAR)], train, holdout)
        assert len(ranking) == 1

    def test_empty_candidates(self):
        oracle, train, holdout = self._setup()
        with pytest.raises(ValueError):
            identify_kernel(oracle, [], train, holdout)

    def test_csv(self, tmp_path):
        oracle, train, holdout = self._setup()
        ranking = identify_kernel(oracle, [KernelSpec(RBF, lengthscale=0.4), KernelSpec(LINEAR)], train, holdout)
        path = tmp_path / "kernels.csv"
        write_kernel_distances_csv(path, ranking)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kernel,distance"
        assert len(lines) == 3


class TestQueryAccounting:
    def test_reported_queries_match_counter_delta(self):
        gp, data = regression_victim(seed=9, lengthscale=1.1)
        oracle = ModelOracle.from_gp(gp)
        report = extract_lengthscale_analytic(oracle, data, 1e-8, (0.1, 10.0), seed=9)
        after_extraction = oracle.query_count
        assert report.queries_used == after_extraction

        spec = KernelSpec(RBF, lengthscale=1.1)
        rng = np.random.default_rng(2)
        anchors = rng.uniform(-1, 1, size=(2, 2))
        labels = np.array([1.0, -1.0])
        tiny_victim = fit_regression(spec, Dataset(anchors, labels), 1e-8)
        tiny_oracle = ModelOracle.from_gp(tiny_victim)
        recovery = recover_training_data_analytic(
            tiny_oracle, spec, 2, 2, labels, 9, jitter=1e-8, probe_box=(-3, 3), seed=2
        )
        assert recovery.queries_used == tiny_oracle.query_count

        classification = fit_classification_laplace(spec, generate_blobs(60, 2, 4.0, 0))
        sweep_oracle = ModelOracle.from_gp(classification)
        holdout = Dataset(rng.uniform(-3, 3, size=(20, 2)), np.where(rng.random(20) > 0.5, 1.0, -1.0))
        sweep = estimate_lengthscale_sweep(sweep_oracle, generate_blobs(60, 2, 4.0, 1), "disjoint", 1.1, holdout)
        assert sweep["queries_used"] == sweep_oracle.query_count == holdout.n

    def test_analytic_queries_within_complexity(self):
        gp, data = regression_victim(seed=12)
        oracle = ModelOracle.from_gp(gp)
        report = extract_lengthscale_analytic(oracle, data, 1e-8, (0.1, 10.0), seed=12)
        assert report.queries_used <= query_complexity(DATA_KNOWN_SINGLE, data.n, data.d).queries
