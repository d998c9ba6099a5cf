"""The traced layers: which gpattack functions the traced pass wraps, and the
per-layer metrics computed from their spans.

Counts and times are per experiment, averaged over the traced experiments
at the run's seed; the evasion latencies pool every attacked point.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

ATTACKS = ("gpfgs", "gpjm", "cw_l2")
WRITERS = (
    "gp.save_gp",
    "gp.write_grid_csv",
    "evasion.write_attack_sets_csv",
    "extraction.write_sweep_csv",
    "extraction.write_kernel_distances_csv",
)
# an evasion tail is the highest percentile with at least this many samples beyond it
TAIL_SAMPLES_BEYOND = 10


def _rows(points) -> int:
    shape = np.shape(points)
    return shape[0] if len(shape) == 2 else 1


def _attack_info(args, kwargs, result):
    return result.success, result.iterations_used


def targets() -> list:
    """(span name, owner, attribute, info) for every traced call."""
    from gpattack import data, evasion, extraction, gp, kernels, membership, secure

    return [
        ("data.generate", data, "generate_two_moons", None),
        ("data.split", data, "split", None),
        ("kernels.kernel_matrix", kernels, "kernel_matrix", lambda a, k, r: (r.size, np.shape(a[1])[-1])),
        ("kernels.kernel_gradient_x_batch", kernels, "kernel_gradient_x_batch", None),
        ("gp.fit_regression", gp, "fit_regression", None),
        ("gp.fit_classification_laplace", gp, "fit_classification_laplace", None),
        ("gp.cholesky", gp, "dpotrf", lambda a, k, r: np.shape(a[0])[0]),
        ("gp.latent_mean", gp, "latent_mean", None),
        ("gp.latent_mean_batch", gp, "latent_mean_batch", lambda a, k, r: len(r)),
        ("gp.latent_gradient", gp, "latent_gradient", None),
        ("gp.predict", gp, "predict", None),
        ("gp.predict_batch", gp, "predict_batch", lambda a, k, r: len(r[0])),
        ("gp.accuracy", gp, "accuracy", None),
        ("gp.decision_grid", gp, "decision_grid", None),
        ("gp.save_gp", gp, "save_gp", None),
        ("gp.write_grid_csv", gp.DecisionGrid, "write_csv", None),
        ("evasion.gpfgs", evasion, "gpfgs", _attack_info),
        ("evasion.gpjm", evasion, "gpjm", _attack_info),
        ("evasion.cw_l2", evasion, "cw_l2", _attack_info),
        ("evasion.write_attack_sets_csv", evasion, "write_attack_sets_csv", None),
        ("extraction.oracle", extraction.ModelOracle, "query", None),
        ("extraction.lengthscale_analytic", extraction, "extract_lengthscale_analytic", lambda a, k, r: r.converged),
        ("extraction.recover_data", extraction, "recover_training_data_analytic", None),
        ("extraction.sweep", extraction, "estimate_lengthscale_sweep", None),
        ("extraction.identify_kernel", extraction, "identify_kernel", None),
        ("extraction.write_sweep_csv", extraction, "write_sweep_csv", None),
        ("extraction.write_kernel_distances_csv", extraction, "write_kernel_distances_csv", None),
        ("membership.build_attack_dataset", membership, "build_attack_dataset", None),
        ("membership.train_attack_classifier", membership, "train_attack_classifier", None),
        ("membership.forest_predict", membership.AttackClassifier, "predict", lambda a, k, r: len(r)),
        ("membership.overfitting_gap", membership, "overfitting_gap", None),
        ("membership.distribution_drift", membership, "distribution_drift", None),
        ("secure.build_secure_classifier", secure, "build_secure_classifier", None),
        ("secure.equivalence_check", secure, "equivalence_check", lambda a, k, r: _rows(a[3])),
        ("secure.generalization_probe", secure, "generalization_probe", lambda a, k, r: _rows(a[3])),
    ]


class _Totals:
    __slots__ = ("calls", "total", "self", "info")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.info = []


def _tail(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[max(len(ordered) - TAIL_SAMPLES_BEYOND - 1, 0)]


def tail_percentile(count: int) -> float:
    return 100.0 * max(count - TAIL_SAMPLES_BEYOND, 0) / count if count else 0.0


def layer_metrics(spans, experiments, seed_experiments) -> dict[str, float]:
    """Per-layer metrics from `spans`.

    `experiments` are the ids of the traced experiments at the run's seed;
    `seed_experiments` holds one traced experiment id per distinct seed run,
    over which the lengthscale `converged` flag is averaged.
    """
    k = len(experiments)
    wanted = set(experiments)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def under(index: int, ancestor: str) -> bool:
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    totals = defaultdict(_Totals)
    nested = defaultdict(int)  # (name, ancestor) -> calls
    for i, span in enumerate(spans):
        if span.experiment not in wanted:
            continue
        t = totals[span.name]
        t.calls += 1
        t.total += span.duration
        t.self += span.duration - child_time[i]
        if span.info is not None:
            t.info.append(span.info)
        if span.name in ("gp.fit_regression", "gp.fit_classification_laplace", "extraction.oracle"):
            for ancestor in ("extraction.lengthscale_analytic", "extraction.recover_data", "extraction.sweep"):
                if under(i, ancestor):
                    nested[(span.name, ancestor)] += 1

    def per(value: float) -> float:
        return value / k

    m: dict[str, float] = {}
    kernel = totals["kernels.kernel_matrix"]
    m["kernels.kernel_matrix.calls"] = per(kernel.calls)
    m["kernels.kernel_matrix.self_s"] = per(kernel.self)
    entries = sum(size for size, _ in kernel.info)
    m["kernels.kernel_matrix.entries"] = per(entries)
    m["kernels.kernel_matrix.computed_bytes"] = per(sum(size * d * 8 for size, d in kernel.info))
    grad = totals["kernels.kernel_gradient_x_batch"]
    m["kernels.kernel_gradient_x_batch.calls"] = per(grad.calls)
    m["kernels.kernel_gradient_x_batch.self_s"] = per(grad.self)

    for name in ("fit_regression", "fit_classification_laplace", "latent_mean", "latent_gradient",
                 "predict_batch", "accuracy"):
        t = totals[f"gp.{name}"]
        m[f"gp.{name}.calls"] = per(t.calls)
        m[f"gp.{name}.self_s"] = per(t.self)
    chol = totals["gp.cholesky"]
    m["gp.cholesky.calls"] = per(chol.calls)
    m["gp.cholesky.self_s"] = per(chol.self)
    m["gp.cholesky.order_mean"] = statistics.fmean(chol.info) if chol.info else 0.0
    m["gp.latent_mean_batch.calls"] = per(totals["gp.latent_mean_batch"].calls)
    m["gp.latent_mean_batch.rows"] = per(sum(totals["gp.latent_mean_batch"].info))
    m["gp.predict.calls"] = per(totals["gp.predict"].calls)
    m["gp.predict_batch.rows"] = per(sum(totals["gp.predict_batch"].info))
    m["gp.decision_grid.self_s"] = per(totals["gp.decision_grid"].self)
    m["gp.save_gp.self_s"] = per(totals["gp.save_gp"].self)

    for attack in ATTACKS:
        t = totals[f"evasion.{attack}"]
        samples = [span.duration for span in spans if span.experiment in wanted and span.name == f"evasion.{attack}"]
        m[f"evasion.{attack}.calls"] = per(t.calls)
        m[f"evasion.{attack}.p50_s"] = statistics.median(samples) if samples else 0.0
        m[f"evasion.{attack}.tail_s"] = _tail(samples) if samples else 0.0
        m[f"evasion.{attack}.tail_samples"] = len(samples)
        m[f"evasion.{attack}.success_rate"] = statistics.fmean(s for s, _ in t.info) if t.info else 0.0
    m["evasion.cw_l2.iterations"] = per(sum(i for _, i in totals["evasion.cw_l2"].info))

    oracle = totals["extraction.oracle"]
    m["extraction.oracle.queries"] = per(oracle.calls)
    m["extraction.oracle.self_s"] = per(oracle.self)
    analytic = "extraction.lengthscale_analytic"
    m[f"{analytic}.total_s"] = per(totals[analytic].total)
    queries = nested[("extraction.oracle", analytic)]
    m[f"{analytic}.refits"] = nested[("gp.fit_regression", analytic)] / (queries / 2) if queries else 0.0
    flags = [
        span.info for span in spans if span.experiment in seed_experiments and span.name == analytic
    ]
    m[f"{analytic}.converged_fraction"] = statistics.fmean(flags) if flags else 0.0
    m["extraction.recover_data.total_s"] = per(totals["extraction.recover_data"].total)
    m["extraction.recover_data.refits"] = per(nested[("gp.fit_regression", "extraction.recover_data")])
    m["extraction.sweep.total_s"] = per(totals["extraction.sweep"].total)
    m["extraction.sweep.fits"] = per(nested[("gp.fit_classification_laplace", "extraction.sweep")])
    m["extraction.identify_kernel.total_s"] = per(totals["extraction.identify_kernel"].total)

    for name in ("build_attack_dataset", "train_attack_classifier", "forest_predict"):
        m[f"membership.{name}.total_s"] = per(totals[f"membership.{name}"].total)
    m["membership.forest_predict.rows"] = per(sum(totals["membership.forest_predict"].info))
    m["membership.diagnostics.total_s"] = per(
        totals["membership.overfitting_gap"].total + totals["membership.distribution_drift"].total
    )

    m["secure.build_secure_classifier.total_s"] = per(totals["secure.build_secure_classifier"].total)
    m["secure.equivalence_check.total_s"] = per(totals["secure.equivalence_check"].total)
    m["secure.equivalence_check.probes"] = per(sum(totals["secure.equivalence_check"].info))
    m["secure.generalization_probe.total_s"] = per(totals["secure.generalization_probe"].total)
    m["secure.generalization_probe.points"] = per(sum(totals["secure.generalization_probe"].info))

    m["data.generate.total_s"] = per(totals["data.generate"].total)
    m["data.split.total_s"] = per(totals["data.split"].total)
    m["cli.writers.total_s"] = per(sum(totals[name].total for name in WRITERS))
    return m
