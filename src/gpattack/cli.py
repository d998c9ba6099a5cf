"""Reproducible experiment driver.

Each subcommand reads one JSON config (flags override file values), runs a
full pipeline with fixed seeds, and writes its reports plus a manifest
(config echo, seeds, versions, artifact checksums) into the output
directory. The manifest timestamp is the only nondeterministic byte in a
run: identical configs and seeds reproduce every report exactly.

Subcommands:
    train        fit the short/long victims, report accuracies, dump models
                 and (for 2-D data) decision grids
    evade        craft gpfgs/gpjm/cw attacks on the short victim and compare
                 both victims on the shared attack sets
    extract      analytic lengthscale + training-data recovery, lengthscale
                 sweep in all three data regimes, kernel identification
    membership   membership-inference pipeline with overfitting and drift
                 diagnostics for both victims
    secure-demo  rho-ball classifier equivalence check and the
                 generalization probe
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import Dataset, generate_blobs, generate_two_moons, load_csv, split, write_json
from .evasion import (
    AttackConfig,
    curvature_comparison,
    cw_l2_batch,
    gpfgs_batch,
    gpjm_batch,
    write_attack_sets_csv,
)
from .extraction import (
    ModelOracle,
    estimate_lengthscale_sweep,
    extract_lengthscale_analytic,
    identify_kernel,
    match_points,
    recover_training_data_analytic,
    write_kernel_distances_csv,
    write_sweep_csv,
)
from .gp import (
    RejectionPolicy,
    ZeroRejection,
    _scores,
    accuracy,
    decision_grid,
    fit_classification_laplace,
    fit_regression,
    grid_points,
    latent_mean_batch,
    save_gp,
)
from .kernels import FAMILIES, LINEAR, POLY, RBF, KernelSpec
from .membership import (
    build_attack_dataset,
    distribution_drift,
    evaluate_membership,
    overfitting_gap,
    split_attack_dataset,
    train_attack_classifier,
)
from .secure import build_secure_classifier, equivalence_check, generalization_probe

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "main"]

# Default lengthscale pair for CSV data, mirroring a digits-style task.
CSV_DEFAULT_SHORT = 1.0
CSV_DEFAULT_LONG = 8.0


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass
class ExperimentConfig:
    # a section also accepts its "optional" keys, which have a type but no default
    dataset: dict = field(
        default_factory=lambda: {"generator": "two_moons", "n": 120, "noise": 0.1},
        metadata={"optional": {"d": int, "separation": float, "csv": str, "label_column": str}},
    )
    kernel: dict = field(
        default_factory=lambda: {"family": RBF, "variance": 1.0},
        metadata={"optional": {"degree": int, "offset": float}},
    )
    lengthscale_short: float | None = None
    lengthscale_long: float | None = None
    rejection: dict = field(default_factory=lambda: {"tau0": 0.3, "tau1": 0.3})
    zero_rejection_eps: float = 1e-3
    train_fraction: float = 0.5
    seed: int = 0
    out: str = "reports"
    train: dict = field(default_factory=lambda: {"grid_resolution": 25})
    attack: dict = field(
        default_factory=lambda: {
            "points": 40,
            "epsilon": 0.3,
            "jsma_budget": 2,
            "jsma_step": 0.3,
            "cw_max_iter": 100,
            "cw_step_size": 0.02,
            "cw_confidence": 5.0,
        }
    )
    extract: dict = field(
        default_factory=lambda: {
            "interval": [0.05, 10.0],
            "jitter": 1e-8,
            "recover_n": 2,
            "recover_budget_factor": 3,
            "holdout": 100,
        }
    )
    membership: dict = field(
        default_factory=lambda: {
            "feature_set": ["latent_mean"],
            "attacker_fraction": 0.8,
            "trees": 100,
            "max_depth": 8,
        }
    )
    secure: dict = field(
        default_factory=lambda: {
            "rho": 0.4,
            "n_anchors": 4,
            "spacing_lengthscales": 20.0,
            "probes": 2000,
            "grid_resolution": 60,
        }
    )

    def __post_init__(self):
        # each section given in part is merged over its default, once
        for spec in fields(self):
            if spec.default_factory is MISSING:
                continue
            given = getattr(self, spec.name)
            if not isinstance(given, dict):
                raise ConfigError(spec.name, "must be a JSON object")
            section = spec.default_factory()
            unknown = given.keys() - section.keys() - spec.metadata.get("optional", {}).keys()
            if unknown:
                raise ConfigError(spec.name, f"unknown keys {sorted(unknown)}")
            section.update(given)
            setattr(self, spec.name, section)

    def validate(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            default = spec.default if spec.default_factory is MISSING else spec.default_factory()
            if isinstance(default, dict):  # an optional key is checked against a value of its type
                typed = {key: kind() for key, kind in spec.metadata.get("optional", {}).items()} | default
                for key in value:
                    _check_type(f"{spec.name}.{key}", value[key], typed[key])
                    if isinstance(typed[key], int) and value[key] < 1:  # every int in a section is a count
                        raise ConfigError(f"{spec.name}.{key}", f"must be at least 1, got {value[key]}")
            elif default is not None:
                _check_type(spec.name, value, default)
        interval = self.extract["interval"]
        if len(interval) != 2 or not 0 < interval[0] < interval[1]:
            raise ConfigError("extract.interval", f"need two numbers 0 < lo < hi, got {interval}")
        _check("extract.interval", KernelSpec, RBF, lengthscale=tuple(interval))  # the search's RBF lengthscales
        # f*n*d probes meet the n*d+1 recovery bound for every n and d exactly when f >= 2
        factor = self.extract["recover_budget_factor"]
        if factor < 2:
            raise ConfigError("extract.recover_budget_factor", f"must be at least 2, got {factor}")
        src = self.dataset
        if "csv" in src:
            if not Path(src["csv"]).is_file():
                raise ConfigError("dataset.csv", f"file not found: {src['csv']}")
            if "label_column" not in src:
                raise ConfigError("dataset.label_column", "required for CSV datasets")
        elif src["generator"] not in ("two_moons", "blobs"):
            raise ConfigError("dataset.generator", f"unknown generator {src['generator']!r}")
        short, long = (CSV_DEFAULT_SHORT, CSV_DEFAULT_LONG) if "csv" in src else (0.2, 2.0)
        if self.lengthscale_short is None:
            self.lengthscale_short = short
        if self.lengthscale_long is None:
            self.lengthscale_long = long
        _check_type("lengthscale_short", self.lengthscale_short, short)
        _check_type("lengthscale_long", self.lengthscale_long, long)
        if not 0 < self.lengthscale_short < self.lengthscale_long:
            raise ConfigError(
                "lengthscale_short",
                f"need 0 < short < long, got ({self.lengthscale_short}, {self.lengthscale_long})",
            )
        _check("kernel", KernelSpec, **self.kernel)
        for name in ("lengthscale_short", "lengthscale_long"):
            _check(name, _spec, self, getattr(self, name))
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction", "must lie in (0, 1)")
        _check("zero_rejection_eps", ZeroRejection, self.zero_rejection_eps)
        _check("rejection", RejectionPolicy, **self.rejection)


def _check_type(field_name: str, value, default):
    """A config value must have the type of its default: an int default
    needs an int that is not a bool, a float default takes an int or a
    float, and a list default's first item types every item. A float must
    be finite: NaN and infinity would pass the range checks or end up in
    a report as tokens that are not JSON, and so must an int given for a
    float: one too large for a double would fail in the stage that converts
    it."""
    expected = {float: numbers.Real, int: numbers.Integral}.get(type(default), type(default))
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigError(field_name, f"expected {type(default).__name__}, got {value!r}")
    if isinstance(default, float):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(field_name, "must be finite, got an int too large for a float") from None
        if not finite:
            raise ConfigError(field_name, f"must be finite, got {value!r}")
    if isinstance(default, list):
        for item in value:
            _check_type(field_name, item, default[0])


def _check(field_name: str, build, *args, **kwargs):
    """Check values by calling build(*args, **kwargs); a rejection is a ConfigError."""
    try:
        build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field_name, str(exc)) from None


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """The validated config: file values, then each non-None override, keyed
    by a field name, a "section.key" or a function (cfg, value). Validation,
    which fills in dataset-dependent defaults, runs once all are applied."""
    payload = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}") from None
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise ConfigError("config", f"invalid JSON: {exc}") from None
    try:
        cfg = ExperimentConfig(**payload)
    except TypeError as exc:  # an unknown key, or a payload that is not an object
        raise ConfigError("config", str(exc)) from None
    for target, value in overrides.items():
        if value is None:
            continue
        if callable(target):
            target(cfg, value)
        elif "." in target:
            section, key = target.split(".")
            getattr(cfg, section)[key] = value
        else:
            setattr(cfg, target, value)
    cfg.validate()
    return cfg


def _spec(cfg: ExperimentConfig, lengthscale: float) -> KernelSpec:
    return KernelSpec(lengthscale=lengthscale, **cfg.kernel)


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    src = cfg.dataset
    if "csv" in src:
        return load_csv(src["csv"], src["label_column"])
    if src["generator"] == "two_moons":
        return generate_two_moons(src["n"], src["noise"], cfg.seed)
    return generate_blobs(src["n"], src.get("d", 2), src.get("separation", 3.0), cfg.seed)


def _fit_pair(cfg: ExperimentConfig, train: Dataset):
    short = fit_classification_laplace(_spec(cfg, cfg.lengthscale_short), train)
    long = fit_classification_laplace(_spec(cfg, cfg.lengthscale_long), train)
    return short, long


def _cmd_train(cfg: ExperimentConfig, out: Path) -> list[Path]:
    data = _build_dataset(cfg)
    train, test = split(data, cfg.train_fraction, cfg.seed)
    policy = RejectionPolicy(**cfg.rejection)
    written = []
    report = {}
    # one victim at a time (fit, score, save, grid, release), so no victim's factor outlives its own grid
    for name, lengthscale in (("short", cfg.lengthscale_short), ("long", cfg.lengthscale_long)):
        gp = fit_classification_laplace(_spec(cfg, lengthscale), train)
        means = latent_mean_batch(gp, test.features)
        report[name] = {
            "lengthscale": gp.spec.lengthscale,
            "train": accuracy(gp, train),
            "test": _scores(means, test.labels, None),
            "test_with_rejection": _scores(means, test.labels, policy),
            "test_with_zero_rejection": _scores(means, test.labels, cfg.zero_rejection_eps),
        }
        model_path = out / f"model_{name}.json"
        save_gp(gp, model_path)
        written.append(model_path)
        if data.d == 2:
            lo = data.features.min(axis=0) - 0.5
            hi = data.features.max(axis=0) + 0.5
            grid = decision_grid(
                gp,
                ((lo[0], hi[0]), (lo[1], hi[1])),
                cfg.train["grid_resolution"],
                policy,
            )
            grid_path = out / f"grid_{name}.csv"
            grid.write_csv(grid_path)
            written.append(grid_path)
        del gp
    path = out / "accuracy.json"
    write_json(path, report)
    written.append(path)
    return written


def _cmd_evade(cfg: ExperimentConfig, out: Path) -> list[Path]:
    data = _build_dataset(cfg)
    train, test = split(data, cfg.train_fraction, cfg.seed)
    short, long = _fit_pair(cfg, train)
    atk = cfg.attack
    count = min(int(atk["points"]), test.n)
    points = test.features[:count]
    labels = test.labels[:count]

    cw_config = AttackConfig(
        max_iter=int(atk["cw_max_iter"]),
        step_size=atk["cw_step_size"],
        confidence=atk["cw_confidence"],
    )
    sets = {
        "gpfgs": gpfgs_batch(short, points, atk["epsilon"]),
        "gpjm": gpjm_batch(short, points, int(atk["jsma_budget"]), atk["jsma_step"]),
        "cw_l2": cw_l2_batch(short, points, cw_config, seed=cfg.seed),
    }
    strengths = {
        "gpfgs": atk["epsilon"],
        "gpjm": atk["jsma_step"],
        "cw_l2": atk["cw_confidence"],
    }
    true_labels = {name: labels for name in sets}
    comparison = curvature_comparison(short, long, sets, true_labels, cfg.zero_rejection_eps)
    flip_rates = {name: float(np.mean([r.success for r in results])) for name, results in sets.items()}

    csv_path = out / "attack_sets.csv"
    write_attack_sets_csv(csv_path, sets, strengths)
    json_path = out / "curvature.json"
    write_json(json_path, {"comparison": comparison, "flip_rates_on_short": flip_rates})
    return [csv_path, json_path]


def _cmd_extract(cfg: ExperimentConfig, out: Path) -> list[Path]:
    data = _build_dataset(cfg)
    train, rest = split(data, cfg.train_fraction, cfg.seed)
    ext = cfg.extract
    holdout_n = min(int(ext["holdout"]), rest.n // 2)
    holdout = rest.subset(np.arange(holdout_n))
    fresh = rest.subset(np.arange(holdout_n, rest.n))
    written = []

    # analytic attacks run against a noiseless regression victim
    jitter = float(ext["jitter"])
    reg_spec = _spec(cfg, cfg.lengthscale_short)
    reg_victim = fit_regression(reg_spec, train, jitter)
    reg_oracle = ModelOracle.from_gp(reg_victim)
    lengthscale_report = extract_lengthscale_analytic(
        reg_oracle, train, jitter, tuple(ext["interval"]), variance=reg_spec.variance, seed=cfg.seed
    )

    recover_n = min(int(ext["recover_n"]), train.n)
    tiny = train.subset(np.arange(recover_n))
    tiny_victim = fit_regression(reg_spec, tiny, jitter)
    tiny_oracle = ModelOracle.from_gp(tiny_victim)
    budget = int(ext["recover_budget_factor"]) * recover_n * tiny.d
    # probes must sense the anchors: pad the data region by two lengthscales
    pad = 2.0 * float(np.max(reg_spec.lengthscales(tiny.d)))
    recovery = recover_training_data_analytic(
        tiny_oracle,
        reg_spec,
        recover_n,
        tiny.d,
        tiny.labels,
        budget,
        jitter=jitter,
        probe_box=(tiny.features.min(axis=0) - pad, tiny.features.max(axis=0) + pad),
        seed=cfg.seed,
        restarts=8,
    )
    matched, distances = match_points(recovery.estimate, tiny.features, tiny.labels)
    analytic_path = out / "extraction.json"
    write_json(
        analytic_path,
        {
            "lengthscale": {
                "true": cfg.lengthscale_short,
                "estimate": lengthscale_report.estimate,
                "residual": lengthscale_report.residual,
                "queries_used": lengthscale_report.queries_used,
                "converged": lengthscale_report.converged,
            },
            "training_data_recovery": {
                "true_points": tiny.features.tolist(),
                "recovered_points": matched.tolist(),
                "point_distances": distances.tolist(),
                "residual": recovery.residual,
                "queries_used": recovery.queries_used,
                "converged": recovery.converged,
            },
        },
    )
    written.append(analytic_path)

    # empirical sweep against the classification victim, three data regimes
    victim = fit_classification_laplace(reg_spec, train)
    oracle = ModelOracle.from_gp(victim)
    half = train.n // 2
    rng = np.random.default_rng(cfg.seed)
    fresh_idx = rng.permutation(fresh.n)
    mixed = Dataset(
        np.vstack([train.features[:half], fresh.features[fresh_idx[: train.n - half]]]),
        np.concatenate([train.labels[:half], fresh.labels[fresh_idx[: train.n - half]]]),
    )
    disjoint = fresh.subset(fresh_idx[: min(train.n, fresh.n)])
    for regime, attacker_data in (("same", train), ("mixed", mixed), ("disjoint", disjoint)):
        sweep = estimate_lengthscale_sweep(
            oracle, attacker_data, regime, cfg.lengthscale_short, holdout, variance=reg_spec.variance
        )
        path = out / f"sweep_{regime}.csv"
        write_sweep_csv(path, sweep)
        written.append(path)

    candidates = [
        _spec(cfg, cfg.lengthscale_short),
        KernelSpec(LINEAR, variance=reg_spec.variance),
        KernelSpec(POLY, variance=reg_spec.variance),
    ]
    ranking = identify_kernel(oracle, candidates, train, holdout)
    kernel_path = out / "kernel_id.csv"
    write_kernel_distances_csv(kernel_path, ranking)
    written.append(kernel_path)
    return written


def _cmd_membership(cfg: ExperimentConfig, out: Path) -> list[Path]:
    data = _build_dataset(cfg)
    train, rest = split(data, cfg.train_fraction, cfg.seed)
    mem = cfg.membership
    feature_set = mem["feature_set"]
    written = []
    for name, lengthscale in (("short", cfg.lengthscale_short), ("long", cfg.lengthscale_long)):
        gp = fit_classification_laplace(_spec(cfg, lengthscale), train)
        attack_ds = build_attack_dataset(gp, train, rest, feature_set, seed=cfg.seed)
        attack_train, attack_test = split_attack_dataset(attack_ds, mem["attacker_fraction"], cfg.seed)
        clf = train_attack_classifier(attack_train, int(mem["trees"]), int(mem["max_depth"]), cfg.seed)
        result = evaluate_membership(clf, attack_test)
        gap = overfitting_gap(gp, train, rest)
        drift = distribution_drift(gp, train, rest)
        path = out / f"membership_{name}.json"
        write_json(
            path,
            {
                "feature_set": sorted(feature_set),
                "accuracy": result["accuracy"],
                "baseline": result["baseline"],
                "overfit_gap": gap["gap"],
                "drift_ratio": drift["ratio"],
                "lengthscale": lengthscale,
                "seed": cfg.seed,
            },
        )
        written.append(path)
    return written


def _cmd_secure_demo(cfg: ExperimentConfig, out: Path) -> list[Path]:
    sec = cfg.secure
    spec = _spec(cfg, cfg.lengthscale_long)
    ls = float(np.max(spec.lengthscales(2)))
    n_anchors = int(sec["n_anchors"])
    spacing = float(sec["spacing_lengthscales"]) * ls
    anchors = np.column_stack([np.arange(n_anchors) * spacing, np.zeros(n_anchors)])
    labels = np.where(np.arange(n_anchors) % 2 == 0, 1.0, -1.0)
    rho = float(sec["rho"])
    sc = build_secure_classifier(anchors, labels, rho, spec)
    gp = fit_regression(spec, Dataset(anchors, labels), jitter=1e-10)
    policy = RejectionPolicy(1.0 - rho, 1.0 - rho)

    rng = np.random.default_rng(cfg.seed)
    margin = 2.0 * ls
    lo = anchors.min(axis=0) - margin
    hi = anchors.max(axis=0) + margin
    probes = rng.uniform(lo, hi, size=(int(sec["probes"]), 2))
    agreement = equivalence_check(sc, gp, policy, probes)

    resolution = int(sec["grid_resolution"])
    grid = grid_points(lo, hi, resolution)
    probe_identity = generalization_probe(gp, spec, rho, grid, policy)

    # the learning case: same-class anchors one lengthscale apart; the
    # classified-outside shell is thin, so probe it on a fine grid
    close = np.array([[0.0, 0.0], [ls, 0.0]])
    close_labels = np.array([1.0, 1.0])
    close_gp = fit_regression(spec, Dataset(close, close_labels), jitter=1e-10)
    close_grid = grid_points((-3.0 * ls, -3.0 * ls), (4.0 * ls, 4.0 * ls), max(resolution, 80))
    probe_learning = generalization_probe(close_gp, spec, rho, close_grid, policy)

    path = out / "secure.json"
    write_json(
        path,
        {
            "rho": rho,
            "tau": 1.0 - rho,
            "agreement_rate": agreement["agreement_rate"],
            "disagreements": agreement["disagreements"],
            "identity_regime_fraction": probe_identity["outside_classified_fraction"],
            "learning_regime_fraction": probe_learning["outside_classified_fraction"],
        },
    )
    return [path]


_HANDLERS = {
    "train": _cmd_train,
    "evade": _cmd_evade,
    "extract": _cmd_extract,
    "membership": _cmd_membership,
    "secure-demo": _cmd_secure_demo,
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def run(subcommand: str, cfg: ExperimentConfig) -> int:
    """Run one subcommand and write its reports plus a manifest. Returns 0
    iff all requested stages completed."""
    if subcommand not in _HANDLERS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written = _HANDLERS[subcommand](cfg, out)
    manifest = {
        "subcommand": subcommand,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "versions": {
            "gpattack": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": {path.name: _sha256(path) for path in written},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out / "manifest.json", manifest)
    return 0


def _use_data(cfg: ExperimentConfig, source: str):
    """--data: a CSV path or a generator name replaces the dataset source;
    every other dataset key stays."""
    if source.endswith(".csv"):
        cfg.dataset.pop("generator", None)
        cfg.dataset["csv"] = source
        cfg.dataset.setdefault("label_column", "y")
    else:
        cfg.dataset.pop("csv", None)
        cfg.dataset["generator"] = source


# Every flag once: (flag, argparse options, subcommands or None for all, the
# `load_config` override target). Flags apply in this order, so --label-column
# overrides the column --data sets.
_FLAGS = (
    ("--seed", {"type": int, "help": "master seed"}, None, "seed"),
    ("--out", {"help": "output directory"}, None, "out"),
    ("--lengthscale-short", {"type": float}, None, "lengthscale_short"),
    ("--lengthscale-long", {"type": float}, None, "lengthscale_long"),
    ("--kernel", {"choices": FAMILIES, "help": "kernel family"}, None, "kernel.family"),
    ("--data", {"help": "CSV path (use --label-column) or generator name"}, None, _use_data),
    ("--label-column", {}, None, "dataset.label_column"),
    ("--epsilon", {"type": float, "help": "gpfgs strength"}, ("evade",), "attack.epsilon"),
    (
        "--feature-set",
        {"type": lambda names: names.split(","), "help": "comma-separated feature names"},
        ("membership",),
        "membership.feature_set",
    ),
    ("--trees", {"type": int}, ("membership",), "membership.trees"),
    ("--rho", {"type": float}, ("secure-demo",), "secure.rho"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpattack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        for flag, options, subcommands, _ in _FLAGS:
            if subcommands is None or name in subcommands:
                cmd.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {target: getattr(args, flag[2:].replace("-", "_"), None) for flag, _, _, target in _FLAGS}
    try:
        return run(args.subcommand, load_config(args.config, overrides))
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # propagate module failures with context
        print(f"error: {args.subcommand} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
