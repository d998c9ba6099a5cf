"""Correctness checks on one experiment's reports, and report drift.

Every check returns a list of problems; an experiment with any problem
counts as failed. The checks read only what the CLI wrote.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

MANIFEST = "manifest.json"
SWEEP_MODELS = 50
LENGTHSCALE_REL_TOL = 1e-6


def report_files(out: Path) -> dict[str, bytes]:
    """Every file under `out`, keyed by its relative path."""
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def artifacts(files: dict[str, bytes]) -> dict[str, bytes]:
    """The reports without the manifests, whose timestamps differ run to run."""
    return {name: data for name, data in files.items() if Path(name).name != MANIFEST}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    """sha256 of every artifact."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts(files).items()}


def _json(files: dict[str, bytes], name: str):
    return json.loads(files[name])


def _csv_rows(files: dict[str, bytes], name: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(files[name].decode("utf-8"))))[1:]


def _in_unit_interval(label: str, value) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{label} = {value!r} is outside [0, 1]"]


def _check_train(files) -> list[str]:
    problems = []
    for victim, row in _json(files, "train/accuracy.json").items():
        for key, value in row.items():
            if isinstance(value, dict):
                for field in ("accuracy", "reject_rate"):
                    problems += _in_unit_interval(f"train {victim}.{key}.{field}", value[field])
    return problems


def _check_evade(files) -> list[str]:
    problems = []
    rows = _csv_rows(files, "evade/attack_sets.csv")
    expected = 3 * _json(files, "evade/manifest.json")["config"]["attack"]["points"]
    if len(rows) != expected:
        problems.append(f"attack_sets.csv has {len(rows)} rows, expected {expected}")
    for attack, rate in _json(files, "evade/curvature.json")["flip_rates_on_short"].items():
        problems += _in_unit_interval(f"flip rate of {attack}", rate)
    return problems


def _check_extract(files) -> list[str]:
    problems = []
    lengthscale = _json(files, "extract/extraction.json")["lengthscale"]
    error = abs(lengthscale["estimate"] - lengthscale["true"]) / lengthscale["true"]
    if not error < LENGTHSCALE_REL_TOL:
        problems.append(f"lengthscale relative error {error:.3g} is not below {LENGTHSCALE_REL_TOL}")
    if lengthscale["queries_used"] != 2:
        problems.append(f"lengthscale recovery used {lengthscale['queries_used']} queries, expected 2")
    for regime in ("same", "mixed", "disjoint"):
        rows = len(_csv_rows(files, f"extract/sweep_{regime}.csv"))
        if rows != SWEEP_MODELS:
            problems.append(f"sweep_{regime}.csv has {rows} rows, expected {SWEEP_MODELS}")
    return problems


def _check_membership(files) -> list[str]:
    problems = []
    for victim in ("short", "long"):
        report = _json(files, f"membership/membership_{victim}.json")
        for field in ("accuracy", "baseline"):
            problems += _in_unit_interval(f"membership {victim} {field}", report[field])
    return problems


def _check_secure_demo(files) -> list[str]:
    report = _json(files, "secure-demo/secure.json")
    problems = []
    if report["agreement_rate"] != 1.0:
        problems.append(f"agreement_rate = {report['agreement_rate']!r}, expected 1.0")
    if report["identity_regime_fraction"] != 0.0:
        problems.append(f"identity_regime_fraction = {report['identity_regime_fraction']!r}, expected 0.0")
    if not report["learning_regime_fraction"] > 0.0:
        problems.append(f"learning_regime_fraction = {report['learning_regime_fraction']!r}, expected > 0")
    return problems


_CHECKS = {
    "train": _check_train,
    "evade": _check_evade,
    "extract": _check_extract,
    "membership": _check_membership,
    "secure-demo": _check_secure_demo,
}


def check_reports(subcommands, files: dict[str, bytes]) -> list[str]:
    """Problems in the reports of one experiment (empty when all checks pass)."""
    problems = []
    for subcommand in subcommands:
        try:
            problems += _CHECKS[subcommand](files)
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"{subcommand} reports unreadable: {type(exc).__name__}: {exc}")
    return problems


def _numeric_leaves(value, prefix: tuple):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield prefix, float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numeric_leaves(item, prefix + (i,))


def numeric_fields(name: str, data: bytes) -> dict[tuple, float]:
    """Every numeric field of a JSON or CSV report, keyed by its position."""
    if name.endswith(".json"):
        return dict(_numeric_leaves(json.loads(data), (name,)))
    fields = {}
    for i, row in enumerate(csv.reader(io.StringIO(data.decode("utf-8")))):
        for j, cell in enumerate(row):
            try:
                fields[(name, i, j)] = float(cell)
            except ValueError:
                continue
    return fields


def drift(reference: dict[str, bytes], current: dict[str, bytes]) -> tuple[float, int]:
    """Maximum absolute difference over the numeric fields present in both
    report sets, and how many fields were compared."""
    reference, current = artifacts(reference), artifacts(current)
    worst = 0.0
    compared = 0
    for name in sorted(reference.keys() & current.keys()):
        ref = numeric_fields(name, reference[name])
        cur = numeric_fields(name, current[name])
        for key in ref.keys() & cur.keys():
            compared += 1
            worst = max(worst, abs(ref[key] - cur[key]))
    return worst, compared
