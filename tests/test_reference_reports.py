"""The reports of every benchmark workload at its reference seed match the
stored references in bench/reference/ byte for byte.

A change that alters a report on purpose regenerates the references with
bench/make_reference.py and says so. One block is exempt: the reference
`training_data_recovery` of extract/extraction.json predates the recovery on
scipy's least_squares and has not been regenerated since, so that block is
left out of the comparison; the rest of the file must still match.
"""

import gzip
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gpattack import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
MANIFEST = "manifest.json"
STALE_BLOCKS = {"extract/extraction.json": "training_data_recovery"}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def stored_reports(name: str) -> dict[str, bytes]:
    path = BENCH / "reference" / f"{name}-seed{workloads.REFERENCE_SEED}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        stored = json.load(handle)
    return {report: text.encode("utf-8") for report, text in stored["files"].items()}


def current_reports(name: str, tmp_path: Path) -> dict[str, bytes]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.experiment_config(name, workloads.REFERENCE_SEED)))
    out = tmp_path / "out"
    for subcommand in workloads.WORKLOADS[name].subcommands:
        assert cli.main([subcommand, "--config", str(config), "--out", str(out / subcommand)]) == 0
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != MANIFEST
    }


def without_stale_block(report: str, data: bytes):
    payload = json.loads(data)
    del payload[STALE_BLOCKS[report]]
    return payload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reports_match_the_stored_reference(name, tmp_path):
    stored = stored_reports(name)
    current = current_reports(name, tmp_path)
    assert sorted(current) == sorted(stored)
    for report, data in stored.items():
        if report in STALE_BLOCKS:
            assert without_stale_block(report, current[report]) == without_stale_block(report, data), report
        else:
            assert current[report] == data, f"{report} differs from its stored reference"
