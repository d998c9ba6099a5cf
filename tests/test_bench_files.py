"""Every committed BENCH_*.json parses and covers what BENCHMARK.json declares.

A BENCH file holds, under "workloads", one entry per benchmark workload;
each entry names every end-to-end metric somewhere inside it (as the
`metrics` key of a `bench/run.py` result line, or as a summary key). The
"environment" entry records the machine the numbers come from.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def keys_within(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from keys_within(item)
    elif isinstance(value, list):
        for item in value:
            yield from keys_within(item)


def test_bench_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_covers_every_workload_and_metric(path):
    payload = json.loads(path.read_text())
    workloads, metrics = declared()
    assert {"nproc", "numpy", "scipy"} <= payload["environment"].keys()
    assert set(workloads) <= payload["workloads"].keys()
    for name in workloads:
        named = set(keys_within(payload["workloads"][name]))
        missing = [metric for metric in metrics if metric not in named]
        assert not missing, f"{path.name}: workload {name} lacks {missing}"
