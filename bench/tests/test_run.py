"""Self-tests of the benchmark, on workloads shrunk to run in seconds.

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
from tracer import Tracer
from workloads import WORKLOADS

TINY = {
    "evade": {"dataset": {"n": 40}, "attack": {"points": 4, "cw_max_iter": 5}},
    "extract": {"dataset": {"n": 40}, "extract": {"holdout": 10}},
    "membership": {"dataset": {"n": 40}, "membership": {"trees": 5}},
    "train_secure": {"dataset": {"n": 40}, "secure": {"probes": 200, "grid_resolution": 10}},
}
SEED = 3


def _result(capsys, name: str, trace: int) -> dict:
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, TINY[name]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_reports(tmp_path_factory):
    """One checked tiny experiment per workload: name -> report files."""
    reports = {}
    for name in WORKLOADS:
        experiment = run.Run(name, tmp_path_factory.mktemp(name), TINY[name]).experiment(SEED)
        assert experiment.problems == []
        reports[name] = experiment.files
    return reports


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_named_metric_with_its_unit(capsys, name, trace):
    result = _result(capsys, name, trace)
    declared = {entry["name"]: entry["unit"] for entry in run._declared(bool(trace))}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == declared
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_fraction"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_corrupted_report_counts_as_failed(capsys, monkeypatch):
    from gpattack import cli

    original = cli.main
    calls = []

    def corrupting_main(argv):
        code = original(argv)
        calls.append(argv)
        if len(calls) == 2:  # the first timed experiment, after the warm-up
            path = Path(argv[argv.index("--out") + 1]) / "membership_short.json"
            report = json.loads(path.read_text())
            report["accuracy"] = 1.5
            path.write_text(json.dumps(report))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = _result(capsys, "membership", 0)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ok_fraction"]["value"] == pytest.approx(1 - 1 / result["attempted"])


def test_report_that_changes_between_repeats_counts_as_failed(tmp_path, monkeypatch):
    from gpattack import cli

    original = cli.main

    def appending_main(argv):
        code = original(argv)
        with open(Path(argv[argv.index("--out") + 1]) / "membership_long.json", "a") as handle:
            handle.write(" " * len(appending_main.calls))
        appending_main.calls.append(argv)
        return code

    appending_main.calls = []
    monkeypatch.setattr(cli, "main", appending_main)
    tiny = run.Run("membership", tmp_path, TINY["membership"])
    assert tiny.experiment(SEED).problems == []
    assert tiny.experiment(SEED).problems == ["membership/membership_long.json differs from the first repeat"]
    assert (tiny.attempted, tiny.failed) == (2, 1)


def test_a_run_covers_every_cycle_seed_whatever_its_speed(tmp_path, monkeypatch):
    tiny = run.Run("evade", tmp_path, None)
    monkeypatch.setattr(tiny, "experiment", lambda seed, tracer=None: run.Experiment(seed, 0.0, 0.0, {}, []))
    seeds = [3, 1003, 2003]
    assert [e.seed for e in tiny.cycles(seeds, 0.0)] == seeds
    done = [e.seed for e in tiny.cycles(seeds, 0.01)]
    assert len(done) > 3 and done == seeds * (len(done) // 3)


def test_median_weighs_each_seed_once():
    timed = [run.Experiment(seed, wall, 0.0, {}, []) for seed, wall in [(1, 1.0), (1, 1.0), (1, 1.0), (2, 2.0), (3, 3.0)]]
    assert run._median(timed, "wall") == 2.0


def _edit_json(files, name, edit):
    payload = json.loads(files[name])
    edit(payload)
    return {**files, name: json.dumps(payload).encode()}


def _drop_last_line(files, name):
    return {**files, name: b"\n".join(files[name].rstrip(b"\n").split(b"\n")[:-1]) + b"\n"}


CORRUPTIONS = [
    ("extract", lambda f: _edit_json(f, "extract/extraction.json", lambda p: p["lengthscale"].update(estimate=p["lengthscale"]["true"] * 1.001))),
    ("extract", lambda f: _edit_json(f, "extract/extraction.json", lambda p: p["lengthscale"].update(queries_used=3))),
    ("extract", lambda f: _drop_last_line(f, "extract/sweep_mixed.csv")),
    ("evade", lambda f: _drop_last_line(f, "evade/attack_sets.csv")),
    ("evade", lambda f: _edit_json(f, "evade/curvature.json", lambda p: p["flip_rates_on_short"].update(gpjm=1.25))),
    ("membership", lambda f: _edit_json(f, "membership/membership_long.json", lambda p: p.update(baseline=-0.5))),
    ("train_secure", lambda f: _edit_json(f, "secure-demo/secure.json", lambda p: p.update(agreement_rate=0.999))),
    ("train_secure", lambda f: _edit_json(f, "secure-demo/secure.json", lambda p: p.update(identity_regime_fraction=0.01))),
    ("train_secure", lambda f: _edit_json(f, "secure-demo/secure.json", lambda p: p.update(learning_regime_fraction=0.0))),
    ("train_secure", lambda f: _edit_json(f, "train/accuracy.json", lambda p: p["short"]["test"].update(accuracy=2.0))),
    ("train_secure", lambda f: {k: v for k, v in f.items() if k != "secure-demo/secure.json"}),
]


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS)
def test_each_check_catches_its_corruption(tiny_reports, name, corrupt):
    subcommands = WORKLOADS[name].subcommands
    assert checks.check_reports(subcommands, tiny_reports[name]) == []
    assert len(checks.check_reports(subcommands, corrupt(tiny_reports[name]))) == 1


def test_unconverged_lengthscale_report_is_not_a_failure(tiny_reports):
    files = _edit_json(tiny_reports["extract"], "extract/extraction.json", lambda p: p["lengthscale"].update(converged=False))
    assert checks.check_reports(WORKLOADS["extract"].subcommands, files) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_writes_the_same_artifacts_as_untraced(tmp_path, name):
    from gpattack import gp

    original = gp.fit_regression
    tiny = run.Run(name, tmp_path, TINY[name])
    untraced = tiny.experiment(SEED)
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        assert gp.fit_regression is not original
        traced = tiny.experiment(SEED, tracer)
    assert gp.fit_regression is original
    assert untraced.problems == [] and traced.problems == []
    assert checks.digests(traced.files) == checks.digests(untraced.files)
    names = {span.name for span in tracer.spans}
    assert {f"cli.{sub}" for sub in WORKLOADS[name].subcommands} <= names
    assert "kernels.kernel_matrix" in names and "gp.cholesky" in names


def test_trace_counts_calls_made_through_every_binding(tmp_path):
    tiny = run.Run("extract", tmp_path, TINY["extract"])
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        tiny.experiment(SEED, tracer)
    metrics = layers.layer_metrics(tracer.spans, [0], [0])
    # extract queries its oracle 2 + recover budget 12 + 4 * holdout 10 times
    assert metrics["extraction.oracle.queries"] == 54
    assert metrics["extraction.sweep.fits"] == 150
    assert metrics["gp.predict.calls"] == 54
    assert metrics["extraction.lengthscale_analytic.refits"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_drift_is_the_largest_numeric_difference():
    reference = {"a.json": b'{"x": 1.0, "y": [2.0, 3.0], "ok": true}', "b.csv": b"k,v\nu,0.5\n", "manifest.json": b'{"t": 1}'}
    current = {"a.json": b'{"x": 1.0, "y": [2.0, 3.25], "ok": false}', "b.csv": b"k,v\nu,0.4\n", "manifest.json": b'{"t": 9}'}
    worst, compared = checks.drift(reference, current)
    assert worst == pytest.approx(0.25) and compared == 4


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    probe = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evade", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode != 0
    assert '"metrics"' not in probe.stdout
