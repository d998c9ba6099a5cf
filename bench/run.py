"""gpattack benchmark: run one workload of CLI experiments and print its metrics.

    python3 bench/run.py --workload evade --seed 3 --seconds 24 --trace 0

An experiment is one in-process `gpattack.cli.main([subcommand, "--config",
...])` call per subcommand of the workload, each writing its reports to a
fresh directory. With `--trace 0` the run times experiments for `--seconds`
seconds after one warm-up and reports the end-to-end metrics; with
`--trace 1` it spends half the time untraced and half traced, then runs the
reference seed, and reports the per-layer metrics. The metric names and
units are the ones BENCHMARK.json declares. Human-readable lines go to
stderr; the last line of stdout is the result as JSON. Scratch files and the
span trace go to `.bench_runs/` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import checks
import layers
from tracer import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, cycle_seeds, experiment_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_runs"
REFERENCE_DIR = BENCH / "reference"
SETUP_PROBES = 3

sys.path.insert(0, str(SRC))

# Runs in a fresh interpreter: import gpattack (numpy and scipy included)
# and build the workload's input, timed from before the first import.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json
import gpattack.cli
import workloads
json.dumps(workloads.experiment_config(sys.argv[3], int(sys.argv[4])))
print(time.perf_counter() - start)
"""


@dataclass
class Experiment:
    seed: int
    wall: float
    cpu: float
    files: dict[str, bytes]
    problems: list[str]


class Run:
    """The experiments of one benchmark run, with their failure accounting."""

    def __init__(self, name: str, work: Path, overrides: dict | None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.overrides = overrides
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_digests: dict[int, dict[str, str]] = {}

    def _config_path(self, seed: int) -> Path:
        path = self.work / f"config-{seed}.json"
        if not path.exists():
            path.write_text(json.dumps(experiment_config(self.name, seed, self.overrides)))
        return path

    def experiment(self, seed: int, tracer: Tracer | None = None) -> Experiment:
        """Run every subcommand once at `seed` and check what it wrote."""
        from gpattack import cli

        config_path = self._config_path(seed)
        if tracer is not None:
            tracer.experiment += 1
        out = Path(tempfile.mkdtemp(prefix="reports-", dir=self.work))
        problems = []
        wall, cpu = perf_counter(), process_time()
        try:
            for subcommand in self.workload.subcommands:
                argv = [subcommand, "--config", str(config_path), "--out", str(out / subcommand)]
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span(f"cli.{subcommand}"):
                        code = cli.main(argv)
                if code != 0:
                    problems.append(f"{subcommand} exited with code {code}")
        except Exception as exc:  # an experiment that raises is counted as failed, not fatal
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall, cpu = perf_counter() - wall, process_time() - cpu
        files = checks.report_files(out)
        shutil.rmtree(out)
        if not problems:
            problems = checks.check_reports(self.workload.subcommands, files)
            first = self._first_digests.setdefault(seed, checks.digests(files))
            current = checks.digests(files)
            problems += [f"{name} differs from the first repeat" for name in sorted(first) if current.get(name) != first[name]]
            problems += [f"{name} is new since the first repeat" for name in sorted(current.keys() - first.keys())]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {problem}" for problem in problems]
        return Experiment(seed, wall, cpu, files, problems)

    def cycles(self, seeds: list[int], seconds: float, tracer: Tracer | None = None) -> list[Experiment]:
        """Run whole cycles through `seeds`: the first always, each further one
        only if it is expected to end within `seconds` of the start. Every
        run thus covers all of `seeds` whatever the speed of the code; speed
        only changes how often each seed repeats."""
        done = []
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            done += [self.experiment(seed, tracer) for seed in seeds]
            end = perf_counter()
            if end + (end - start) > deadline:
                return done


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def _blas_threads() -> int | None:
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Machine, library versions and BLAS threading, as the run saw them.

    BLAS threads are left at the user's default on purpose: the thread
    count is a lever a performance change may pull.
    """
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}-seed{REFERENCE_SEED}.json.gz"


def load_reference(name: str) -> dict[str, bytes]:
    with gzip.open(reference_path(name), "rt", encoding="utf-8") as handle:
        stored = json.load(handle)
    return {path: text.encode("utf-8") for path, text in stored["files"].items()}


def write_reference(name: str, files: dict[str, bytes]):
    payload = {
        "workload": name,
        "seed": REFERENCE_SEED,
        "files": {path: data.decode("utf-8") for path, data in checks.artifacts(files).items()},
    }
    text = json.dumps(payload, sort_keys=True, indent=0)
    reference_path(name).write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0))


def _median(experiments: list[Experiment], field: str) -> float:
    """Median over config seeds of each seed's median, so a seed that repeats
    more often than another weighs no more."""
    by_seed = defaultdict(list)
    for e in experiments:
        by_seed[e.seed].append(getattr(e, field))
    return statistics.median(statistics.median(values) for values in by_seed.values())


def end_to_end(run: Run, seed: int, seconds: float) -> dict[str, float]:
    setup = setup_seconds(run.name, seed)
    run.experiment(seed)  # warm-up: the first experiment in a process pays lazy set-up
    timed = run.cycles(cycle_seeds(run.name, seed), seconds)
    print("timed experiments (seed: wall s): " + ", ".join(f"{e.seed}: {e.wall:.4f}" for e in timed), file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "experiment_s": _median(timed, "wall"),
        "cpu_s": _median(timed, "cpu"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, seed: int, seconds: float, env: dict) -> dict[str, float]:
    run.experiment(seed)  # warm-up
    untraced = run.cycles([seed], seconds / 2)
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        first_id = tracer.experiment + 1
        traced = run.cycles([seed], seconds / 2, tracer)
        traced_ids = list(range(first_id, first_id + len(traced)))
        seed_ids = [first_id]
        reference_run = traced[0]
        if seed != REFERENCE_SEED:
            reference_run = run.experiment(REFERENCE_SEED, tracer)
            seed_ids.append(tracer.experiment)
    spans = tracer.spans
    metrics = layers.layer_metrics(spans, traced_ids, seed_ids)
    drift, fields = checks.drift(load_reference(run.name), reference_run.files)
    metrics["cli.report_bytes"] = sum(len(data) for data in checks.artifacts(traced[0].files).values())
    metrics["cli.report_drift_max_abs"] = drift
    metrics["trace.overhead_s"] = _median(traced, "wall") - _median(untraced, "wall")
    print(f"traced experiments at seed {seed}: {len(traced)}; report drift compared {fields} numeric fields", file=sys.stderr)
    write_trace(WORK_DIR / f"trace-{run.name}.csv", env, spans)
    return metrics


def write_trace(path: Path, env: dict, spans):
    """CSV with one row per span; `parent` is the parent's row index (-1 for
    none). The first line is a comment holding the run's environment."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# environment: {json.dumps(env, sort_keys=True)}\n")
        handle.write("name,start,end,parent,experiment\n")
        for span in spans:
            handle.write(f"{span.name},{span.start!r},{span.end!r},{span.parent},{span.experiment}\n")


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _print_summary(env: dict, run: Run, metrics: dict):
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for name, entry in metrics.items():
        note = ""
        if name.endswith(".tail_s"):
            count = metrics[name.replace(".tail_s", ".tail_samples")]["value"]
            note = f"  (p{layers.tail_percentile(count):.1f} of {count} samples)"
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{note}", file=sys.stderr)
    print(f"experiments: {run.attempted} attempted, {run.failed} failed", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None, overrides: dict | None = None) -> int:
    """Run the benchmark; `overrides` shrinks the workload configs (self-tests)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        import gpattack
    except ImportError as exc:
        print(f"error: cannot import gpattack from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(gpattack.__file__).resolve().parent != (SRC / "gpattack").resolve():
        print(f"error: gpattack was imported from {gpattack.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    declared = _declared(bool(args.trace))
    env = environment()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        run = Run(args.workload, work, overrides)
        if args.trace:
            values = per_layer(run, args.seed, args.seconds, env)
        else:
            values = end_to_end(run, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [entry["name"] for entry in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in declared}
    _print_summary(env, run, metrics)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
