"""Store the reports of every workload at the reference seed.

    python3 bench/make_reference.py [workload ...]

The traced pass of bench/run.py reports how far the current reports drift
from these (cli.report_drift_max_abs). Regenerate them only when a change
is meant to alter the reports, and say so with the change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import REFERENCE_SEED, WORKLOADS


def main(names) -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    failed = 0
    for name in names or sorted(WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=run.WORK_DIR))
        try:
            experiment = run.Run(name, work, None).experiment(REFERENCE_SEED)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if experiment.problems:
            print(f"{name}: not stored: {experiment.problems}", file=sys.stderr)
            failed += 1
            continue
        run.write_reference(name, experiment.files)
        print(f"{name}: wrote {run.reference_path(name).relative_to(run.ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
