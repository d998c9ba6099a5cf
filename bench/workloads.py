"""The benchmark's workloads: which CLI subcommands run, on which input.

Every workload is two-moons data with noise 0.2; the workload seed becomes
the config `seed`, so the program sees only the generated config. This
module must not import gpattack, because the set-up probe times that import.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose stored reports the traced pass compares against. Seed 1 is
# kept because its analytic lengthscale report says `converged: false` for a
# correct estimate, and that false negative must stay visible.
REFERENCE_SEED = 1


# A timed run cycles through the config seeds `seed + SEED_STRIDE * j` for
# j < Workload.seeds, because the work of an experiment depends on its seed:
# one extract experiment takes 1.7 to 4.3 s over 100 seeds at the same n.
# The counts make one cycle take about 10 s (20 s on extract) on a 2-core
# Xeon, so a 24 s run usually times every seed twice (extract: once).
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    subcommands: tuple[str, ...]
    n: int
    seeds: int


WORKLOADS = {
    "evade": Workload(("evade",), 400, 12),
    "extract": Workload(("extract",), 400, 8),
    "membership": Workload(("membership",), 400, 14),
    "train_secure": Workload(("train", "secure-demo"), 1600, 8),
}


def cycle_seeds(name: str, seed: int) -> list[int]:
    """The config seeds one timed run of workload `name` cycles through."""
    return [seed + SEED_STRIDE * j for j in range(WORKLOADS[name].seeds)]


def experiment_config(name: str, seed: int, overrides: dict | None = None) -> dict:
    """The JSON config every experiment of workload `name` at `seed` runs.

    `overrides` maps config sections to entries merged into them, which is
    how the self-tests shrink a workload.
    """
    config = {
        "dataset": {"generator": "two_moons", "n": WORKLOADS[name].n, "noise": 0.2},
        "seed": seed,
    }
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            config[key] = {**config.get(key, {}), **value}
        else:
            config[key] = value
    return config
