"""`train` holds a bounded number of n x n arrays at once.

Each victim's fit holds K and B, its model caches one n x n factor from its
first variance on, and a prediction of R rows holds one R x n block. `train`
handles one victim at a time, so at its peak it holds one factor and the
decision grid's query block as it is built: n^2 + 2 R n doubles, with R the
grid's resolution squared. The bound below is that plus slack, as 3 n x n
arrays.

tracemalloc sees the buffers numpy allocates, but not OpenBLAS's own work
space, so the bound covers the program's arrays and not the whole process.
"""

import json
import tracemalloc

from gpattack.cli import main

N_GENERATED = 1600
N_TRAIN = N_GENERATED // 2  # the default train fraction is 0.5


def test_train_peak_stays_within_three_gram_sized_arrays(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"generator": "two_moons", "n": N_GENERATED, "noise": 0.2}, "seed": 1}))
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # the first run in a process pays lazy imports
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    gram_bytes = N_TRAIN**2 * 8
    assert peak <= 3 * gram_bytes, f"train peaked at {peak / 1e6:.2f} MB, {peak / gram_bytes:.2f} n x n arrays"
