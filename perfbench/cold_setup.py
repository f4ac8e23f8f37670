"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD SEED WORKDIR

``run.py`` starts this once per set-up repeat, after it has written the
workload's inputs for the same seed into WORKDIR. NumPy and the benchmark's
own modules are imported before the clock starts; the time printed covers
importing moelab from ``src/`` and the workload's set-up, the first the
process makes, so costs paid only on a first call are in it. Reading the
inputs back is left out.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import run
import workloads


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    ml = run.import_moelab()
    t1 = time.perf_counter()
    w = workloads.WORKLOADS[name](ml, run.ROOT, workdir, seed)
    w.load_inputs()
    t2 = time.perf_counter()
    w.setup()
    t3 = time.perf_counter()
    print((t1 - t0) + (t3 - t2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
