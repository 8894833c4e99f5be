#!/usr/bin/env python3
"""Reference figures: ``check-all --machine`` wall time as the model grows.

    python3 perfbench/growth.py

Times the CLI subprocess on seeded models of ``10 * blocks + 3`` declarations
(the check-all-batch model at other sizes, seed ``SEED``) and prints one row
per size with the median raw and reference-scaled wall time of ``REPEATS``
calls.  Outputs are checked like in check-all-batch.  This is a reference
for reading growth, not a gate.
"""

from __future__ import annotations

import os
import statistics

import run
from refload import Bracketed

SEED = 1
REPEATS = 3
BLOCKS = (10, 100, 1000)  # about 10^2, 10^3 and 10^4 declarations


def main():
    run.WORK.mkdir(exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run.check_import()
    print("| decls | bytes | check-all raw s | check-all scaled s |")
    print("| ---: | ---: | ---: | ---: |")
    for blocks in BLOCKS:
        case, [(query, argv)] = run.batch_inputs(SEED, blocks)
        clock = Bracketed(run.start_seconds, run.START_S)
        for _ in range(REPEATS):
            code, elapsed, _, out, err = run.spawn([run.PY, "-m", "modpairs", *argv], "growth")
            clock.add(elapsed)
            if run.judge(query, code, out, err) != "ok":
                raise SystemExit(f"check-all output at {len(case.decls)} declarations differs from the ledger")
        print(f"| {len(case.decls)} | {len(case.text)} | {statistics.median(clock.raw):.3f} "
              f"| {statistics.median(clock.scaled):.3f} |")


if __name__ == "__main__":
    main()
