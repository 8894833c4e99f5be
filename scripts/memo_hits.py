#!/usr/bin/env python3
"""How often a map predicate reads a memo, per benchmark workload, and what a
kernel sweep costs on fresh values.

``pairs._map_facts`` computes a map's facts once and keeps them on the
``PairMap``; ``is_admissible``, ``minimal_twist``, ``hom_log_exists`` and
``is_minimal`` each call it once.  A call that finds the memo filled was
saved a ``pullback``.  This script counts, for each workload of
``perfbench/run.py``, the predicate calls per operation and the share of
them that read a memo filled in the same operation (one value asked more
than one predicate) or in an earlier one (one value asked again).  The
workloads that start a subprocess per operation (``shell-queries``,
``check-all-batch``) are replayed in this process on values read afresh for
each operation, as their subprocesses read them.

``--seconds S`` also times ``perfbench/worker.py``'s ``sweep_round`` on the
kernel-sweep inputs, alternating rounds on values built once and reused,
as the benchmark does, with rounds on values built afresh (the build is not
timed).  It prints the median microseconds per kernel call of each, scaled
to reference speed by ``perfbench/refload.py`` as the benchmark scales.
A checkout without ``_map_facts`` gets the timing alone.  Run from the
root of a checkout, or with ``--root`` naming one::

    python3 scripts/memo_hits.py [--root DIR] [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def count(pairs, operations):
    """Run each operation; returns (predicate calls, reads within, reads across)."""
    facts, owner, tally, op = pairs._map_facts, {}, [0, 0, 0], 0

    def counted(f):
        tally[0] += 1
        if f._facts is None:
            owner[id(f)] = (op, f)  # f is kept alive, so its id stays its own
        elif owner[id(f)][0] == op:
            tally[1] += 1
        else:
            tally[2] += 1
        return facts(f)

    pairs._map_facts = counted
    try:
        for op, run in enumerate(operations):
            run()
    finally:
        pairs._map_facts = facts
    return tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20, help="kernel-sweep rounds counted")
    parser.add_argument("--seconds", type=float, default=0.0, help="time the sweep this long per side")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import gen
    import worker
    from refload import Bracketed
    from modpairs import dsl, pairs
    from modpairs.cli import main as cli_main
    from modpairs.cli import run_command

    def quiet(call):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            call()

    inputs, expected = gen.sweep_case(args.seed, 10)
    values = worker.build_sweep(inputs)
    batch = gen.model_case(args.seed, 200).text
    shell, queries = gen.shell_case(args.seed)
    model = args.root / ".perfbench_work" / "memo_hits.lp"
    model.parent.mkdir(exist_ok=True)
    model.write_text(shell.text)
    calls = [[*q.argv, "--model", str(model), "--machine"] for q in queries if q.model == "shell"]
    workloads = {
        "shell-queries": [lambda argv=argv: quiet(lambda: cli_main(argv)) for argv in calls],
        "check-all-batch": [lambda: run_command(dsl.parse(batch), ["check-all"])] * 3,
        "kernel-sweep": [lambda: worker.sweep_round(worker.kernels(), values)] * args.rounds,
        "dsl-roundtrip": [lambda: dsl.print_model(dsl.parse(batch))],
    }
    report = {}
    for name, operations in workloads.items() if hasattr(pairs, "_map_facts") else ():
        total, within, across = count(pairs, operations)
        report[name] = {"operations": len(operations), "predicate_calls_per_op": total / len(operations),
                        "read_within_op": within / total if total else 0.0,
                        "read_across_ops": across / total if total else 0.0}
    if args.seconds:
        # rounds on reused and on fresh values alternate, each timed at reference speed as the benchmark's are
        clock, stop = Bracketed(), time.perf_counter() + args.seconds
        while time.perf_counter() < stop:
            for v in (values, worker.build_sweep(inputs)):
                t0 = time.perf_counter()
                worker.sweep_round(worker.kernels(), v)
                clock.add(time.perf_counter() - t0)
        for side, times in (("reused", clock.scaled[0::2]), ("fresh", clock.scaled[1::2])):
            report[f"sweep_us_per_call_{side}"] = statistics.median(times) / len(expected) * 1e6
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
