#!/usr/bin/env python3
"""Benchmark for modpairs: seeded workloads, checked outputs, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each one exists):

  shell-queries    single-verb ``python -m modpairs ... --machine`` calls, one at a time
  check-all-batch  one ``check-all --machine`` subprocess on a model of ~2k declarations
  kernel-sweep     in-process calls to every public kernel on seeded value objects
  dsl-roundtrip    in-process parse -> print_model -> parse of a clean model
  dsl-recover      in-process parse of a model with injected faults, to its diagnostics

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics, taken from spans around
public modpairs calls made in a fresh interpreter (perfbench/worker.py).
Every output is checked against the generator's ledger (perfbench/gen.py),
outside the timed region.  The program is always the one under ``src/`` of
the checkout this file sits in; the run fails without printing a result if
it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from math import gcd
from pathlib import Path

import gen
from refload import Bracketed
from tracer import KERNELS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

WORKLOADS = ("shell-queries", "check-all-batch", "kernel-sweep", "dsl-roundtrip", "dsl-recover")
# blocks of ten declarations per model, and the kernel sweep's input scale
SIZES = {
    "full": {"checkall_blocks": 200, "dsl_blocks": 150, "sweep_scale": 10},
    "tiny": {"checkall_blocks": 3, "dsl_blocks": 3, "sweep_scale": 1},
}
SETUP_REPEATS = 5
# A typical wall time of a bare ``python -c pass`` on the machine the bounds were set on.
START_S = 0.060
IMPORT_MODULES = ("modpairs", "modpairs.cli", "modpairs.dsl", "modpairs.pairs", "modpairs.blowup",
                  "modpairs.correspondences", "modpairs.qdivisors")
DIAG_LINE = re.compile(r"^(\d+:\d+: error: .+ \[E\d+\]|error: .+)$", re.M)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(argv, stem, timeout=150.0):
    """Run a child to completion; returns (status, wall seconds, peak RSS in KB, stdout, stderr)."""
    out_path, err_path = WORK / f"{stem}.out", WORK / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, elapsed, usage.ru_maxrss,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def check_import():
    """Fail unless a fresh interpreter imports modpairs from this checkout; warms the byte-code cache."""
    status, _, _, out, err = spawn([PY, "-c", "import modpairs; print(modpairs.__file__)"], "import")
    if status != 0 or not out.strip().startswith(str(SRC)):
        raise BenchError(f"cannot import modpairs from {SRC}: {err.strip() or out.strip()}")


def start_seconds():
    """Wall time of a bare interpreter start: the reference load for subprocess operations."""
    return spawn([PY, "-c", "pass"], "start")[1]


def import_seconds():
    """Median scaled wall time of a fresh interpreter running ``import modpairs``."""
    clock = Bracketed(start_seconds, START_S)
    for _ in range(SETUP_REPEATS):
        clock.add(spawn([PY, "-c", "import modpairs"], "import")[1])
    return statistics.median(clock.scaled)


def import_profile():
    """Self time of each modpairs module and of the standard library it pulls in, in us."""
    line = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)$")
    samples = []
    for _ in range(SETUP_REPEATS):
        _, _, _, _, err = spawn([PY, "-X", "importtime", "-c", "import modpairs"], "importtime")
        rows = [(len(m[2]) // 2, m[3], int(m[1])) for m in map(line.match, err.splitlines()) if m]
        top = max(i for i, (depth, name, _) in enumerate(rows) if depth == 0 and name == "modpairs")
        first = top
        while first > 0 and rows[first - 1][0] > 0:
            first -= 1
        tree = rows[first:top + 1]
        # a module that is no longer imported under ``import modpairs`` reads 0
        sample = dict.fromkeys((f"import.{name}.self_us" for name in IMPORT_MODULES), 0)
        sample |= {f"import.{name}.self_us": us for _, name, us in tree if name in IMPORT_MODULES}
        sample["import.stdlib.us"] = sum(us for _, name, us in tree if not name.startswith("modpairs"))
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def judge(query, status, stdout, stderr, exc=None):
    """'ok', 'failed' (a known crash fault still crashes) or 'wrong' (a checked answer differs)."""
    clean = exc is None and "Traceback" not in stderr
    if query.known_fault:
        return "ok" if clean and status == 2 and DIAG_LINE.search(stderr) else "failed"
    if not clean or status != query.status:
        return "wrong"
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return "wrong"
    if records != list(query.records):
        return "wrong"
    if query.stderr_code is None:
        return "ok" if stderr == "" else "wrong"
    return "ok" if f"[{query.stderr_code}]" in stderr else "wrong"


def write_models(files):
    paths = {}
    for key, content in files.items():
        path = WORK / f"{key}.lp"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        paths[key] = str(path)
    return paths


def shell_inputs(seed):
    case, queries = gen.shell_case(seed)
    paths = write_models({"shell": case.text, "fault-base": gen.FAULT_BASE_MODEL,
                          "fault-digit": gen.FAULT_DIGIT_MODEL, "fault-bytes": gen.FAULT_BYTES_MODEL})
    return [(q, [*q.argv, "--model", paths[q.model], "--machine"]) for q in queries]


def batch_inputs(seed, blocks):
    case = gen.model_case(seed, blocks)
    records, status = gen.check_all_records(case)
    path = write_models({"batch": case.text})["batch"]
    query = gen.Query(("check-all",), "batch", status, tuple(records))
    return case, [(query, ["check-all", "--model", path, "--machine"])]


class Outcome:
    """Counts and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, verdict, what):
        """Count one operation judged 'ok', 'failed' (no answer) or 'wrong' (a wrong answer)."""
        self.attempted += 1
        if verdict == "failed":
            self.failed += 1
        elif verdict == "wrong":
            self.problems.append(f"wrong answer: {what}")

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def run_cli(calls, seconds, outcome):
    """Closed loop of CLI subprocesses, whole rounds of ``calls`` until ``seconds`` pass."""
    clock, rss = Bracketed(start_seconds, START_S), []
    start = time.perf_counter()
    while not rss or time.perf_counter() - start < seconds:
        for query, argv in calls:
            status, elapsed, peak_kb, out, err = spawn([PY, "-m", "modpairs", *argv], "call")
            clock.add(elapsed)
            rss.append(peak_kb)
            outcome.record(judge(query, status, out, err), " ".join(query.argv))
    return clock.scaled, rss


def run_worker(job, seconds):
    job = {**job, "seconds": seconds, "src": str(SRC), "spans_path": str(WORK / "spans.json")}
    (WORK / "job.json").write_text(json.dumps(job), encoding="utf-8")
    status, _, _, _, err = spawn([PY, str(HERE / "worker.py"), str(WORK / "job.json"), str(WORK / "result.json")],
                                 "worker", timeout=seconds + 150)
    if status != 0:
        raise BenchError(f"worker exited with status {status}: {err.strip()[-2000:]}")
    return json.loads((WORK / "result.json").read_text(encoding="utf-8"))


def normal(x):
    return json.loads(json.dumps(x))


def check_sweep(result, expected, outcome):
    got = result["first"]
    outcome.check(len(got) == len(expected), f"sweep made {len(got)} calls per round, ledger has {len(expected)}")
    by_key = {}
    for (key, want), have in zip(expected, got):
        by_key[key] = have
        outcome.check(normal(want) == have, f"{key}: got {have!r}, ledger says {want!r}")
    for key, have in by_key.items():
        item, call = key.split(".")
        if call == "pullback_composite":
            outcome.check(have == by_key[f"{item}.pullback_f_of_g"], f"{item}: pullback(compose(g, f)) differs")
        elif call == "hom_log_exists":
            outcome.check(have == (by_key[f"{item}.minimal_twist"] is not None), f"{item}: hom-log vs twist")
        elif call == "in_colim_mcor":
            outcome.check(have == (by_key[f"{item}.corr_minimal_twist"] is not None), f"{item}: colim vs twist")
        elif call == "in_lcor":
            outcome.check(not have or by_key[f"{item}.in_colim_mcor"], f"{item}: lcor without colim")
        elif call == "q_normalize":
            level, _, mults = have
            g = level
            for m in mults:
                g = gcd(g, m)
            outcome.check(g == 1 and by_key[f"{item}.q_eq_normalized"] is True, f"{item}: normal form")


def spans_in_bounds(text, diags):
    lines = text.split("\n")
    return all(1 <= line <= len(lines) and col >= 1 and col - 1 + length <= len(lines[line - 1])
               for line, col, length, *_ in diags)


def in_process(workload, seed, size, seconds, trace, outcome):
    """Run an in-process workload in the worker; returns (worker result, calls per operation)."""
    if workload == "kernel-sweep":
        inputs, expected = gen.sweep_case(seed, SIZES[size]["sweep_scale"])
        result = run_worker({"mode": "sweep", "inputs": inputs, "trace": trace, "builds": SETUP_REPEATS}, seconds)
        check_sweep(result, expected, outcome)
        per_op = len(expected)
    elif workload == "dsl-roundtrip":
        case = gen.model_case(seed, SIZES[size]["dsl_blocks"])
        result = run_worker({"mode": "roundtrip", "inputs": {"text": case.text}, "trace": trace}, seconds)
        first = result["first"]
        outcome.check("decls" in first, f"clean model did not parse: {first.get('diagnostics', '')[:3]}")
        if "decls" in first:
            outcome.check(first["decls"] == normal([d.plain() for d in case.decls]), "parsed model differs from ledger")
            outcome.check(first["printed"] == case.canonical, "print_model differs from the canonical text")
            outcome.check(first["reparsed_equal"], "re-parsed model differs from the original")
        per_op = 1
    else:
        text, expected = gen.faulted_case(seed, SIZES[size]["dsl_blocks"])
        result = run_worker({"mode": "recover", "inputs": {"text": text}, "trace": trace}, seconds)
        first = result["first"]
        ok = isinstance(first, list)
        outcome.check(ok, "faulted model parsed without diagnostics")
        if ok:
            got = sorted(tuple(d[:4]) for d in first)
            outcome.check(got == [tuple(e) for e in expected], "diagnostics differ from the injected faults")
            outcome.check(all(d[4] == "error" for d in first), "a diagnostic is not an error")
            outcome.check(spans_in_bounds(text, first), "a diagnostic span is out of bounds")
        per_op = 1
    outcome.check(result["mismatches"] == 0, f"{result['mismatches']} operations gave other outputs than the first")
    ops = len(result["times"]) + len(result["traced_times"])
    outcome.attempted += ops * per_op
    return result, per_op


def main_calls(calls, seconds, outcome):
    """Traced run of a CLI workload: ``modpairs.cli.main`` in-process in the worker."""
    result = run_worker({"mode": "main", "inputs": {"calls": [argv for _, argv in calls]}, "trace": True}, seconds)
    passes = len(result["times"]) + len(result["traced_times"])
    for _ in range(passes):
        for (query, _), (status, out, err, exc) in zip(calls, result["first"]):
            outcome.record(judge(query, status, out, err, exc), " ".join(query.argv))
    outcome.check(result["mismatches"] == 0, f"{result['mismatches']} passes gave other outputs than the first")
    return result


def span_expectations(case):
    """Calls per check-all pass that the ledger predicts for each traced name."""
    maps, corrs, qpairs, blowups = (case.count(k) for k in ("map", "corr", "qpair", "blowup"))
    valid = case.valid_blowups()
    centers = sum(len(d.data["center_coords"]) for d in valid)
    records = 4 * maps + corrs + qpairs + blowups + len(valid)
    expect = {f"pairs.{n}": maps for n in ("is_admissible", "minimal_twist", "hom_log_exists", "is_minimal")}
    expect |= {f"correspondences.{n}": corrs for n in ("in_mcor", "in_colim_mcor", "in_lcor", "corr_minimal_twist")}
    expect |= {"pairs.pullback": 4 * maps + centers, "blowup.classify": 2 * blowups + 2 * len(valid),
               "blowup.blowup_charts": len(valid), "qdivisors.q_normalize": qpairs,
               "dsl.format_decl": 2 * records, "cli.records": records}
    return expect


def layer_metrics(result):
    """Per-layer metrics per traced pass, from the worker's span totals."""
    spans = result["spans"]  # name -> [calls, seconds, self seconds, summed note]
    passes = len(result["traced_times"])
    m = {}
    _, s, _, note = spans["dsl.parse"]
    chars, decls, diags = note or (0, 0, 0)
    m["dsl.parse.s"] = s / passes
    m["dsl.parse.bytes_per_s"] = chars / s if s else 0.0
    m["dsl.parse.decls"] = decls / passes
    m["dsl.parse.diagnostics_emitted"] = diags / passes
    m["dsl.print_model.s"] = spans["dsl.print_model"][1] / passes
    calls, s, _, _ = spans["dsl.format_decl"]
    m["dsl.format_decl.calls"] = calls / passes
    m["dsl.format_decl.us_per_call"] = s / calls * 1e6 if calls else 0.0
    _, main_s, main_self, _ = spans["cli.main"]
    _, rc_s, rc_self, rc_note = spans["cli.run_command"]
    m["cli.main.s"] = main_s / passes
    m["cli.run_command.s"] = rc_s / passes
    m["cli.run_command.self_s"] = rc_self / passes
    m["cli.render.s"] = main_self / passes
    m["cli.records"] = (rc_note or (0,))[0] / passes
    for name in KERNELS:
        calls, s, _, _ = spans[name]
        m[f"{name}.calls"] = calls / passes
        m[f"{name}.us_per_call"] = s / calls * 1e6 if calls else 0.0
    m["trace.overhead_s"] = statistics.median(result["traced_times"]) - statistics.median(result["times"])
    return m


def run(workload, seed, seconds, trace, size):
    """One benchmark run; returns (metrics, outcome)."""
    outcome = Outcome()
    # the reference load and the measured children share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    check_import()
    case, calls = None, None
    if workload == "shell-queries":
        calls = shell_inputs(seed)
    elif workload == "check-all-batch":
        case, calls = batch_inputs(seed, SIZES[size]["checkall_blocks"])
    if trace:
        metrics = import_profile()
        if calls:
            result = main_calls(calls, seconds, outcome)
        else:
            result, _ = in_process(workload, seed, size, seconds, True, outcome)
        metrics |= layer_metrics(result)
        if case:
            # fewer calls than the ledger predicts may be a legitimate saving; none at all means
            # the wrappers no longer see the calls check-all makes
            for name, want in span_expectations(case).items():
                got = metrics[f"{name}.calls" if name != "cli.records" else name]
                print(f"span count {name}: {got:g} per pass, ledger {want}{'' if got == want else '  DIFFERS'}")
                outcome.check(got > 0 or want == 0, f"traced run saw no calls of {name}; the ledger predicts {want}")
        return metrics, outcome
    setup = import_seconds()
    if calls:
        times, rss = run_cli(calls, seconds, outcome)
        return {"setup_s": setup, "op_ms_p50": statistics.median(times) * 1e3,
                "peak_rss_mb": statistics.median(rss) / 1024}, outcome
    result, per_op = in_process(workload, seed, size, seconds, False, outcome)
    if result["builds"]:
        setup += statistics.median(result["builds"])
    return {"setup_s": setup, "op_ms_p50": statistics.median(t / per_op for t in result["scaled_times"]) * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024}, outcome


def units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="input size; tiny is for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "modpairs" / "__init__.py").is_file():
        print(f"error: no modpairs package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        metrics, outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    unit = units()
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
