"""In-process half of the benchmark: runs one workload's operations in a fresh interpreter.

Usage: ``python worker.py JOB.json OUT.json`` with ``src`` on ``PYTHONPATH``.
The job names a mode (``sweep``, ``roundtrip``, ``recover`` or ``main``), the
seconds to run and the plain-data inputs.  The worker times each operation,
keeps the first operation's outputs only as serialized plain data for the
caller to check, compares every later operation's outputs with them, and
drops each output before the next operation, so its peak resident memory is
one operation's working set on top of the inputs.  It writes timings, outputs
and that peak to OUT.json.  With ``trace`` set it alternates untraced and
traced passes and also writes span totals.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import modpairs
from modpairs import cli, correspondences, dsl
from modpairs.blowup import BlowupClass, BlowupSpec
from modpairs.correspondences import ConstantCorr, CorrLocalRecord, NonConstantCorr
from modpairs.dsl import BlowupDecl, CorrDecl, MapDecl, PairDecl, QPairDecl
from modpairs.pairs import Chart, Divisor, MonomialMap, Pair, PairMap
from modpairs.qdivisors import QPair
from refload import Bracketed
from tracer import KERNELS, Tracer, merge, summarize


def _chart(prefix, dim):
    return Chart(tuple(f"{prefix}{i}" for i in range(dim)))


def build_sweep(inputs):
    """Value objects for the kernel sweep, built through the public constructors."""
    maps = []
    for xs, ys, expo, src, dst, n in inputs["maps"]:
        s, d = Chart(tuple(xs)), Chart(tuple(ys))
        maps.append((PairMap(MonomialMap(s, d, expo), Pair(s, Divisor(src)), Pair(d, Divisor(dst))), n))
    chains = []
    for da, db, dc, f, g, div in inputs["chains"]:
        a, b, c = _chart("a", da), _chart("b", db), _chart("c", dc)
        chains.append((MonomialMap(a, b, f), MonomialMap(b, c, g), Divisor(div)))
    blowups = [BlowupSpec(Pair(_chart("x", dim), Divisor(mults)), frozenset(center))
               for dim, mults, center in inputs["blowups"]]
    corrs = []
    for item in inputs["corrs"]:
        if item[0] == "records":
            corrs.append(NonConstantCorr(tuple(CorrLocalRecord(*r) for r in item[1])))
        elif item[0] == "monomial":
            corrs.append(correspondences.from_monomial_param(*item[1:]))
        else:
            corrs.append(ConstantCorr(item[1]))
    qpairs = []
    for level, mults, level2, mults2, n in inputs["qpairs"]:
        chart = _chart("x", len(mults))
        qpairs.append((QPair(level, Pair(chart, Divisor(mults))), QPair(level2, Pair(chart, Divisor(mults2))), n))
    return SimpleNamespace(maps=maps, chains=chains, blowups=blowups, corrs=corrs, qpairs=qpairs)


def kernels():
    """The kernel functions as currently bound in their modules (wrapped while tracing)."""
    return SimpleNamespace(**{attr: getattr(sys.modules[module], attr) for module, attr in KERNELS.values()})


def sweep_round(k, v):
    """One call of every kernel on every input; returns every result in call order."""
    out = []
    add = out.append
    for f, n in v.maps:
        add(k.pullback(f.map, f.dst.divisor))
        add(k.is_admissible(f))
        add(k.minimal_twist(f))
        add(k.hom_log_exists(f))
        add(k.is_minimal(f))
        add(k.twist(f.src, n))
    for f, g, d in v.chains:
        h = k.compose(g, f)
        add(h)
        add(k.pullback(h, d))
        dg = k.pullback(g, d)
        add(dg)
        add(k.pullback(f, dg))
    for spec in v.blowups:
        verdict = k.classify(spec)
        add(verdict)
        if verdict is not BlowupClass.INVALID:
            add(k.blowup_charts(spec))
    for c in v.corrs:
        add(k.in_mcor(c))
        add(k.in_colim_mcor(c))
        add(k.in_lcor(c))
        add(k.corr_minimal_twist(c))
    for q, partner, n in v.qpairs:
        qn = k.q_normalize(q)
        add(qn)
        add(k.q_eq(q, partner))
        add(k.q_eq(q, qn))
        add(k.cube(q.pair, n))
    return out


def plain(x):
    """A kernel result as JSON data, in the generator's ledger form."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Divisor):
        return list(x.mults)
    if isinstance(x, Pair):
        return [list(x.chart.coords), list(x.divisor.mults)]
    if isinstance(x, MonomialMap):
        return [list(x.source.coords), list(x.target.coords), [list(r) for r in x.expo]]
    if isinstance(x, QPair):
        return [x.level, list(x.pair.chart.coords), list(x.pair.divisor.mults)]
    if isinstance(x, BlowupClass):
        return x.value
    if isinstance(x, tuple):  # blowup charts
        return [[c.index, [list(r) for r in c.chart_map.expo], list(c.total_transform.mults)] for c in x]
    raise TypeError(f"unexpected kernel result {x!r}")


def plain_decl(d):
    if isinstance(d, PairDecl):
        return ["pair", d.name, list(d.pair.chart.coords), list(d.pair.divisor.mults)]
    if isinstance(d, MapDecl):
        return ["map", d.name, d.src, d.dst, [list(r) for r in d.pair_map.map.expo]]
    if isinstance(d, CorrDecl) and d.monomial is not None:
        return ["corr", d.name, "monomial", list(d.monomial)]
    if isinstance(d, CorrDecl):
        return ["corr", d.name, d.src, d.dst, [[r.label, r.n_x, r.n_y, r.e_x, r.e_y] for r in d.corr.records]]
    if isinstance(d, QPairDecl):
        return ["qpair", d.name, d.pair_name, d.qpair.level]
    if isinstance(d, BlowupDecl):
        return ["blowup", d.name, d.pair_name, list(d.center_coords)]
    raise TypeError(f"unexpected declaration {d!r}")


def call_main(argv):
    """``modpairs.main`` with captured output: [status, stdout, stderr, exception name]."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as e:
            status = e.code
        except Exception as e:  # a crash of the program under test is an outcome to report
            status, exc = None, type(e).__name__
    return [status, out.getvalue(), err.getvalue(), exc]


class Mode:
    """One operation of a workload, plus how its outputs are compared and reported."""

    def __init__(self, job):
        self.job = job
        self.kind = job["mode"]
        self.builds: list[float] = []  # scaled seconds of each build of the sweep's inputs
        if self.kind == "sweep":
            clock = Bracketed()
            for _ in range(job["builds"]):
                t0 = time.perf_counter()
                self.values = build_sweep(job["inputs"])
                clock.add(time.perf_counter() - t0)
            self.builds = clock.scaled

    def run(self):
        """One operation; returns its raw outputs."""
        inputs = self.job["inputs"]
        if self.kind == "sweep":
            return sweep_round(kernels(), self.values)
        if self.kind == "roundtrip":
            first = dsl.parse(inputs["text"])
            printed = dsl.print_model(first)
            return first, printed, dsl.parse(printed)
        if self.kind == "recover":
            return dsl.parse(inputs["text"])
        return [call_main(argv) for argv in inputs["calls"]]

    def plain(self, out):
        if self.kind == "sweep":
            return [plain(x) for x in out]
        if self.kind == "roundtrip":
            first, printed, again = out
            if isinstance(first, list) or isinstance(again, list):
                return {"diagnostics": [dsl.format_diagnostic(d) for d in (first if isinstance(first, list) else again)]}
            return {"decls": [plain_decl(d) for d in first.decls], "printed": printed, "reparsed_equal": again == first}
        if self.kind == "recover":
            if not isinstance(out, list):
                return {"model": True}
            return [[d.line, d.column, d.length, d.code, d.severity] for d in out]
        return out


def main(job_path, out_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if not modpairs.__file__.startswith(job["src"]):
        sys.exit(f"modpairs was imported from {modpairs.__file__}, not from {job['src']}")
    mode = Mode(job)
    seconds, trace = job["seconds"], job["trace"]
    clock, traced_times, mismatches = Bracketed(), [], 0
    first, totals, last_spans = None, {}, []

    def keep(out):
        # the outputs leave memory here; only their plain form, as one string, is kept
        nonlocal first, mismatches
        text = json.dumps(mode.plain(out))
        if first is None:
            first = text
        elif text != first:
            mismatches += 1

    start = time.perf_counter()
    while not clock.raw or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = mode.run()
        clock.add(time.perf_counter() - t0)
        keep(out)
        out = None
        if trace:
            with Tracer() as tracer:
                t0 = time.perf_counter()
                out = mode.run()
                traced_times.append(time.perf_counter() - t0)
            keep(out)
            out = None
            totals = merge(totals, summarize(tracer.spans))
            last_spans = tracer.spans
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "times": clock.raw, "scaled_times": clock.scaled, "traced_times": traced_times, "mismatches": mismatches,
        "builds": mode.builds, "peak_rss_kb": peak_kb, "first": json.loads(first),
        "spans": {name: [agg["calls"], agg["s"], agg["self_s"], agg["note"]] for name, agg in totals.items()},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if trace:
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in last_spans], fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
