"""Spans around public modpairs functions, recorded from outside the program.

A ``Tracer`` rebinds every module-level name under ``modpairs`` that refers
to a traced function (``modpairs.cli.minimal_twist``, ``modpairs.pairs.pullback``,
``modpairs.blowup.pullback``, ...) to a wrapper, so calls made inside the
package are seen as well as calls from outside it.  Spans stay in memory as
``(name, start, end, parent index, note)`` and are summarized when a pass ends.
"""

from __future__ import annotations

import sys
import time

# span name -> (defining module, function name)
KERNELS = {
    "pairs.pullback": ("modpairs.pairs", "pullback"),
    "pairs.is_admissible": ("modpairs.pairs", "is_admissible"),
    "pairs.minimal_twist": ("modpairs.pairs", "minimal_twist"),
    "pairs.hom_log_exists": ("modpairs.pairs", "hom_log_exists"),
    "pairs.is_minimal": ("modpairs.pairs", "is_minimal"),
    "pairs.compose": ("modpairs.pairs", "compose"),
    "pairs.twist": ("modpairs.pairs", "twist"),
    "blowup.classify": ("modpairs.blowup", "classify"),
    "blowup.blowup_charts": ("modpairs.blowup", "blowup_charts"),
    "correspondences.in_mcor": ("modpairs.correspondences", "in_mcor"),
    "correspondences.in_colim_mcor": ("modpairs.correspondences", "in_colim_mcor"),
    "correspondences.in_lcor": ("modpairs.correspondences", "in_lcor"),
    "correspondences.corr_minimal_twist": ("modpairs.correspondences", "corr_minimal_twist"),
    "qdivisors.q_normalize": ("modpairs.qdivisors", "q_normalize"),
    "qdivisors.q_eq": ("modpairs.qdivisors", "q_eq"),
    "qdivisors.cube": ("modpairs.qdivisors", "cube"),
}
TRACED = {
    "cli.main": ("modpairs.cli", "main"),
    "cli.run_command": ("modpairs.cli", "run_command"),
    "dsl.parse": ("modpairs.dsl", "parse"),
    "dsl.print_model": ("modpairs.dsl", "print_model"),
    "dsl.format_decl": ("modpairs.dsl", "format_decl"),
    **KERNELS,
}


def _parse_note(args, result):
    # (characters read, declarations returned, diagnostics returned)
    if isinstance(result, list):
        return (len(args[0]), 0, len(result))
    return (len(args[0]), len(result.decls), 0)


def _run_command_note(args, result):
    return (len(result.records),)


NOTES = {"dsl.parse": _parse_note, "cli.run_command": _run_command_note}


class Tracer:
    """Context manager that wraps every binding of the traced functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = note(args, result) if note and result is not None else None
                spans[index] = (name, start, end, parent, info)

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "modpairs" or n.startswith("modpairs.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()
        return False


def summarize(spans) -> dict:
    """Totals per span name: calls, seconds, self seconds and summed notes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "note": None} for name in TRACED}
    for i, (name, start, end, _, info) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["note"] = _add_notes(agg["note"], info)
    return out


def _add_notes(a, b):
    if a is None or b is None:
        return b if a is None else a
    return tuple(x + y for x, y in zip(a, b))


def merge(total: dict, part: dict) -> dict:
    """Add one pass's summary into a running total."""
    if not total:
        return part
    for name, agg in part.items():
        t = total[name]
        for key in ("calls", "s", "self_s"):
            t[key] += agg[key]
        t["note"] = _add_notes(t["note"], agg["note"])
    return total
