"""Byte-code instructions counted per operation, with the standard library alone.

``opcodes`` counts the byte-code instructions a call executes, by
``sys.settrace``; the counts repeat to the unit from run to run.
``tests/test_growth.py`` holds them to linear growth, and
``tests/test_budget.py`` holds each operation of ``operations`` to the budget
in ``tests/data/opcode_budget.json``.  This module imports neither pytest nor
any other package outside the standard library, so a release without them
counts its budget, from the root of a checkout::

    PYTHONPATH=src:tests python -S tests/opcode_counts.py

It prints one JSON object, ``{"3.11": {"release": "3.11.7", "counts":
{operation: count}}}``, in the budget file's form.
"""

import gc
import io
import json
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from modpairs.blowup import BlowupSpec, blowup_charts, classify
from modpairs.cli import main, run_command
from modpairs.correspondences import (
    CorrLocalRecord,
    NonConstantCorr,
    corr_minimal_twist,
    from_monomial_param,
    graph_corr,
    in_colim_mcor,
    in_lcor,
    in_mcor,
)
from modpairs.dsl import Model, parse, print_model
from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    compose,
    divisor_leq,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    pullback,
    twist,
)
from modpairs.qdivisors import QPair, cube, cube_projection, cube_weight, q_eq, q_normalize, q_rationals, q_transition

VERSION, RELEASE = "%d.%d" % sys.version_info[:2], platform.python_version()
EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"


def _traced(fn, *args) -> int:
    """Byte-code instructions executed by ``fn(*args)``, counted by ``sys.settrace``."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


_traced(lambda: None)  # CPython 3.12 delivers no opcode event in a process's first traced call


def opcodes(fn, *args) -> int:
    """``_traced(fn, *args)``, never 0, so that no law or budget can pass on a count of nothing."""
    count = _traced(fn, *args)
    if not count:
        raise RuntimeError(f"no byte-code instruction was counted in {fn!r}")
    return count


def declarations(n: int) -> str:
    """``n`` blocks of eight declarations, one of each form the matcher reads."""
    return "".join(
        f"pair X{i} {{ dim 1; coords t; divisor {{t: {i % 5 + 1}}} }}\n"
        f"pair Z{i} {{ dim 2; coords x y; divisor {{x: 1, y: {i % 3}}} }}\n"
        f"map f{i} : X{i} -> X{i} {{ t <- t^2 }}\n"
        f"map g{i} : Z{i} -> X{i} {{ t <- x * y^{i % 4} }}\n"
        f"corr c{i} monomial(2, 3, 1, {i % 7})\n"
        f"corr d{i} : X{i} -> X{i} {{ point w {{ nx 1; ny 2; ex 1; ey 1 }} }}\n"
        f"qpair q{i} = ({i % 6 + 1}, X{i})\n"
        f"blowup b{i} on Z{i} center {{ x, y }}\n"
        for i in range(n)
    )


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def kernels(dim: int) -> None:
    """One call of each public kernel of ``pairs``, ``blowup``, ``correspondences``
    and ``qdivisors``, and of the value methods they build with, on a chart of
    ``dim`` coordinates; every test over the entries runs to its last entry."""
    chart = Chart([f"x{i}" for i in range(dim)])
    divisor = Divisor([i + 1 for i in range(dim)])
    pair = Pair(chart, divisor)
    cyclic = MonomialMap(chart, chart, [[int(i in (j, (j + 1) % dim)) for i in range(dim)] for j in range(dim)])
    identity = MonomialMap.identity(chart)
    f = PairMap(identity, pair, pair)
    pullback(cyclic, divisor), divisor_leq(divisor, divisor), compose(cyclic, identity), cyclic.expo
    is_admissible(f), minimal_twist(f), hom_log_exists(f), is_minimal(f), twist(pair, 2), divisor.scaled(2)
    repr(pair), pair.__reduce__(), format_divisor(chart, divisor)
    spec = BlowupSpec(pair, range(dim))
    classify(spec), blowup_charts(spec)
    corr = NonConstantCorr([CorrLocalRecord(str(i), 2 * i, i, 1, 2) for i in range(dim)])  # record 0 is 0 | 0
    in_mcor(corr), in_colim_mcor(corr), in_lcor(corr), corr_minimal_twist(corr), from_monomial_param(2, 3, 1, 1)
    line = Pair(Chart(["t"]), Divisor([1]))
    graph_corr(PairMap(MonomialMap(line.chart, line.chart, [[2]]), line, line))
    q = QPair(2, twist(pair, 2))
    q_normalize(q), q_eq(q, QPair(1, pair)), q_rationals(q), q_transition(q, 3)
    cube(pair, 2), cube_weight(cube_projection(pair, 2))


def operations() -> dict:
    """name: (function, argument) for each counted operation: ``parse`` of a
    canonical text of 320 declarations and of that text with a fault in every
    block, ``run_command(["check-all"])``, ``print_model`` and ``Model(decls)``
    on its model, one ``main`` verb call with ``--machine`` on the bundled
    example, argv reader included, and one call of each public kernel."""
    text = declarations(40)
    model = parse(text)
    assert len(model.decls) == 320
    faulted = text.replace("dim 2;", "dim 3;")  # E030 on each plane, and what names it goes unread
    assert isinstance(parse(faulted), list)
    return {
        "parse-canonical": (parse, text),
        "parse-faulted": (parse, faulted),
        "run_command-check-all": (lambda m: run_command(m, ["check-all"]), model),
        "print_model": (print_model, model),
        "Model": (Model, model.decls),
        "main-verb-call": (_quiet_main, ["twist", "X", "2", "--model", str(EXAMPLE), "--machine"]),
        "kernels": (kernels, 4),
    }


def count(name: str) -> int:
    warm, warm_arg = operations()[name]
    warm(warm_arg)  # modules and patterns loaded on first use stay out of the count
    fn, arg = operations()[name]  # fresh values, whose memos the warm-up did not fill
    was = gc.isenabled()
    gc.collect()
    gc.disable()  # no collection runs the finalizers of other objects inside the count
    try:
        return opcodes(fn, arg)
    finally:
        if was:
            gc.enable()


if __name__ == "__main__":
    counts = {name: count(name) for name in operations()}
    print(json.dumps({VERSION: {"release": RELEASE, "counts": counts}}, indent=1))
