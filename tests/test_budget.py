"""A byte-code budget for each operation a shell call or a batch pays for.

``tests/data/opcode_budget.json`` holds, per Python minor version, the number
of byte-code instructions (``test_growth.opcodes``) that each operation below
executes on fixed inputs: ``parse`` of a canonical text of 320 declarations and
of that text with a fault in every block, ``run_command(["check-all"])``,
``print_model`` and ``Model(decls)`` on its model, one ``main`` verb call
with ``--machine`` on the bundled example, argv reader included, and one call
of each public kernel of the four math modules on small fixed values.  The
counts repeat to the unit from run to run, so a count over its budget fails.
They also move between patch releases, so each minor version's counts name
the release that counted them, and any other release skips, as an
interpreter with no budget does.  A change that lowers a count lowers its
budget; one that raises a count says why.  To print this interpreter's
counts, from the root of a checkout::

    PYTHONPATH=src:tests python tests/test_budget.py
"""

import gc
import importlib
import io
import json
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType

import pytest

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
from test_growth import declarations, opcodes

BUDGET = json.loads((Path(__file__).parent / "data" / "opcode_budget.json").read_text(encoding="utf-8"))
VERSION, RELEASE = "%d.%d" % sys.version_info[:2], platform.python_version()
EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"


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
    """name: (function, argument) for each counted operation."""
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
    fn, arg = operations()[name]
    fn(arg)  # modules and patterns loaded on first use stay out of the count
    was = gc.isenabled()
    gc.collect()
    gc.disable()  # no collection runs the finalizers of other tests' objects inside the count
    try:
        return opcodes(fn, arg)
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("name", list(operations()))
def test_each_count_is_within_its_budget(name):
    if VERSION not in BUDGET["budgets"]:
        pytest.skip(f"no byte-code budget for Python {VERSION}")
    budget = BUDGET["budgets"][VERSION]
    if budget["release"] != RELEASE:
        pytest.skip(f"the Python {VERSION} budget was counted on {budget['release']}, and this is {RELEASE}")
    assert count(name) <= budget["counts"][name]


def test_the_budget_names_every_operation():
    for version, budget in BUDGET["budgets"].items():
        assert budget["release"].startswith(version + ".")
        assert set(budget["counts"]) == set(operations())


def _genexprs(code: CodeType) -> list[str]:
    """The names of the functions inside ``code`` that hold a generator expression."""
    found = []
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_name == "<genexpr>":
                found.append(code.co_name)
            found += _genexprs(const)
    return found


@pytest.mark.parametrize("module", ["pairs", "blowup", "correspondences", "qdivisors", "dsl"])
def test_no_math_module_holds_a_generator_expression(module):
    # a generator's frame, built and resumed per entry, costs more than a kernel's few
    # multiplications or a printer's one f-string; this holds on every release, where the
    # budgets skip
    path = Path(importlib.import_module(f"modpairs.{module}").__file__)
    assert _genexprs(compile(path.read_text(encoding="utf-8"), str(path), "exec")) == []


if __name__ == "__main__":
    counts = {name: count(name) for name in operations()}
    print(json.dumps({VERSION: {"release": RELEASE, "counts": counts}}, indent=1))
