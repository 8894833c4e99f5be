"""A byte-code budget for each operation a shell call or a batch pays for.

``tests/data/opcode_budget.json`` holds, per Python minor version, the number
of byte-code instructions (``test_growth.opcodes``) that each operation below
executes on fixed inputs: ``parse`` of a canonical text of 320 declarations and
of that text with a fault in every block, ``run_command(["check-all"])``,
``print_model`` and ``Model(decls)`` on its model, and one ``main`` verb call
with ``--machine`` on the bundled example, argv reader included.  The counts
repeat to the unit from run to run, so a count over its budget fails, and an
interpreter with no budget skips.  A change that lowers a count lowers its
budget; one that raises a count says why.  To print this interpreter's
counts, from the root of a checkout::

    PYTHONPATH=src:tests python tests/test_budget.py
"""

import gc
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from modpairs.cli import main, run_command
from modpairs.dsl import Model, parse, print_model
from test_growth import declarations, opcodes

BUDGET = json.loads((Path(__file__).parent / "data" / "opcode_budget.json").read_text(encoding="utf-8"))
VERSION = "%d.%d" % sys.version_info[:2]
EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


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
    if VERSION not in BUDGET["counts"]:
        pytest.skip(f"no byte-code budget for Python {VERSION}")
    assert count(name) <= BUDGET["counts"][VERSION][name]


def test_the_budget_names_every_operation():
    assert all(set(counts) == set(operations()) for counts in BUDGET["counts"].values())


if __name__ == "__main__":
    print(json.dumps({VERSION: {name: count(name) for name in operations()}}, indent=1))
