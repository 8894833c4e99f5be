"""A byte-code budget for each operation a shell call or a batch pays for.

``tests/data/opcode_budget.json`` holds, per Python minor version, the number
of byte-code instructions (``opcode_counts.opcodes``) that each operation of
``opcode_counts.operations`` executes on fixed inputs.  The counts repeat to
the unit from run to run, so a count over its budget fails.  They also move
between patch releases, so each minor version's counts name the release that
counted them, and any other release skips, as an interpreter with no budget
does.  A change that lowers a count lowers its budget; one that raises a
count says why.  To print this interpreter's counts, with no package outside
the standard library, from the root of a checkout::

    PYTHONPATH=src:tests python -S tests/opcode_counts.py
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

import pytest

from opcode_counts import RELEASE, VERSION, count, operations

BUDGET = json.loads((Path(__file__).parent / "data" / "opcode_budget.json").read_text(encoding="utf-8"))


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


def test_the_counter_runs_without_pytest():
    # under -S, with no site-packages and so no pytest, as a release that has none counts its budget
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    run = subprocess.run([sys.executable, "-S", str(tests / "opcode_counts.py")], env=env, capture_output=True,
                         text=True, check=True)
    (version, counted), = json.loads(run.stdout).items()
    assert version == VERSION and counted["release"] == RELEASE
    assert set(counted["counts"]) == set(operations())
    assert all(type(n) is int and n > 0 for n in counted["counts"].values())
    budget = BUDGET["budgets"].get(VERSION, {})
    if budget.get("release") == RELEASE:
        assert all(counted["counts"][name] <= budget["counts"][name] for name in counted["counts"])


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

