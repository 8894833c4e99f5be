"""Cost linear in what is read and written, as each dimension of a model grows.

Each shape is a model text at a size ``n`` and at ``4·n``.  ``parse``, and
``run_command(["check-all"])`` when the text parses, are counted in Python
byte-code instructions executed, which repeat to the unit from run to run, so
the law can be tight: the count at ``4·n`` is at most 4.4 times the count at
``n``.  The count cannot see work done in C, such as a pattern that
backtracks or a string scanned from its start again, so each shape is also
timed, best of 5 with the collector off as the process entry runs it, with a
wide bound: at most 8 times.  A full-center blowup's answer has ``d`` charts
of ``d`` assignments, so its ``check-all`` grows 16-fold from ``d`` to ``4·d``
and is held to 4 times those bounds.
"""

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modpairs.cli import run_command
from modpairs.dsl import Model, parse
from opcode_counts import declarations, opcodes
from test_memory import full_center_blowup_model, identity_map_model

COUNT_LAW, WALL_LAW = 4.4, 8.0


def best_wall(fn, *args, repeat: int = 5) -> float:
    was = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
    finally:
        if was:
            gc.enable()
    return best


def stray_characters(n: int) -> str:
    return "@" * n


def pair_semicolons(n: int) -> str:
    return "pair;\n" * n


def duplicate_names(n: int) -> str:
    return "pair X { dim 1; coords t; divisor {t: 1} }\n" * n


def alternating_spellings(n: int) -> str:
    """``n`` pairs, every other one spelled for the token path."""
    return "".join(
        f"pair A{i} {{ dim 1; coords t; divisor {{t: 1}} }}\n" if i % 2 else
        f"pair A{i} {{ dim 1; coords t; divisor {{ t: 1 }} }}\n"
        for i in range(n)
    )


def wide_token_map(n: int) -> str:
    """One pair on ``n`` coordinates and its identity map, spelled for the token path."""
    coords = " ".join(f"x{i}" for i in range(n))
    assigns = " ; ".join(f"x{i} <- x{i}" for i in range(n))
    return f"pair P {{ dim {n}; coords {coords}; divisor {{x0: 1}} }}\nmap F : P -> P {{ {assigns} }}\n"


# each shape: its text at a size, the size n, and how many times check-all's
# answer grows from n to 4·n
SHAPES = {
    "declarations": (declarations, 25, 4),
    "identity-map": (identity_map_model, 250, 4),
    "full-center-blowup": (full_center_blowup_model, 25, 16),
    "stray-characters": (stray_characters, 500, 4),
    "pair-semicolons": (pair_semicolons, 500, 4),
    "duplicate-names": (duplicate_names, 500, 4),
    "alternating-spellings": (alternating_spellings, 500, 4),
    "wide-token-map": (wide_token_map, 500, 4),
}


def check_all(model: Model):
    return run_command(model, ["check-all"])


def steps(text: str) -> list:
    """(name, function, argument) for each counted or timed operation on ``text``."""
    model = parse(text)
    return [("parse", parse, text)] + ([("check-all", check_all, model)] if isinstance(model, Model) else [])


@pytest.mark.parametrize("shape", SHAPES)
def test_counted_cost_grows_linearly(shape):
    build, n, grows = SHAPES[shape]
    small, large, warm = steps(build(n)), steps(build(4 * n)), steps(build(n))
    assert [s[0] for s in small] == [s[0] for s in large]
    for (name, fn, small_arg), (_, _, large_arg), (_, _, warm_arg) in zip(small, large, warm):
        # modules and patterns loaded on first use stay out of the counts; the warm-up
        # reads a model of its own, so that each counted call finds every memo empty
        fn(warm_arg)
        ratio = opcodes(fn, large_arg) / opcodes(fn, small_arg)
        bound = COUNT_LAW * (grows / 4 if name == "check-all" else 1)
        assert ratio <= bound, (name, ratio)


@pytest.mark.parametrize("shape", SHAPES)
def test_wall_time_grows_linearly(shape):
    build, n, grows = SHAPES[shape]
    small, large, warm = steps(build(n)), steps(build(4 * n)), steps(build(n))
    for (name, fn, small_arg), (_, _, large_arg), (_, _, warm_arg) in zip(small, large, warm):
        fn(warm_arg)
        ratio = best_wall(fn, large_arg) / best_wall(fn, small_arg)
        bound = WALL_LAW * (grows / 4 if name == "check-all" else 1)
        assert ratio <= bound, (name, ratio)


def test_a_count_is_whole_from_a_process_first_call_and_never_nothing():
    # in a fresh process, whose first count no other test has warmed
    script = ("from opcode_counts import declarations, opcodes; from modpairs.dsl import parse; "
              "print(opcodes(parse, declarations(1)), opcodes(parse, declarations(1)))")
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    first, second = map(int, run.stdout.split())
    assert first == second > 0
    with pytest.raises(RuntimeError, match="no byte-code instruction"):
        opcodes(len, ())  # a builtin runs no byte-code
