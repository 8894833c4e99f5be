"""Mutation gate: each mutant in ``tests/data/mutants.json`` must fail its tests.

Usage, from the root of a checkout::

    python scripts/mutants.py

Each row of the table names a file, an exact ``old`` string that occurs in it
once, the ``new`` string put in its place, and the tests that must fail.  The
script copies ``src/``, ``tests/``, ``scripts/`` and ``pyproject.toml`` to one
temporary directory per CPU it may run on, checks in one of them that the
union of the named tests passes, then runs the rows on every copy at once:
each row is applied to a free copy, ``python -m pytest -q -x`` runs its tests
there, and the copy is restored.  A mutant is killed when pytest reports a
failed test (status 1).  It survives when the tests pass; any other status is
an error.  One line per row is printed, in table order.  The exit status is 0
when every row is killed, 1 when some survive, and 2 on a table error, an error
run, or when the unchanged copy fails.  Standard library only.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "mutants.json"
COPIED = ("src", "tests", "scripts", "pyproject.toml")


def pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """pytest on ``tests`` in ``copy``, whose ``pyproject.toml`` puts its own ``src`` first."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a restored file must never meet its mutant's byte-code
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def check_table(rows: list[dict]) -> list[str]:
    """Every fault in the table: missing fields, a repeated id, or an ``old``
    that does not occur exactly once in its file."""
    faults, seen = [], set()
    for row in rows:
        name = row.get("id")
        if not all(isinstance(row.get(k), str) for k in ("id", "file", "old", "new")) or not row.get("tests"):
            faults.append(f"{name}: a row needs id, file, old, new and tests")
            continue
        if name in seen:
            faults.append(f"{name}: repeated id")
        seen.add(name)
        path = ROOT / row["file"]
        count = path.read_text(encoding="utf-8").count(row["old"]) if path.is_file() else 0
        if count != 1:
            faults.append(f"{name}: old string occurs {count} times in {row['file']}, not once")
    return faults


def copy_tree(copy: Path):
    """The files a row's tests read, in the new directory ``copy``."""
    copy.mkdir()
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, copy / name)


def run_row(copies: queue.SimpleQueue, row: dict) -> tuple[subprocess.CompletedProcess, float]:
    """The row's tests on a free copy with the mutant applied, and their seconds;
    the copy is restored and freed again."""
    copy = copies.get()
    try:
        path = copy / row["file"]
        original = path.read_text(encoding="utf-8")
        path.write_text(original.replace(row["old"], row["new"]), encoding="utf-8")
        start = time.perf_counter()
        try:
            result = pytest(copy, row["tests"])
        finally:
            path.write_text(original, encoding="utf-8")
        return result, time.perf_counter() - start
    finally:
        copies.put(copy)


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    faults = check_table(rows)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 2
    workers = min(len(os.sched_getaffinity(0)), len(rows))
    with tempfile.TemporaryDirectory(prefix="modpairs-mutants-") as tmp:
        copies: queue.SimpleQueue = queue.SimpleQueue()
        for k in range(workers):
            copy_tree(Path(tmp) / str(k))
            copies.put(Path(tmp) / str(k))
        tests = sorted({t for row in rows for t in row["tests"]})
        clean = pytest(Path(tmp) / "0", tests)
        if clean.returncode != 0:
            print(f"the named tests fail on the unchanged copy:\n{clean.stdout[-3000:]}{clean.stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        survived = errors = 0
        with ThreadPoolExecutor(workers) as pool:
            # map yields in table order, each result as soon as it and those before it are done
            for row, (result, took) in zip(rows, pool.map(lambda row: run_row(copies, row), rows)):
                if result.returncode == 1:
                    verdict = "killed"
                elif result.returncode == 0:
                    verdict, survived = "SURVIVED", survived + 1
                else:
                    verdict, errors = f"ERROR (pytest status {result.returncode})", errors + 1
                print(f"{verdict:<10} {took:5.1f}s  {row['id']}", flush=True)
                if result.returncode not in (0, 1):
                    print(result.stdout[-2000:] + result.stderr[-2000:], file=sys.stderr)
    print(f"{len(rows) - survived - errors} of {len(rows)} mutants killed")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
