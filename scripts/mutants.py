"""Mutation gate: each mutant in ``tests/data/mutants.json`` must fail its tests.

Usage, from the root of a checkout::

    python scripts/mutants.py

Each row of the table names a file, an exact ``old`` string that occurs in it
once, the ``new`` string put in its place, and the tests that must fail.  The
script copies ``src/``, ``tests/``, ``scripts/`` and ``pyproject.toml`` to a
temporary directory, checks that the union of the named tests passes there,
then applies one row at a time and runs ``python -m pytest -q -x`` on its
tests.  A mutant is killed when pytest reports a failed test (status 1).  It
survives when the tests pass; any other status is an error.  The exit status
is 0 when every row is killed, 1 when some survive, and 2 on a table error, an
error run, or when the unchanged copy fails.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
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


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    faults = check_table(rows)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="modpairs-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        tests = sorted({t for row in rows for t in row["tests"]})
        clean = pytest(copy, tests)
        if clean.returncode != 0:
            print(f"the named tests fail on the unchanged copy:\n{clean.stdout[-3000:]}{clean.stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        survived = errors = 0
        for row in rows:
            path = copy / row["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(row["old"], row["new"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = pytest(copy, row["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            took = time.perf_counter() - start
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
