"""The mutation gate's workers share the copies of the tree: each row must have
a copy to itself while its tests run, and leave it restored."""

import importlib.util
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).parent.parent / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_each_row_has_a_copy_to_itself(tmp_path, monkeypatch):
    # more rows and more threads than copies, with a short switch interval, so
    # that two rows would meet on one copy if a copy were handed out twice
    copies = mutants.queue.SimpleQueue()
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        (tmp_path / str(k) / "f.txt").write_text("base", encoding="utf-8")
        copies.put(tmp_path / str(k))
    rows = [{"id": str(k), "file": "f.txt", "old": "base", "new": f"mutant {k}", "tests": [str(k)]}
            for k in range(40)]

    def fake_pytest(copy, tests):
        # the copy holds this row's mutant alone while its tests run
        seen = (copy / "f.txt").read_text(encoding="utf-8")
        return subprocess.CompletedProcess([], 1 if seen == f"mutant {tests[0]}" else 3)

    monkeypatch.setattr(mutants, "pytest", fake_pytest)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda row: mutants.run_row(copies, row), rows))
    finally:
        sys.setswitchinterval(interval)
    assert [result.returncode for result, _ in results] == [1] * len(rows)
    assert sorted(str(copies.get_nowait()) for _ in range(2)) == [str(tmp_path / "0"), str(tmp_path / "1")]
    assert copies.empty()
    assert all((tmp_path / str(k) / "f.txt").read_text(encoding="utf-8") == "base" for k in range(2))
