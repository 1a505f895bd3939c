"""The repository's command-line tools, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity_outputs.py"


def _write_outputs(root, value):
    (root / "fit").mkdir(parents=True)
    (root / "fit" / "frame.csv").write_text(f"0.6,0.8\n{value},0.6\n", encoding="utf-8")
    (root / "report.json").write_text('{"objective": 1.25, "rounds": 4}\n', encoding="utf-8")


def test_parity_compare_needs_no_package(tmp_path):
    # comparing two output directories reads only the files, so it runs
    # where wcpca is not importable: no PYTHONPATH, from outside the checkout
    for name, value in (("a", "-0.8"), ("b", "-0.8"), ("c", "-0.8000001")):
        _write_outputs(tmp_path / name, value)
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}

    def compare(other):
        return subprocess.run(
            [sys.executable, str(PARITY), "--compare", "a", other],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    same, moved = compare("b"), compare("c")
    assert same.returncode == 0, same.stderr
    assert moved.returncode == 1, moved.stderr
    assert "identical  report.json" in moved.stdout
    assert "max abs diff" in moved.stdout
