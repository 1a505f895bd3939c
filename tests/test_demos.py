"""Smoke test: every script under demos/, and README's quick start, runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import wcpca

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
SRC = str(pathlib.Path(wcpca.__file__).resolve().parent.parent)


def _script(demo, tmp_path):
    if demo != README:
        return demo
    # README's first python block is its quick start.
    block = demo.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "readme_quick_start.py"
    script.write_text(block, encoding="utf-8")
    return script


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_script(demo, tmp_path))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
