"""The benchmark's trace mode still finds every layer boundary it wraps.

``benchmarks/spans.py`` wraps module-level names of the package by
``getattr``; a name that a cleanup deletes makes ``install`` fail. The check
runs in a subprocess because ``install`` also patches ``np.linalg.lstsq`` for
the whole process.
"""

import json
import os
import pathlib
import subprocess
import sys

import wcpca
from wcpca import save_covariances

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(pathlib.Path(wcpca.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
import spans
import wcpca.cli
rec = spans.Recorder()
spans.install(rec, wcpca)
code = wcpca.cli.main(["fit", "--from-cov", sys.argv[1], "--k", "1", "--objective", "max-rcs",
                       "--out", sys.argv[2]])
print(json.dumps({"code": code, "names": sorted({s.name for s in rec.spans})}))
"""


def test_spans_install_and_record_a_fit(tmp_path, example1):
    cov_dir = tmp_path / "covs"
    save_covariances(example1, str(cov_dir))
    env = dict(os.environ)
    paths = [SRC, str(ROOT / "benchmarks"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cov_dir), str(tmp_path / "fit")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert {
        "preprocess.load_covariances",
        "solvers.solve_wcpca",
        "linalg.stiefel_project.from_solvers",
    } <= set(result["names"])
