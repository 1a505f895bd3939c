"""No module of the package imports a name it does not use, or a heavy module too early.

No linter runs on the package, so an import left behind when its last use
is deleted would go unseen. The only imported names no module reads are the
four that ``benchmarks/spans.py`` wraps at those modules' attributes to time
the calls made through them. A private name one module imports from another
is a shared internal, and each is listed here, so a new one (a second site
of a computation that belongs to one module) does not go unseen either;
``solvers._DualPoint`` is one because both minimax duals, PCA's mixture dual
and completion's maxMC R-step, hand their points to one Newton routine in it.
Every name a module exports in ``__all__`` resolves, and no module names
an attribute that only NumPy 2 has, since the package declares NumPy 1.24
as its floor. Importing the command line loads no process pool; only a parallel
``simulate`` run does. Neither that import, nor a ``complete --predict`` run
without ``--missing-frac``, nor a ``fit --order`` whose rank-1 solves the
dual certifies loads ``numpy.random``, which costs about 5.5 MB of resident
memory and 12-18 ms.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wcpca"

WRAPPED_BY_SPANS = {
    ("cli", "loss"),
    ("cli", "worst_case"),
    ("completion", "stiefel_project"),
    ("solvers", "top_k_eigensum"),
}

SHARED_INTERNALS = {
    ("cli", "preprocess", "_FLOAT_FMT"),
    ("completion", "solvers", "_DualPoint"),
    ("completion", "solvers", "_ROUNDING"),
    ("completion", "solvers", "_simplex_newton"),
    ("datagen", "losses", "_PSD_RTOL"),
    ("evaluation", "completion", "_ensure_dataset"),
}

# ndarray attributes and functions that NumPy 2.0 or later added
NUMPY_2_ONLY = {
    "mT",
    "vecdot",
    "matvec",
    "vecmat",
    "matrix_transpose",
    "permute_dims",
    "concat",
    "cumulative_sum",
    "unstack",
}


def _private_imports(path):
    tree = ast.parse(path.read_text())
    return {
        (path.stem, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return {(path.stem, name) for name in imported - used}


def test_only_the_wrapped_imports_go_unused():
    unused = set().union(*(_unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert unused == WRAPPED_BY_SPANS


def test_only_the_listed_internals_cross_modules():
    private = set().union(*(_private_imports(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert private == SHARED_INTERNALS


def test_no_numpy_2_only_names():
    # pyproject.toml declares numpy>=1.24, so a name that NumPy 2.0 added
    # would pass here under NumPy 2 and fail at the floor
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY:
                named.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                named.update((path.stem, a.name) for a in node.names if a.name in NUMPY_2_ONLY)
    assert not named


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks only
    # `from wcpca import *`, which nothing else exercises
    for path in sorted(PACKAGE.glob("*.py")):
        name = "wcpca" if path.stem == "__init__" else f"wcpca.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"


def test_cli_import_loads_no_process_pool(tmp_path):
    # only `simulate --jobs N` needs a process pool, and only a run that
    # thins or draws needs numpy.random: neither the import nor a
    # `complete --predict` run without --missing-frac should pay for them
    lines = ["site,f0,f1,f2"]
    for i in range(12):
        lines.append(f"{'ab'[i % 2]},{i % 5 - 2}.5,{i % 3 - 1}.25,{i % 4}.75")
    for name in ("train.csv", "held.csv"):
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    heavy = "('numpy.random', 'concurrent.futures.process', 'multiprocessing')"
    probe = (
        "import sys, wcpca.cli; "
        f"loaded = lambda: sorted(m for m in {heavy} if m in sys.modules); "
        "print(loaded()); "
        "code = wcpca.cli.main(['complete', '--csv', sys.argv[1], '--domain-col', 'site', "
        "'--objective', 'max', '--k', '2', '--predict', sys.argv[2], '--out', sys.argv[3]]); "
        "print(code, loaded())"
    )
    argv = [str(tmp_path / n) for n in ("train.csv", "held.csv", "out")]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    printed = out.stdout.splitlines()
    assert (printed[0], printed[-1]) == ("[]", "0 []")
    assert (tmp_path / "out" / "predictions.csv").exists()


def test_certified_ordered_fit_loads_no_random(tmp_path):
    # the greedy routines take deterministic QR complements and pass the
    # seed on unchanged, so only a rank-1 solve that falls back to the SQP
    # draws random numbers; here the fit and its one rank-1 solve certify
    rng = np.random.default_rng(3)
    domains = []
    for e in range(3):
        a = rng.normal(size=(6, 6)) * rng.uniform(0.2, 2.0, 6)
        np.savetxt(tmp_path / f"d{e}.csv", a @ a.T / 6, delimiter=",", fmt="%.17g")
        domains.append({"id": f"d{e}", "file": f"d{e}.csv"})
    (tmp_path / "manifest.json").write_text(json.dumps({"domains": domains}), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = (
        "import sys, wcpca.cli; "
        "code = wcpca.cli.main(['fit', '--from-cov', sys.argv[1], '--objective', 'min', "
        "'--k', '2', '--order', '--out', sys.argv[2]]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    argv = [str(tmp_path / "manifest.json"), str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False"
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["restarts"] == []
    assert (tmp_path / "out" / "frame_ordered.csv").exists()
