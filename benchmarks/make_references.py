"""Recompute the reference values in ``references.json``.

Usage, from the repository root (takes about 12 minutes):

    python3 benchmarks/make_references.py

Every reference comes from the public ``wcpca`` solver with a larger budget
than the command line uses: ``RESTARTS`` restarts of ``MAX_ITERS``
iterations each. The plateau tolerance is 0, so every restart runs its whole
annealed step schedule instead of stopping after 50 iterations without
improvement.

* ``fit-wide``: the best worst-case value ``wcpca.solve_wcpca`` reaches on
  the unrotated fit-wide covariances. A workload seed only rotates the
  covariances, which leaves these values unchanged, so one set of references
  serves every seed.
* ``het-noise``: for each study seed of the pca-study pool, the
  ``test-wc-rcs`` rows (max-rcs and max-regret, k=10 and k=5) of
  ``wcpca simulate het-noise --replicates 1``, run with the study's own
  solver seeds and the larger budget.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time

import check
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import wcpca  # noqa: E402
import wcpca.cli  # noqa: E402
import wcpca.experiments  # noqa: E402

RESTARTS = 20
MAX_ITERS = 3000
FIT_SEED = 1
KINDS = {"max-rcs": "rcs", "norm-max-regret": "norm-reg", "min": "var"}


def fit_wide_references() -> dict[str, float]:
    covs = inputs.wide_base_covariances()
    domains = wcpca.make_collection(list(covs), ids=[f"d{e}" for e in range(len(covs))])
    cfg = wcpca.SolverConfig(restarts=RESTARTS, max_iters=MAX_ITERS, tol_objective=0.0, seed=FIT_SEED)
    values = {}
    for objective, kind in KINDS.items():
        started = time.perf_counter()
        result = wcpca.solve_wcpca(kind, domains, inputs.WIDE_K, cfg)
        values[objective] = result.objective
        print(f"fit-wide {objective}: {result.objective!r} "
              f"({result.iterations_used} iterations, {time.perf_counter() - started:.0f} s)")
    return values


def het_noise_references() -> dict[str, dict[str, float]]:
    # the study builds its SolverConfig(seed=...) through this module-level name
    wcpca.experiments.SolverConfig = functools.partial(
        wcpca.SolverConfig, restarts=RESTARTS, max_iters=MAX_ITERS, tol_objective=0.0
    )
    values = {}
    with tempfile.TemporaryDirectory() as out:
        for study_seed in inputs.study_pool():
            started = time.perf_counter()
            argv = ["simulate", "het-noise", "--replicates", "1", "--seed", str(study_seed), "--out", out]
            if wcpca.cli.main(argv) != 0:
                raise SystemExit(f"wcpca {' '.join(argv)} failed")
            _, rows = check.check_study(os.path.join(out, "het-noise.csv"), "het-noise", 1)
            values[str(study_seed)] = check.het_noise_values(rows)
            print(f"het-noise {study_seed}: {values[str(study_seed)]} "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
    return values


def main() -> int:
    payload = {
        "command": "python3 benchmarks/make_references.py",
        "budget": {"restarts": RESTARTS, "max_iters": MAX_ITERS, "tol_objective": 0.0, "fit_seed": FIT_SEED},
        "fit-wide": {"objective_value": fit_wide_references()},
        "het-noise": {"test_wc_rcs": het_noise_references()},
    }
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
