"""End-to-end benchmark of the ``wcpca`` command line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

One operation is one fresh ``python3`` process that imports ``wcpca`` and
calls ``wcpca.cli.main(argv)`` for each of the workload's commands, exactly
as a user's shell session would. The benchmark generates the inputs from
``--seed`` before it measures, runs operations for ``--seconds`` seconds,
checks every output with its own numpy code and prints a table of named
metrics followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from operations whose layer boundaries are wrapped in spans (see
``spans.py``). See ``README.md`` in this directory for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median, median_low

import check
import inputs
import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

# A run stops starting operations after this many seconds, whatever
# --seconds says, so that it ends well inside its 180 s limit.
HARD_STOP_S = 140.0
SETUP_PROBES = 40
TRACE_VARIANTS = 3
# BLAS runs single-threaded in every operation: on a small shared machine a
# second BLAS thread makes wall times far less repeatable.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SAMPLED_PREDICTION_ROWS = 40


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads -------------------------------------------------------------


class PcaStudy:
    """Two desk-default studies: many short PGD solves at p=20, no CSV input."""

    name = "pca-study"
    variants = 12
    replicates = 1

    def __init__(self):
        self.references = load_references()["het-noise"]["test_wc_rcs"]

    def prepare(self, seed, variant, work_dir):
        study_seed = inputs.study_seed(seed, variant)
        args = f"--replicates {self.replicates} --seed {study_seed}".encode()
        return {
            "seed": study_seed,
            "digest": {"files": 0, "bytes": len(args), "sha256": hashlib.sha256(args).hexdigest()},
        }

    def commands(self, state, out):
        common = ["--replicates", str(self.replicates), "--seed", str(state["seed"]), "--out", out]
        return [["simulate", "avg-vs-wc", *common], ["simulate", "het-noise", *common]]

    def check(self, state, out):
        fail_a, rows_a = check.check_study(os.path.join(out, "avg-vs-wc.csv"), "avg-vs-wc", self.replicates)
        fail_h, rows_h = check.check_study(os.path.join(out, "het-noise.csv"), "het-noise", self.replicates)
        rel_wc = check.mean_metric(rows_a, "rel-error-wc")
        reference = self.references[str(state["seed"])]
        attained = check.het_noise_values(rows_h)
        if set(attained) != set(reference):
            return [fail_a, fail_h + ["het-noise_rows_differ_from_references"]], None
        het_ratio = sum(attained[key] / reference[key] for key in reference) / len(reference)
        figures = {
            "study_rel_error_wc": rel_wc,
            "study_test_wc_rcs": check.mean_metric(rows_h, "test-wc-rcs", "max-rcs"),
            # the mean of two ratios: 1 + the mean relative worst-case error
            # of the max-rcs frame against pooled PCA (1 means no better than
            # pooling), and the het-noise test worst cases over their
            # references (1 means as good as the larger-budget solver)
            "quality_ratio": (1.0 + rel_wc + het_ratio) / 2.0,
        }
        return [fail_a, fail_h], figures

    def working_set(self):
        return {"covariance_stack_bytes": 5 * 20 * 20 * 8}


class FitWide:
    """Three worst-case fits of 5 covariances at p=400, k=5, from a manifest."""

    name = "fit-wide"
    variants = 3
    objectives = ("max-rcs", "norm-max-regret", "min")

    def __init__(self):
        self.base = inputs.wide_base_covariances()
        self.references = load_references()["fit-wide"]["objective_value"]

    def prepare(self, seed, variant, work_dir):
        covs = inputs.wide_covariances(seed, variant, self.base)
        manifest = inputs.write_manifest(covs, work_dir)
        files = [os.path.join(work_dir, f) for f in os.listdir(work_dir)]
        return {
            "manifest": manifest,
            "covs": covs,
            "eigsums": check.top_k_eigensums(covs, inputs.WIDE_K),
            "digest": inputs.digest(files),
        }

    def commands(self, state, out):
        cmds = []
        for objective in self.objectives:
            argv = ["fit", "--from-cov", state["manifest"], "--k", "5", "--objective", objective]
            argv += ["--out", os.path.join(out, objective)]
            if objective == "min":
                argv.append("--order")
            cmds.append(argv)
        return cmds

    def check(self, state, out):
        failures, ratios = [], []
        for objective in self.objectives:
            fails, attained = check.check_fit(
                os.path.join(out, objective),
                objective,
                state["covs"],
                state["eigsums"],
                ordered=objective == "min",
            )
            failures.append(fails)
            ratios.append(check.excess_ratio(objective, attained, self.references[objective]))
        mean_ratio = sum(ratios) / len(ratios)
        return failures, {"fit_wc_excess": mean_ratio - 1.0, "quality_ratio": mean_ratio}

    def working_set(self):
        return {"covariance_stack_bytes": inputs.WIDE_DOMAINS * inputs.WIDE_P**2 * 8}


class CompletePredict:
    """Masked-CSV completion (max, then pool) and row-by-row prediction."""

    name = "complete-predict"
    variants = 3
    methods = ("max", "pool")

    def prepare(self, seed, variant, work_dir):
        held = inputs.write_masked(seed, variant, work_dir)
        oracle = check.oracle_predictions(held.held_x, held.held_mask, held.factor)
        oracle_mse = check.hidden_mse(oracle, held.held_x, held.held_mask)
        rng = inputs.variant_rng(seed, variant, 4)
        n_dom, n_rows, _ = held.held_x.shape
        sample = list(
            zip(
                rng.integers(0, n_dom, SAMPLED_PREDICTION_ROWS).tolist(),
                rng.integers(0, n_rows, SAMPLED_PREDICTION_ROWS).tolist(),
            )
        )
        files = [os.path.join(work_dir, f) for f in ("train.csv", "held.csv")]
        return {
            "train": files[0],
            "held_csv": files[1],
            "held": held,
            "oracle_wc": float(oracle_mse.max()),
            "oracle_avg": float(oracle_mse.mean()),
            "sample": sample,
            "digest": inputs.digest(files),
        }

    def commands(self, state, out):
        return [
            ["complete", "--csv", state["train"], "--objective", method, "--k", "5",
             "--predict", state["held_csv"], "--out", os.path.join(out, method)]
            for method in self.methods
        ]

    def check(self, state, out):
        held = state["held"]
        failures, mse = [], {}
        for method in self.methods:
            fails, per_domain = check.check_complete(
                os.path.join(out, method), held.labels, held.held_x, held.held_mask, state["sample"]
            )
            failures.append(fails)
            mse[method] = per_domain
        if mse["max"] is None or mse["pool"] is None:
            return failures, None
        wc = float(mse["max"].max())
        avg = float(mse["pool"].mean())
        return failures, {
            "mc_test_mse_wc": wc,
            "mc_test_mse_avg": avg,
            # each error over the error of predicting from the true factor
            "quality_ratio": (wc / state["oracle_wc"] + avg / state["oracle_avg"]) / 2.0,
        }

    def working_set(self):
        cells = inputs.MC_DOMAINS * inputs.MC_P * (inputs.MC_TRAIN_ROWS + inputs.MC_HELD_ROWS)
        return {"dense_x_and_mask_bytes": 2 * 8 * cells}


WORKLOADS = {w.name: w for w in (PcaStudy, FitWide, CompletePredict)}


# --- operations ------------------------------------------------------------


def run_child(job: dict, work_dir: str, tag: str, deadline: float) -> dict:
    """Run one fresh-interpreter operation; return its timings and exit codes."""
    job_path = os.path.join(work_dir, f"{tag}.job.json")
    result_path = os.path.join(work_dir, f"{tag}.result.json")
    err_path = os.path.join(work_dir, f"{tag}.stderr")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(
            [sys.executable, CHILD, job_path, result_path],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
        )
        try:
            proc.wait(timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or ["no stderr"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for path in (job_path, result_path, err_path):
        os.remove(path)
    return {
        "ok": True,
        "setup_s": result["imported"] - start,
        "run_s": result["done"] - result["imported"],
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "codes": result["codes"],
        "layers": result.get("layers"),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: str):
    """Prepare inputs, run operations for ``seconds``, check every output.

    Operations cycle through the workload's input variants until every
    variant has run and the operations have used ``seconds``. With ``trace``
    the first ``TRACE_VARIANTS`` variants run in untraced-traced pairs, so
    the two kinds of operation see the same inputs. Import-only set-up
    probes are spread evenly between the operations, so that they cover the
    same stretch of time as the operations; their time does not count
    towards ``seconds``.
    """
    started = now()
    deadline = started + HARD_STOP_S + 30.0
    states = []
    for v in range(workload.variants):
        vdir = os.path.join(work_dir, f"input-{v}")
        os.makedirs(vdir, exist_ok=True)
        states.append(workload.prepare(seed, v, vdir))

    failures: list[str] = []  # one entry per failed command
    probe_errors: list[str] = []
    probes: list[float] = []

    def probe(tag):
        res = run_child({"src": SRC, "trace": False, "commands": []}, work_dir, tag, deadline)
        if not res["ok"]:
            probe_errors.append(f"set-up probe: {res['error']}")
        return res

    probe("warm")  # fills the page cache and writes bytecode; not counted
    per_slot = 2 if trace else 1
    n_variants = min(workload.variants, TRACE_VARIANTS) if trace else workload.variants
    ops = []  # (variant, traced, result)
    figures = {}
    attempted = 0
    op_time = 0.0
    walls = []
    slot = 0
    while now() - started < HARD_STOP_S:
        all_seen = slot >= n_variants * per_slot
        if all_seen and op_time + median(walls) > seconds:
            break
        while len(probes) < SETUP_PROBES * min(1.0, op_time / seconds):
            res = probe(f"probe{len(probes)}")
            if not res["ok"]:
                break
            probes.append(res["setup_s"])
        variant = (slot // per_slot) % n_variants
        traced = trace and slot % 2 == 1
        state = states[variant]
        out = os.path.join(work_dir, f"out-{slot}")
        cmds = workload.commands(state, out)
        t0 = now()
        res = run_child({"src": SRC, "trace": traced, "commands": cmds}, work_dir, f"op{slot}", deadline)
        attempted += len(cmds)
        label = f"variant {variant} op {slot}{' traced' if traced else ''}"
        if not res["ok"]:
            failures += [f"{label}: {res['error']}"] * len(cmds)
        else:
            try:
                checks, figs = workload.check(state, out)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                checks, figs = [[f"check_error {type(exc).__name__}: {exc}"]] * len(cmds), None
            for cmd, code, fails in zip(cmds, res["codes"], checks):
                if code != 0:
                    fails = [f"exit_code_{code}", *fails]
                if fails:
                    failures.append(f"{label} `wcpca {cmd[0]} {cmd[1]}`: {', '.join(fails)}")
            if figs is not None:
                figures.setdefault(variant, figs)
            ops.append((variant, traced, res))
        shutil.rmtree(out, ignore_errors=True)
        walls.append(now() - t0)
        op_time += walls[-1]
        slot += 1
        if not res["ok"] and now() > deadline:
            break
    while len(probes) < SETUP_PROBES and now() < deadline:
        res = probe(f"probe{len(probes)}")
        if not res["ok"]:
            break
        probes.append(res["setup_s"])
    return {
        "states": states,
        "ops": ops,
        "probes": probes,
        "figures": figures,
        "failures": failures,
        "probe_errors": probe_errors,
        "attempted": attempted,
    }


# --- aggregation -----------------------------------------------------------


def _variant_mean(ops, traced: bool, key: str) -> float:
    """Mean over variants of the minimum of ``key`` over that variant's operations.

    A busy host only ever slows an operation down, so a variant's fastest
    operation is the one closest to the program's own time.
    """
    by_variant: dict[int, list[float]] = {}
    for variant, was_traced, res in ops:
        if was_traced == traced:
            by_variant.setdefault(variant, []).append(res[key])
    fastest = [min(v) for v in by_variant.values()]
    return sum(fastest) / len(fastest) if fastest else 0.0


def end_to_end(run) -> dict[str, float]:
    untraced = [res for _, traced, res in run["ops"] if not traced]
    setups = run["probes"] + [res["setup_s"] for _, _, res in run["ops"]]
    figures = list(run["figures"].values())
    return {
        # a busy host only ever adds start-up time, and it comes in stretches
        # that can cover half of a run's probes: the minimum follows the
        # program's own set-up where the median and quartiles follow the host
        "setup_s": min(setups) if setups else 0.0,
        "run_s": _variant_mean(run["ops"], False, "run_s"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]) if untraced else 0.0,
        "quality_ratio": sum(f["quality_ratio"] for f in figures) / len(figures) if figures else 0.0,
    }


def per_layer(run) -> dict[str, float]:
    traced = [res["layers"] for _, was_traced, res in run["ops"] if was_traced]
    out = {}
    if traced:
        for key in traced[0]:
            out[key] = median_low([layers[key] for layers in traced])
    base = _variant_mean(run["ops"], False, "run_s")
    out["trace.overhead_frac"] = _variant_mean(run["ops"], True, "run_s") / base - 1.0 if base else 0.0
    return out


def extra_figures(run) -> dict[str, float]:
    """Workload-specific output figures, averaged over variants (printed, not bounded)."""
    figures = list(run["figures"].values())
    keys = [k for k in (figures[0] if figures else {}) if k != "quality_ratio"]
    out = {k: sum(f[k] for f in figures) / len(figures) for k in keys}
    out["failed_frac"] = len(run["failures"]) / run["attempted"] if run["attempted"] else 1.0
    return out


# --- entry point -----------------------------------------------------------


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def report(workload, run, trace: bool, declared) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(run) if trace else end_to_end(run)
    units = declared[section]
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    n_untraced = sum(1 for _, t, _ in run["ops"] if not t)
    print(f"# workload {workload.name}: {len(run['ops'])} operations "
          f"({n_untraced} untraced), {len(run['probes'])} set-up probes")
    print("# inputs " + json.dumps([s["digest"] for s in run["states"]]))
    print("# operations (variant, traced, run_s) " + json.dumps(
        [(v, t, round(res["run_s"], 4)) for v, t, res in run["ops"]]))
    print("# machine " + json.dumps(machine.describe(workload.working_set(), CHILD_ENV)))
    for failure in run["probe_errors"] + run["failures"]:
        print(f"FAIL {workload.name}: {failure}")
    for name, value in values.items():
        print(f"{workload.name:18s} {name:52s} {value:14.6g} {units[name]}")
    if not trace:
        for name, value in extra_figures(run).items():
            print(f"{workload.name:18s} {name:52s} {value:14.6g} (not bounded)")
    correct = not run["failures"] and not run["probe_errors"] and bool(run["ops"])
    return {
        "correct": correct,
        "attempted": max(1, run["attempted"]),
        "failed": len(run["failures"]) if run["attempted"] else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wcpca", "__init__.py")):
        print(f"error: no wcpca package under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        work_dir = os.path.join(WORK, f"{name}-s{args.seed}-{os.getpid()}")
        os.makedirs(work_dir, exist_ok=True)
        try:
            workload = WORKLOADS[name]()
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace), work_dir)
            result = report(workload, run, bool(args.trace), declared)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
