#!/usr/bin/env python3
"""Write a fixed set of wcpca outputs and print one SHA-256 digest per file.

Used to show that a refactor leaves results unchanged: run it against two
checkouts, then compare the printed digests, or compare the two output
directories number by number with ``--compare``.

    PYTHONPATH=src python3 tools/parity_outputs.py OUT_DIR > digests.txt
    python3 tools/parity_outputs.py --compare OUT_A OUT_B

``--compare`` reads only the two directories and needs numpy, not ``wcpca``.

To compare against another checkout, run this one script twice, with
``PYTHONPATH`` set to each checkout's ``src``, so both sides write the same
files (an older copy of the script may write fewer fields).

Inputs are generated here with plain numpy from fixed seeds, so they do not
depend on the package under test. The script covers every ``fit`` objective
with and without ``--order``, a ``fit`` of spiked covariances (p=60, E=3,
k=2, so 2kE < p and the mixture dual is warm-started from its
Rayleigh-Ritz compression) for ``max-rcs``, ``norm-max-regret`` and
``min --order``, all six ``simulate`` studies (1-2 replicates,
a small ``--n`` or ``--missing-frac`` on some), a ``save_covariances`` directory,
``complete --predict`` for both objectives (once more with a training
column that no row observes, and once with a training column observed in
fewer than k rows and held-out rows observing fewer than k cells, so every
least-squares fallback runs, and once on a training and a held-out CSV
written with quoted numbers, an unparseable cell, ``inf`` text, a short row
and a blank line, so the loader's fallbacks are held too), 240 library solves over the six loss kinds
(each line in ``solves.txt`` carries the solve's dual ``gap``, so certified
solves show, every SQP run's objective, iterations and stop, so each run's
parity shows, and the frame's values; ``losses.txt`` holds ``loss`` of all
six kinds at each solve's frame on each of its domains),
``sequential_minpca`` on 6 random instances, ``order_basis`` on random frames of every rank from 1 to
min(4, p) on the same instances (both routines also on one instance where a
domain has no variance in the working basis, so its reduction is jittered;
each direction they return is written with its largest-magnitude entry
positive),
``fit_max_mc`` and ``fit_pool_mc`` fits on six datasets (one with a
never-observed column, one with a column that only a nearly noiseless
domain observes, so maxMC R-steps end with that domain at zero weight, and
one with a single domain, where both fits must print the same line), each
line carrying the fit's per-domain errors (``domain_objectives``), and
the evaluation helpers ``sample_hull_members``
(plain and trace-normalized), ``explained_variance_table`` and
``relative_deltas``, and ``census.txt``: every worst-case solve of the
24-seed pca-study pool (``avg-vs-wc`` and ``het-noise``, one replicate each,
at the seeds ``benchmarks/inputs.study_pool`` draws), one line each with its
kind, k, whether the dual certified it, ``iterations_used``, gap and every
SQP run's objective, iterations and stop, then a totals line.

``--compare`` prints, per file, ``identical`` for equal bytes, otherwise the
largest absolute difference between the numbers the two files hold in the
same places and the largest relative one, ``|a - b| / max(|a|, |b|)`` over
the pairs that are not both zero, or ``structure differs`` when their
non-numeric text differs. When both sides parse as numeric matrices of one
shape (``frame.csv``, ``frame_ordered.csv``), it also prints both
differences after flipping each of side B's columns to agree in sign with
side A's, so a flipped column shows apart from a moved one.
It exits 1 when any file is missing on one side or not byte-identical, so
parity can gate a refactor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from collections import Counter

import numpy as np

_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|inf|nan)")

OBJECTIVES = (
    "pool", "sep", "avgcov", "min", "norm-min",
    "max-rcs", "norm-max-rcs", "max-regret", "norm-max-regret",
)


def _covariances(rng, count, p):
    out = []
    for _ in range(count):
        a = rng.normal(size=(p, p)) * rng.uniform(0.2, 2.0, p)
        out.append(a @ a.T / p)
    return out


def _spiked_covariances(rng, count, p, k):
    """A shared rank-k part, an own rank-k part and small noise per domain."""
    shared = np.linalg.qr(rng.normal(size=(p, k)))[0]
    out = []
    for _ in range(count):
        own = np.linalg.qr(rng.normal(size=(p, k)))[0]
        s = (shared * rng.uniform(0.5, 3.0, k)) @ shared.T + (own * rng.uniform(0.5, 3.0, k)) @ own.T
        out.append(s + rng.uniform(0.002, 0.01) * np.eye(p))
    return out


def _write_manifest(root, covs):
    os.makedirs(root, exist_ok=True)
    domains = []
    for e, c in enumerate(covs):
        name = f"d{e}.csv"
        np.savetxt(os.path.join(root, name), c, delimiter=",", fmt="%.17g")
        domains.append({"id": f"d{e}", "file": name})
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"domains": domains}, fh, indent=2)
    return root


def _write_masked_csv(path, rng, rows_per_domain, p, k, hide, empty_col=None, keep=()):
    """Low-rank rows with ``hide`` random cells per row left empty, and every
    cell of column ``empty_col``, if given, outside the data rows in ``keep``.
    """
    frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
    lines = ["site," + ",".join(f"f{j}" for j in range(p))]
    for label in ("a", "b", "c"):
        for _ in range(rows_per_domain):
            row = rng.normal(size=k) @ frame.T + 0.05 * rng.normal(size=p)
            cells = [f"{x:.12f}" for x in row]
            for j in rng.choice(p, size=hide, replace=False):
                cells[int(j)] = ""
            if empty_col is not None:
                cells[empty_col] = f"{row[empty_col]:.12f}" if len(lines) - 1 in keep else ""
            lines.append(label + "," + ",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_messy_csv(path, rng, rows_per_domain, p, k):
    """Low-rank rows, 2 empty cells each, written with the loader's quirks.

    Row 0 of every domain quotes its label and numbers (one with spaces),
    row 1 of ``a`` holds an unparseable cell, row 2 of ``a`` holds ``inf``
    and ``-inf`` text, row 3 of ``b`` stops after 4 cells, and a blank line
    follows row 5 of ``b``.
    """
    frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
    lines = ["site," + ",".join(f"f{j}" for j in range(p))]
    for label in ("a", "b", "c"):
        for i in range(rows_per_domain):
            row = rng.normal(size=k) @ frame.T + 0.05 * rng.normal(size=p)
            cells = [f"{x:.12f}" for x in row]
            for j in rng.choice(p, size=2, replace=False):
                cells[int(j)] = ""
            head = label
            if i == 0:
                head = f'"{label}"'
                cells = [f'"{c}"' for c in cells]
                cells[-1] = f'" {row[-1]:.12f} "'
            elif (label, i) == ("a", 1):
                cells[3] = "abc"
            elif (label, i) == ("a", 2):
                cells[4], cells[6] = "inf", "-inf"
            elif (label, i) == ("b", 3):
                cells = cells[:4]
            lines.append(head + "," + ",".join(cells))
            if (label, i) == ("b", 5):
                lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"wcpca {' '.join(map(str, argv))} exited {code}")


def _solves(out):
    rng = np.random.default_rng(2024)
    lines, losses = [], []
    for inst in range(40):
        p = int(rng.integers(3, 13))
        k = int(rng.integers(1, p))
        coll = make_collection(_covariances(rng, int(rng.integers(1, 6)), p))
        cfg = SolverConfig(max_iters=int(rng.integers(50, 400)), restarts=2, seed=inst)
        for kind in LossKind:
            fit = solve_wcpca(kind, coll, k, cfg)
            lines.append(
                f"{inst} {kind.value} {fit.objective!r} {sorted(fit.active_domains)} "
                f"{fit.iterations_used} {fit.restart_index} gap={fit.gap!r} "
                f"restarts={[tuple(r) for r in fit.restarts]!r} {fit.frame.ravel().tolist()!r}"
            )
            for each in LossKind:
                values = [loss(each, fit.frame, d.covariance) for d in coll]
                losses.append(f"{inst} {kind.value} {each.value} {values!r}")
    for name, text in (("solves.txt", lines), ("losses.txt", losses)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(text) + "\n")


def _mc_fits(out):
    rng = np.random.default_rng(77)
    lines = {"max_mc.txt": [], "pool_mc.txt": []}
    # (column no domain observes, column only domain 0 observes, domains);
    # with one domain the max and pool fits are the same fit, bit for bit
    special = ((None, None, 3),) * 3 + ((3, None, 3), (None, 5, 3), (None, None, 1))
    for fit_idx, (hidden_col, solo_col, count) in enumerate(special):
        p, k = 8, 2
        frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
        domains = []
        for e in range(count):
            noise = 0.005 if solo_col is not None and e == 0 else 0.05
            x = rng.normal(size=(30, k)) @ frame.T * (1.0 + e) + noise * rng.normal(size=(30, p))
            mask = (rng.random((30, p)) > 0.3).astype(float)
            mask[np.arange(30), rng.integers(0, p, 30)] = 1.0
            if hidden_col is not None:
                mask[:, hidden_col] = 0.0
                mask[:, (hidden_col + 1) % p] = 1.0
            if solo_col is not None and e > 0:
                mask[:, solo_col] = 0.0
                mask[:, (solo_col + 1) % p] = 1.0
            domains.append(MaskedDomain(id=f"d{e}", x=x, mask=mask))
        data = MaskedDataset(tuple(domains))
        for name, fit in (("max_mc.txt", fit_max_mc), ("pool_mc.txt", fit_pool_mc)):
            model = fit(data, k)
            lines[name].append(
                f"{fit_idx} {model.unidentifiable_columns} {list(model.objective_trace)!r} "
                f"domain_objectives={list(model.domain_objectives)!r} {model.right_factor.ravel().tolist()!r}"
            )
    for name, text in lines.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(text) + "\n")


def _greedy_instances():
    """(index, collection, k, cfg) for the random greedy-routine instances."""
    rng = np.random.default_rng(505)
    for inst in range(6):
        p = int(rng.integers(3, 9))
        k = int(rng.integers(1, p + 1))
        coll = make_collection(_covariances(rng, int(rng.integers(1, 5)), p))
        yield inst, coll, k, SolverConfig(max_iters=200, restarts=2, seed=inst)


def _vanished_instance():
    """Domain 1 has no variance in span(e3, e1, e4): it reduces to zero there."""
    coll = make_collection([np.diag([1.0, 0.0, 0.0, 0.5]), np.diag([0.0, 1.0, 0.0, 0.0])])
    return coll, np.eye(4)[:, [2, 0, 3]]


def _signed(frame):
    """``frame`` with each column's largest-magnitude entry made positive."""
    top = frame[np.argmax(np.abs(frame), axis=0), np.arange(frame.shape[1])]
    return frame * np.sign(top)


def _sequential(out):
    lines = []
    for inst, coll, k, cfg in _greedy_instances():
        for kind in (LossKind.VAR, LossKind.NORM_VAR):
            dirs = _signed(np.column_stack(sequential_minpca(kind, coll, k, cfg))).T
            lines.append(f"{inst} {kind.value} {[d.tolist() for d in dirs]!r}")
    coll, _ = _vanished_instance()
    for kind in (LossKind.VAR, LossKind.NORM_VAR):
        dirs = sequential_minpca(kind, coll, 4, SolverConfig(max_iters=200, restarts=2, seed=9))
        dirs = _signed(np.column_stack(dirs)).T
        lines.append(f"vanished {kind.value} {[d.tolist() for d in dirs]!r}")
    with open(os.path.join(out, "sequential.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _order_bases(out):
    frame_rng = np.random.default_rng(606)
    lines = []
    for inst, coll, _, cfg in _greedy_instances():
        for k in range(1, min(4, coll.p) + 1):
            frame = np.linalg.qr(frame_rng.normal(size=(coll.p, k)))[0]
            for kind in (LossKind.VAR, LossKind.NORM_VAR):
                ordered = _signed(order_basis(kind, frame, coll, cfg))
                lines.append(f"{inst} k={k} {kind.value} {ordered.ravel().tolist()!r}")
    coll, frame = _vanished_instance()
    for kind in (LossKind.VAR, LossKind.NORM_VAR):
        ordered = _signed(order_basis(kind, frame, coll, SolverConfig(max_iters=200, restarts=2, seed=9)))
        lines.append(f"vanished {kind.value} {ordered.ravel().tolist()!r}")
    with open(os.path.join(out, "order_basis.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _evaluation(out):
    rng = np.random.default_rng(303)
    lines = []
    for inst in range(6):
        p = int(rng.integers(4, 10))
        k = int(rng.integers(1, p))
        coll = make_collection(_covariances(rng, int(rng.integers(2, 6)), p))
        for normalized in (False, True):
            members = sample_hull_members(list(coll), 3, inst, normalized=normalized)
            lines.append(f"{inst} hull normalized={normalized} {[m.ravel().tolist() for m in members]!r}")
        fit = solve_wcpca(LossKind.RCS, coll, k, SolverConfig(max_iters=200, restarts=2, seed=inst))
        table = explained_variance_table(fit.frame, coll)
        lines.append(f"{inst} explained {[row['explained_variance'] for row in table]!r}")
        lines.append(f"{inst} deltas {relative_deltas(fit, pool_pca(coll, k), list(coll))!r}")
    with open(os.path.join(out, "evaluation.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _study_pool():
    """The 24 pca-study seeds, drawn as ``benchmarks/inputs.study_pool`` draws them."""
    rng = np.random.default_rng(20260311 + 2)
    return [int(s) for s in rng.choice(2**31 - 1, 24, replace=False)]


def _census(out):
    """One line per worst-case solve of the pca-study pool, and a totals line.

    Runs ``avg-vs-wc`` and ``het-noise`` at one replicate for each pool seed,
    with ``experiments.solve_wcpca`` wrapped to record each fit.
    """
    lines, stops = [], Counter()
    solves = certified = runs = iterations = 0
    real = experiments.solve_wcpca

    def recorded(kind, domains, k, cfg=None):
        nonlocal solves, certified, runs, iterations
        fit = real(kind, domains, k, cfg)
        done = fit.gap is not None and not fit.restarts
        solves, certified, runs = solves + 1, certified + done, runs + len(fit.restarts)
        iterations += sum(r.iterations for r in fit.restarts)
        stops.update(r.stop for r in fit.restarts)
        lines.append(
            f"{LossKind(kind).value} k={k} certified={done} {fit.iterations_used} gap={fit.gap!r} "
            f"restarts={[tuple(r) for r in fit.restarts]!r}"
        )
        return fit

    experiments.solve_wcpca = recorded
    try:
        for seed in _study_pool():
            for study in ("avg-vs-wc", "het-noise"):
                lines.append(f"# {study} seed={seed}")
                run_experiment(ExperimentConfig(study, replicates=1, seed=seed))
    finally:
        experiments.solve_wcpca = real
    lines.append(
        f"total solves={solves} certified={certified} sqp_runs={runs} iterations={iterations} "
        f"stops={dict(sorted(stops.items()))}"
    )
    with open(os.path.join(out, "census.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(out):
    rng = np.random.default_rng(11)
    inputs = os.path.join(out, "inputs")
    manifest = _write_manifest(os.path.join(inputs, "covs"), _covariances(rng, 5, 30))
    train = _write_masked_csv(os.path.join(inputs, "train.csv"), rng, 40, 12, 3, 4)
    holdout = _write_masked_csv(os.path.join(inputs, "holdout.csv"), rng, 10, 12, 3, 4)

    for objective in OBJECTIVES:
        for order in (False, True):
            dest = os.path.join(out, f"fit-{objective}{'-order' if order else ''}")
            _cli("fit", "--from-cov", manifest, "--k", 4, "--objective", objective,
                 "--seed", 3, "--out", dest, *(["--order"] if order else []))
    spiked = _write_manifest(os.path.join(inputs, "spiked"), _spiked_covariances(np.random.default_rng(15), 3, 60, 2))
    for objective in ("max-rcs", "norm-max-regret", "min"):
        _cli("fit", "--from-cov", spiked, "--k", 2, "--objective", objective, "--seed", 3,
             "--out", os.path.join(out, f"fit-spiked-{objective}"), *(["--order"] if objective == "min" else []))
    sim = os.path.join(out, "sim")
    for study in ("avg-vs-wc", "het-noise"):
        _cli("simulate", study, "--replicates", 2, "--seed", 5, "--out", sim)
    _cli("simulate", "hull-bound", "--replicates", 2, "--p", 12, "--seed", 5, "--out", sim)
    _cli("simulate", "finite-sample", "--replicates", 2, "--n", 150, "--seed", 5, "--out", sim)
    _cli("simulate", "mc-observed", "--replicates", 1, "--n", 80, "--missing-frac", 0.5,
         "--seed", 5, "--out", sim)
    _cli("simulate", "mc-masked", "--replicates", 1, "--seed", 5, "--out", sim)
    covs = make_collection(
        _covariances(rng, 3, 6), ids=["a", "b c", "d/e"], weights=[0.5, 0.25, 0.25], ns=[10, 20, None]
    )
    save_covariances(covs, os.path.join(out, "saved-covs"), [f"x{j}" for j in range(6)])
    never_observed = _write_masked_csv(
        os.path.join(inputs, "train-empty-col.csv"), np.random.default_rng(12), 40, 12, 3, 3, empty_col=5
    )
    # column 7 is observed in two training rows and every held-out row in
    # two cells, fewer than k = 3: the pooled R-update takes the minimum-norm
    # pinv of that column's Gram, and the prediction the minimum-norm lstsq
    sparse_rng = np.random.default_rng(13)
    sparse_col = _write_masked_csv(
        os.path.join(inputs, "train-sparse-col.csv"), sparse_rng, 40, 12, 3, 3, empty_col=7, keep=(0, 40)
    )
    short_rows = _write_masked_csv(os.path.join(inputs, "holdout-short.csv"), sparse_rng, 10, 12, 3, 10)
    for method in ("pool", "max"):
        _cli("complete", "--csv", train, "--domain-col", "site", "--objective", method,
             "--k", 3, "--predict", holdout, "--out", os.path.join(out, f"complete-{method}"))
        _cli("complete", "--csv", never_observed, "--domain-col", "site", "--objective", method,
             "--k", 3, "--predict", holdout, "--out", os.path.join(out, f"complete-empty-col-{method}"))
        _cli("complete", "--csv", sparse_col, "--domain-col", "site", "--objective", method,
             "--k", 3, "--predict", short_rows, "--out", os.path.join(out, f"complete-sparse-{method}"))
    messy_rng = np.random.default_rng(14)
    messy = _write_messy_csv(os.path.join(inputs, "train-messy.csv"), messy_rng, 30, 10, 3)
    messy_holdout = _write_messy_csv(os.path.join(inputs, "holdout-messy.csv"), messy_rng, 8, 10, 3)
    for method in ("pool", "max"):
        _cli("complete", "--csv", messy, "--domain-col", "site", "--objective", method,
             "--k", 3, "--predict", messy_holdout, "--out", os.path.join(out, f"complete-messy-{method}"))
    _solves(out)
    _sequential(out)
    _order_bases(out)
    _mc_fits(out)
    _evaluation(out)
    _census(out)

    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out)}")


def _files(root):
    return {
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    }


def _numbers(text):
    """The text with every number replaced by ``#``, and the numbers."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _relative(a, b):
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _matrix(path):
    """The file as a 2-D float array, or None when it is not a numeric CSV matrix."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        return None


def _diffs(num_a, num_b):
    """The largest absolute and relative differences between paired numbers."""
    pairs = list(zip(num_a, num_b))
    return max(0.0 if a == b else abs(a - b) for a, b in pairs), max(_relative(a, b) for a, b in pairs)


def compare(out_a, out_b):
    """Print the largest absolute and relative numeric differences per output file.

    Returns the number of files that are not byte-identical on both sides.
    """
    worst = worst_rel = 0.0
    differing = 0
    for rel in sorted(_files(out_a) | _files(out_b)):
        paths = [os.path.join(out_a, rel), os.path.join(out_b, rel)]
        if not all(os.path.isfile(p) for p in paths):
            print(f"missing on one side  {rel}")
            differing += 1
            continue
        texts = []
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        if texts[0] == texts[1]:
            print(f"identical  {rel}")
            continue
        differing += 1
        (skel_a, num_a), (skel_b, num_b) = (_numbers(t) for t in texts)
        if skel_a != skel_b:
            print(f"structure differs  {rel}")
            continue
        diff, rel_diff = _diffs(num_a, num_b)
        worst = max(worst, diff)
        worst_rel = max(worst_rel, rel_diff)
        line = f"max abs diff {diff:.3g}  max rel diff {rel_diff:.3g}"
        mat_a, mat_b = (_matrix(p) for p in paths)
        if mat_a is not None and mat_b is not None and mat_a.shape == mat_b.shape:
            mat_b = mat_b * np.where(np.sum(mat_a * mat_b, axis=0) < 0.0, -1.0, 1.0)
            flipped, rel_flipped = _diffs(mat_a.ravel().tolist(), mat_b.ravel().tolist())
            line += f"  up to column sign {flipped:.3g}, relative {rel_flipped:.3g}"
        print(f"{line}  {rel}")
    print(f"largest numeric difference {worst:.3g}, relative {worst_rel:.3g}")
    return differing


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
    elif len(sys.argv) == 2:
        # only writing outputs needs the package, so --compare runs without it
        from wcpca import (
            ExperimentConfig,
            LossKind,
            MaskedDataset,
            MaskedDomain,
            SolverConfig,
            explained_variance_table,
            fit_max_mc,
            fit_pool_mc,
            loss,
            make_collection,
            order_basis,
            pool_pca,
            relative_deltas,
            run_experiment,
            sample_hull_members,
            save_covariances,
            sequential_minpca,
            solve_wcpca,
        )
        from wcpca import experiments
        from wcpca.cli import main as cli_main

        main(sys.argv[1])
    else:
        raise SystemExit("usage: parity_outputs.py OUT_DIR | --compare OUT_A OUT_B")
