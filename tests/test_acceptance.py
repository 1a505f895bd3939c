"""Acceptance gate: ten numbered criteria, each with its stated tolerance.

One test per criterion; the conftest hook prints a summary line per
criterion at the end of the run. Diagonal fixtures are invariant under
per-coordinate sign flips, so rank-1 frame comparisons canonicalize to
absolute values before measuring projection distance.
"""

import json
import os
import time

import numpy as np

from conftest import random_covariance, record_criterion
from wcpca import (
    ExperimentConfig,
    LossKind,
    MaskedDataset,
    MaskedDomain,
    SolverConfig,
    fit_max_mc,
    haar_frame,
    hull_supremum,
    incoherence,
    inductive_ols,
    loss,
    make_collection,
    make_rng,
    missingness_budget,
    ols_subset_stability_check,
    pool_pca,
    projection_distance,
    run_experiment,
    sample_gaussian_rows,
    sample_hull_members,
    sample_masks,
    save_covariances,
    sep_pca,
    sequential_minpca,
    solve_wcpca,
    worst_case,
)
from wcpca.cli import main


def _column(v):
    arr = np.asarray(v, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


def test_criterion_01_example1_closed_form(example1):
    t0 = time.monotonic()

    pool = pool_pca(example1, 1)
    assert projection_distance(pool.frame, _column([1.0, 0.0, 0.0])) <= 1e-8
    assert abs(pool.objective - 0.45) <= 1e-8

    sep = sep_pca(example1, 1)
    assert projection_distance(sep.frame, _column([0.0, 0.0, 1.0])) <= 1e-8

    mn = solve_wcpca(LossKind.VAR, example1, 1, SolverConfig(seed=0))
    assert abs(mn.objective - 0.36) <= 1e-3
    target = _column([np.sqrt(0.4), 0.0, np.sqrt(0.6)])
    pd_min = projection_distance(np.abs(mn.frame), target)
    assert pd_min <= 0.05

    reg = solve_wcpca(LossKind.REG, example1, 1, SolverConfig(seed=0))
    assert abs(reg.objective - 0.36) <= 1e-3
    explained = [loss(LossKind.VAR, reg.frame, d.covariance) for d in example1]
    assert min(explained) >= 0.24 - 1e-3

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    record_criterion(
        1,
        f"pool {pool.objective:.4f}, min {mn.objective:.6f} pd {pd_min:.2e}, "
        f"regret {reg.objective:.6f}, min explained {min(explained):.6f}, {elapsed:.2f}s",
    )


def test_criterion_02_normalization_counterexample(scale_pair):
    norm = solve_wcpca(LossKind.NORM_VAR, scale_pair, 1, SolverConfig(seed=0))
    mn = solve_wcpca(LossKind.VAR, scale_pair, 1, SolverConfig(seed=0))
    assert abs(norm.objective - 0.5) <= 1e-3
    assert abs(mn.objective - 0.9) <= 1e-3

    # each solution evaluated under the other criterion falls strictly short
    cross_norm = worst_case(LossKind.NORM_VAR, mn.frame, scale_pair)
    cross_raw = worst_case(LossKind.VAR, norm.frame, scale_pair)
    assert abs(cross_norm - 0.1) <= 1e-3
    assert abs(cross_raw - 0.5) <= 1e-3
    assert cross_norm < norm.objective
    assert cross_raw < mn.objective

    record_criterion(
        2,
        f"norm-min {norm.objective:.6f}, min {mn.objective:.6f}, "
        f"cross {cross_norm:.6f}/{cross_raw:.6f}",
    )


def test_criterion_03_sequential_vs_joint(quarter_triple):
    t0 = time.monotonic()
    directions = sequential_minpca(LossKind.VAR, quarter_triple, 2, SolverConfig(seed=0))
    seq_val = worst_case(LossKind.VAR, np.column_stack(directions), quarter_triple)
    joint = solve_wcpca(LossKind.VAR, quarter_triple, 2, SolverConfig(seed=0))
    assert seq_val <= 7.0 / 12.0 + 1e-3
    assert joint.objective >= 5.0 / 8.0 - 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    record_criterion(
        3, f"sequential {seq_val:.6f} <= 7/12, joint {joint.objective:.6f} >= 5/8, {elapsed:.2f}s"
    )


def test_criterion_04_hull_bound_property_suite():
    t0 = time.monotonic()
    checked = 0
    for i in range(20):
        rng = make_rng(4000 + i)
        p = int(rng.integers(3, 11))
        n_domains = int(rng.integers(1, 6))
        base = [random_covariance(rng, p) for _ in range(n_domains)]
        if i % 2 == 1:
            # empirical variant: uncentered second moments of finite draws
            base = [
                (lambda rows: rows.T @ rows / rows.shape[0])(
                    sample_gaussian_rows(c, 40, rng)
                )
                for c in base
            ]
        coll = make_collection(base)
        k = int(rng.integers(1, p))
        v = np.linalg.qr(rng.normal(size=(p, k)))[0]

        members = sample_hull_members(coll, 200, rng)
        norm_members = sample_hull_members(coll, 200, rng, normalized=True)

        for kind, one_sided in (
            (LossKind.VAR, False),
            (LossKind.RCS, False),
            (LossKind.REG, True),
        ):
            sup = hull_supremum(kind, v, coll)
            vertex_vals = [loss(kind, v, d.covariance) for d in coll]
            extremum = min(vertex_vals) if kind is LossKind.VAR else max(vertex_vals)
            if not one_sided:
                # the extremum is attained at a vertex of the hull
                assert abs(sup - extremum) <= 1e-15
            for m in members:
                val = loss(kind, v, m)
                if kind is LossKind.VAR:
                    assert val >= sup - 1e-10
                else:
                    assert val <= sup + 1e-10
                checked += 1

        for kind in (LossKind.NORM_VAR, LossKind.NORM_RCS, LossKind.NORM_REG):
            sup = hull_supremum(kind, v, coll)
            for m in norm_members:
                val = loss(kind, v, m)
                if kind is LossKind.NORM_VAR:
                    assert val >= sup - 1e-10
                else:
                    assert val <= sup + 1e-10
                checked += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    record_criterion(4, f"{checked} member evaluations across 20 instances, {elapsed:.2f}s")


def test_criterion_05_equivalence_identities():
    worst_nrcs = 0.0
    worst_reg = 0.0
    for i in range(100):
        rng = make_rng(5000 + i)
        p = int(rng.integers(2, 13))
        k = int(rng.integers(1, p + 1))
        sigma = random_covariance(rng, p)
        sigma = (sigma + sigma.T) / 2.0
        v = np.linalg.qr(rng.normal(size=(p, k)))[0]

        nrcs = loss(LossKind.NORM_RCS, v, sigma)
        nvar = loss(LossKind.NORM_VAR, v, sigma)
        worst_nrcs = max(worst_nrcs, abs(nrcs - (1.0 - nvar)))

        reg = loss(LossKind.REG, v, sigma)
        var = loss(LossKind.VAR, v, sigma)
        eigensum = float(np.sort(np.linalg.eigvalsh(sigma))[-k:].sum())
        worst_reg = max(worst_reg, abs(reg - (eigensum - var)))

    assert worst_nrcs <= 1e-12
    assert worst_reg <= 1e-12
    record_criterion(5, f"max |NormRCS-(1-NormVar)| {worst_nrcs:.2e}, max regret gap {worst_reg:.2e}")


def test_criterion_06_missingness_budget_oracle():
    assert missingness_budget(500, 2, 0.1, 1.0) == 20

    worst_ratio = 0.0
    for i in range(20):
        rng = make_rng(1000 + i)
        r = haar_frame(200, 2, rng)
        mu = incoherence(r).mu
        budget = missingness_budget(200, 2, 0.1, mu)
        x = rng.normal(size=200)
        removal = rng.choice(200, size=budget, replace=False) if budget else []
        ratio, ok = ols_subset_stability_check(x, r, removal, 0.1)
        assert ok
        worst_ratio = max(worst_ratio, ratio)

    assert worst_ratio <= 1.1
    record_criterion(6, f"budget(500,2,0.1,1)=20, worst residual ratio {worst_ratio:.6f}")


def test_criterion_07_inductive_completion_desk_check():
    p, n_domains, k = 60, 3, 2
    # flat spiked frame: two exactly incoherent directions (mu would be 1)
    flat = np.column_stack([np.ones(p), np.tile([1.0, -1.0], p // 2)]) / np.sqrt(p)
    rng = make_rng(7000)
    train_domains = []
    for e in range(n_domains):
        lam = rng.uniform(0.5, 2.0, size=k)
        sigma = (flat * lam) @ flat.T + 0.01 * (np.eye(p) - flat @ flat.T)
        x = sample_gaussian_rows(sigma, 150, rng)
        train_domains.append(MaskedDomain(id=f"d{e}", x=x, mask=np.ones((150, p))))
    train = MaskedDataset(tuple(train_domains))

    model = fit_max_mc(train, k)
    r_star = model.right_factor
    emp = make_collection([d.x.T @ d.x / d.n for d in train_domains])
    direct = solve_wcpca(LossKind.RCS, emp, k, SolverConfig(seed=1, restarts=3)).frame

    budget = missingness_budget(p, k, 0.1, incoherence(r_star).mu)
    emp_covs = [d.covariance for d in emp]
    n_rows = 40

    def worst_inductive(frame):
        target_rng = make_rng(7001)
        mask_rng = make_rng(7002)
        row_rng = make_rng(7003)
        worst = 0.0
        for _ in range(100):
            w = target_rng.standard_exponential(n_domains)
            w = w / w.sum()
            sigma_t = sum(wi * c for wi, c in zip(w, emp_covs))
            rows = sample_gaussian_rows(sigma_t, n_rows, row_rng)
            if budget:
                mask = sample_masks(n_rows, p, budget / p, mask_rng)
            else:
                mask = np.ones((n_rows, p))
            err = 0.0
            for i in range(n_rows):
                _, recon = inductive_ols(rows[i], mask[i], frame)
                err += float(((rows[i] - recon) ** 2).sum())
            worst = max(worst, err / (n_rows * p))
        return worst

    wc_star = worst_inductive(r_star)
    wc_direct = worst_inductive(direct)
    assert wc_star <= 1.1 * wc_direct * 1.01
    record_criterion(
        7,
        f"budget {budget}/row, wc(R*) {wc_star:.6f} <= 1.1*1.01*wc(direct) "
        f"{1.1 * 1.01 * wc_direct:.6f}",
    )


def test_criterion_08_simulation_trends():
    t0 = time.monotonic()

    rows = run_experiment(
        ExperimentConfig(name="avg-vs-wc", alpha=1.0, beta=2.0, replicates=25, seed=88)
    )
    wc_deltas = [r["value"] for r in rows if r["metric"] == "rel-error-wc"]
    assert len(wc_deltas) == 25
    med_wc = float(np.median(wc_deltas))
    assert med_wc < 0.0

    medians = []
    for n in (100, 500, 2000):
        rows = run_experiment(
            ExperimentConfig(name="finite-sample", n=n, replicates=25, seed=99)
        )
        vals = [r["value"] for r in rows if r["metric"] == "diff-in-rcs"]
        medians.append(float(np.median(vals)))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    assert inversions <= 1

    rows = run_experiment(ExperimentConfig(name="het-noise", k=10, replicates=25, seed=77))
    med_reg = float(np.median([r["value"] for r in rows if r["method"] == "max-regret"]))
    med_rcs = float(np.median([r["value"] for r in rows if r["method"] == "max-rcs"]))
    assert med_reg <= med_rcs

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    record_criterion(
        8,
        f"median rel-error-wc {med_wc:.4f} < 0, diff-in-rcs medians "
        f"{[f'{m:.4f}' for m in medians]}, het-noise {med_reg:.4f} <= {med_rcs:.4f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_population_consistency(scale_pair):
    worst_pd = 0.0

    # strict geometric spectra: the worst-case solution is the top-k frame
    for seed in (5, 6, 7):
        rng = make_rng(seed)
        q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        sigma = (q * 1.7 ** -np.arange(8.0)) @ q.T
        coll = make_collection([sigma])
        for k in (1, 2, 3):
            fit = solve_wcpca(LossKind.VAR, coll, k, SolverConfig(seed=seed))
            worst_pd = max(worst_pd, projection_distance(fit.frame, q[:, :k]))

    # two domains, unique equalized rank-1 optimum at the diagonal direction
    norm = solve_wcpca(LossKind.NORM_VAR, scale_pair, 1, SolverConfig(seed=0))
    target = _column([1.0, 1.0]) / np.sqrt(2.0)
    worst_pd = max(worst_pd, projection_distance(np.abs(norm.frame), target))

    assert worst_pd <= 1e-3
    record_criterion(9, f"max projection distance {worst_pd:.2e}")


def _write_masked_fixture(tmp_path):
    rng = np.random.default_rng(7)
    r = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    lines = ["site,f0,f1,f2,f3,f4"]
    for label in ("a", "b"):
        for _ in range(20):
            row = rng.normal(size=2) @ r.T
            cells = [f"{v:.12f}" for v in row]
            if rng.random() < 0.4:
                cells[int(rng.integers(5))] = ""
            lines.append(label + "," + ",".join(cells))
    train = tmp_path / "train.csv"
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["site,f0,f1,f2,f3,f4"]
    for _ in range(4):
        row = rng.normal(size=2) @ r.T
        cells = [f"{v:.12f}" for v in row]
        cells[2] = ""
        lines.append("a," + ",".join(cells))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(train), str(holdout)


def test_criterion_10_cli_determinism(tmp_path, example1):
    cov_dir = tmp_path / "covs"
    save_covariances(example1, str(cov_dir), ["x", "y", "z"])
    train_csv, holdout_csv = _write_masked_fixture(tmp_path)

    def run_all(root):
        assert (
            main(
                ["fit", "--from-cov", str(cov_dir), "--k", "1", "--objective", "min",
                 "--order", "--seed", "4", "--out", os.path.join(root, "fit")]
            )
            == 0
        )
        assert (
            main(
                ["simulate", "avg-vs-wc", "--alpha", "1", "--beta", "2", "--p", "10",
                 "--domains", "3", "--replicates", "2", "--seed", "4",
                 "--out", os.path.join(root, "sim")]
            )
            == 0
        )
        assert (
            main(
                ["complete", "--csv", train_csv, "--domain-col", "site", "--k", "2",
                 "--objective", "max", "--missing-frac", "0.2", "--seed", "4",
                 "--predict", holdout_csv, "--out", os.path.join(root, "mc")]
            )
            == 0
        )

    roots = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for root in roots:
        run_all(root)

    compared = 0
    for sub in ("fit", "sim", "mc"):
        first = os.path.join(roots[0], sub)
        second = os.path.join(roots[1], sub)
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            with open(os.path.join(first, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(second, name), "rb") as fh:
                b = fh.read()
            assert a == b, f"{sub}/{name} differs between identical runs"
            compared += 1

    assert compared >= 7
    record_criterion(10, f"{compared} output files byte-identical across reruns")


def test_fit_report_revalidates(tmp_path, example1):
    # spec invariant behind criterion 10's sibling: JSON reports re-validate
    # against the frames they ship with
    cov_dir = tmp_path / "covs"
    save_covariances(example1, str(cov_dir))
    out = tmp_path / "fit"
    assert (
        main(["fit", "--from-cov", str(cov_dir), "--k", "1", "--objective",
              "max-regret", "--out", str(out)])
        == 0
    )
    frame = np.loadtxt(out / "frame.csv", delimiter=",", ndmin=2)
    report = json.loads((out / "report.json").read_text())
    for kind in LossKind:
        assert abs(
            report["worst_case"][kind.value] - worst_case(kind, frame, example1)
        ) <= 1e-10
    assert abs(
        report["objective_value"] - worst_case(LossKind.REG, frame, example1)
    ) <= 1e-10
