"""End-to-end CLI checks driven through main(argv).

Every test calls main() in process and asserts on the return code plus the
files written under tmp_path, which keeps the suite fast and lets pytest
capture stderr.
"""

import json
import warnings

import numpy as np
import pytest

from wcpca import (
    LossKind,
    experiments,
    load_covariances,
    loss,
    make_collection,
    save_covariances,
    solvers,
    worst_case,
)
from wcpca.cli import main
from conftest import random_covariance


@pytest.fixture
def cov_dir(tmp_path, example1):
    out = tmp_path / "covs"
    save_covariances(example1, str(out), ["x", "y", "z"])
    return str(out)


@pytest.fixture
def long_csv(tmp_path):
    rng = np.random.default_rng(123)
    lines = ["site,x,y,z"]
    for label, shift in (("a", 0.0), ("b", 1.0)):
        for _ in range(40):
            row = rng.normal(size=3) + shift * np.array([0.0, 2.0, 0.0])
            lines.append(label + "," + ",".join(f"{v:.10f}" for v in row))
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def masked_csv(tmp_path):
    rng = np.random.default_rng(7)
    r = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    lines = ["site,f0,f1,f2,f3,f4"]
    for label in ("a", "b"):
        for _ in range(25):
            row = rng.normal(size=2) @ r.T
            cells = [f"{v:.12f}" for v in row]
            if rng.random() < 0.4:
                cells[int(rng.integers(5))] = ""
            lines.append(label + "," + ",".join(cells))
    path = tmp_path / "masked.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def read_frame(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


class TestFit:
    def test_min_objective_matches_closed_form(self, tmp_path, cov_dir, capsys):
        out = tmp_path / "fit"
        code = main(
            [
                "fit",
                "--from-cov",
                cov_dir,
                "--k",
                "1",
                "--objective",
                "min",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("frame.csv")
        report = json.loads((out / "report.json").read_text())
        assert report["objective_value"] == pytest.approx(0.36, abs=1e-3)
        assert report["active_domains"] == ["a", "b"]
        frame = read_frame(out / "frame.csv")
        expected = np.array([[np.sqrt(0.4)], [0.0], [np.sqrt(0.6)]])
        np.testing.assert_allclose(np.abs(frame), expected, atol=0.02)

    def test_pool_frame_and_report_revalidate(self, tmp_path, cov_dir):
        out = tmp_path / "fit"
        assert (
            main(
                ["fit", "--from-cov", cov_dir, "--k", "1", "--objective", "pool", "--out", str(out)]
            )
            == 0
        )
        frame = read_frame(out / "frame.csv")
        np.testing.assert_allclose(np.abs(frame), [[1.0], [0.0], [0.0]], atol=1e-8)
        report = json.loads((out / "report.json").read_text())
        collection, _ = load_covariances(cov_dir)
        for kind in LossKind:
            per = [loss(kind, frame, d.covariance, k=1) for d in collection]
            np.testing.assert_allclose(report["per_domain_losses"][kind.value], per, atol=1e-10)
            assert report["worst_case"][kind.value] == pytest.approx(
                worst_case(kind, frame, collection), abs=1e-10
            )

    def test_report_losses_equal_scalar_reference(self, tmp_path):
        rng = np.random.default_rng(31)
        covs = []
        for _ in range(4):
            a = rng.normal(size=(6, 6)) * rng.uniform(0.2, 2.0, 6)
            covs.append(a @ a.T / 6)
        cov_dir = tmp_path / "covs"
        save_covariances(make_collection(covs), str(cov_dir))
        out = tmp_path / "fit"
        argv = ["fit", "--from-cov", str(cov_dir), "--k", "2", "--objective", "norm-max-regret"]
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        frame = read_frame(out / "frame.csv")
        collection, _ = load_covariances(str(cov_dir))
        for kind in LossKind:
            per = [loss(kind, frame, d.covariance, k=2) for d in collection]
            assert report["per_domain_losses"][kind.value] == per
            assert report["worst_case"][kind.value] == worst_case(kind, frame, collection)

    def test_report_lists_every_restart(self, tmp_path, cov_dir):
        # example1's covariances are diagonal and its rank-1 optimum ties the
        # top eigenvalues of the optimal mixture, so the dual cannot certify it
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            argv = ["fit", "--from-cov", cov_dir, "--k", "1", "--objective", "max-rcs"]
            assert main([*argv, "--seed", "6", "--out", str(out)]) == 0
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        report = json.loads((outs[0] / "report.json").read_text())
        assert report["gap"] > solvers._DUAL_GAP_RTOL * max(1.0, abs(report["objective_value"]))
        assert report["gap"] == report["objective_value"] - report["dual_bound"]
        restarts = report["restarts"]
        assert len(restarts) == 6
        for r in restarts:
            assert set(r) == {"objective", "iterations", "stop"}
            assert r["stop"] in ("kkt", "stalled", "budget")
            assert 1 <= r["iterations"] <= 2000
            assert r["objective"] >= report["objective_value"]
        chosen = restarts[report["restart_index"]]
        assert chosen["objective"] == report["objective_value"]
        assert chosen["iterations"] == report["iterations_used"]

    def test_report_carries_dual_bound_and_gap(self, tmp_path, cov_dir):
        rng = np.random.default_rng(0)
        collection = make_collection([random_covariance(rng, 8) for _ in range(4)])
        random_dir = tmp_path / "random"
        save_covariances(collection, str(random_dir))
        # the dual certifies norm-max-rcs on the random stack, but not
        # example1's rank-1 max-rcs, whose optimal mixture ties its top
        # eigenvalues
        runs = {"certified": (random_dir, "3", "norm-max-rcs"), "fallback": (cov_dir, "1", "max-rcs")}
        reports = {}
        for name, (source, k, objective) in runs.items():
            out = tmp_path / name
            argv = ["fit", "--from-cov", str(source), "--k", k, "--objective", objective]
            assert main([*argv, "--out", str(out)]) == 0
            reports[name] = json.loads((out / "report.json").read_text())
        certified, fallback = reports["certified"], reports["fallback"]
        assert certified["restarts"] == []
        assert 0.0 <= certified["gap"] <= 1e-9
        assert certified["gap"] == certified["objective_value"] - certified["dual_bound"]
        assert len(fallback["restarts"]) == 6
        assert fallback["gap"] > 1e-9
        assert fallback["dual_bound"] <= fallback["objective_value"]

    def test_fit_from_long_csv(self, tmp_path, long_csv):
        out = tmp_path / "fit"
        code = main(
            ["fit", "--csv", long_csv, "--domain-col", "site", "--k", "2", "--objective", "sep", "--out", str(out)]
        )
        assert code == 0
        frame = read_frame(out / "frame.csv")
        assert frame.shape == (3, 2)
        np.testing.assert_allclose(frame.T @ frame, np.eye(2), atol=1e-10)

    def test_order_writes_second_frame(self, tmp_path, cov_dir):
        out = tmp_path / "fit"
        code = main(
            ["fit", "--from-cov", cov_dir, "--k", "2", "--objective", "min", "--order", "--out", str(out)]
        )
        assert code == 0
        ordered = read_frame(out / "frame_ordered.csv")
        assert ordered.shape == (3, 2)

    def test_both_sources_rejected(self, cov_dir, long_csv, capsys):
        assert main(["fit", "--csv", long_csv, "--from-cov", cov_dir, "--k", "1", "--objective", "pool"]) == 3
        assert "InvalidConfig" in capsys.readouterr().err

    def test_neither_source_rejected(self):
        assert main(["fit", "--k", "1", "--objective", "pool"]) == 3

    def test_domain_col_with_from_cov_rejected(self, tmp_path, cov_dir, capsys):
        # --domain-col names a --csv column; with a manifest it exits 3
        # before the manifest is read, whether or not one exists
        for manifest in (cov_dir, str(tmp_path / "missing")):
            argv = ["fit", "--from-cov", manifest, "--domain-col", "no-such-col", "--k", "1"]
            assert main([*argv, "--objective", "max-rcs", "--out", str(tmp_path / "fit")]) == 3
            assert "InvalidConfig" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_missing_k(self, cov_dir):
        assert main(["fit", "--from-cov", cov_dir, "--objective", "pool"]) == 3

    def test_unknown_objective(self, cov_dir):
        assert main(["fit", "--from-cov", cov_dir, "--k", "1", "--objective", "best"]) == 3

    def test_missing_input_file(self, tmp_path):
        missing = str(tmp_path / "nope")
        assert main(["fit", "--from-cov", missing, "--k", "1", "--objective", "pool"]) == 2

    @pytest.mark.parametrize(
        "manifest",
        [
            {"domains": [{"id": "a", "file": "cov_00_a.csv", "weight": "heavy"}]},
            {"domains": [{"id": "a", "file": "cov_00_a.csv", "n": "ten"}]},
            {"domains": [{"id": "a", "file": "cov_00_a.csv", "n": 2.5}]},
            {"domains": ["id file"]},
            [1, 2],
            {"domains": [{"id": "a", "file": "cov_00_a.csv"}], "columns": 5},
        ],
        ids=["weight-text", "n-text", "n-fraction", "domain-not-object", "top-level-list", "columns-number"],
    )
    def test_malformed_manifest_is_schema_error(self, cov_dir, manifest, capsys):
        path = f"{cov_dir}/manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert main(["fit", "--from-cov", path, "--k", "1", "--objective", "pool"]) == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_manifest_columns_must_match_dimension(self, cov_dir, capsys):
        path = f"{cov_dir}/manifest.json"
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["columns"] = ["x"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert main(["fit", "--from-cov", path, "--k", "1", "--objective", "pool"]) == 2
        assert "names 1 columns for dimension 3" in capsys.readouterr().err

    def test_bad_k_surfaces_as_config_error(self, cov_dir):
        assert main(["fit", "--from-cov", cov_dir, "--k", "9", "--objective", "pool"]) == 3


# every study at a size that runs in about a second
_SMALL_STUDIES = {
    "hull-bound": ["--p", "6", "--k", "2"],
    "avg-vs-wc": ["--p", "6", "--k", "2", "--alpha", "1", "--beta", "2"],
    "finite-sample": ["--p", "6", "--k", "2", "--n", "40"],
    "het-noise": ["--p", "6", "--k", "2", "--n", "40"],
    "mc-observed": ["--p", "10", "--k", "2", "--n", "30"],
    "mc-masked": ["--p", "10", "--k", "2", "--n", "30"],
}
# the settings only some studies read, each with a valid value
_SETTINGS = {"--n": ["--n", "50"], "--missing-frac": ["--missing-frac", "0.3"], "--paper-scale": ["--paper-scale"]}


class TestSimulate:
    def test_unknown_name(self, tmp_path):
        assert main(["simulate", "mystery", "--out", str(tmp_path)]) == 3

    def test_small_table(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "avg-vs-wc",
                "--alpha",
                "1",
                "--beta",
                "2",
                "--p",
                "8",
                "--domains",
                "3",
                "--replicates",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "avg-vs-wc.csv").read_text().splitlines()
        assert lines[0] == "replicate,condition,method,metric,value"
        body = [line.split(",") for line in lines[1:]]
        # no field needs CSV quoting, so a naive split is safe
        assert all(len(row) == 5 for row in body)
        assert {row[0] for row in body} == {"0", "1"}
        assert {row[1] for row in body} == {"alpha=1;beta=2"}
        assert {row[2] for row in body} == {"max-rcs-vs-pool"}
        assert {row[3] for row in body} == {"rel-error-avg", "rel-error-wc"}
        for row in body:
            float(row[4])

    @pytest.mark.parametrize("study", _SMALL_STUDIES)
    def test_process_pool_matches_serial(self, tmp_path, study):
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["simulate", study, *_SMALL_STUDIES[study], "--replicates", "2", "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            tables.append((out / f"{study}.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "study, setting",
        [
            *((study, flag) for study in ("hull-bound", "avg-vs-wc") for flag in _SETTINGS),
            *((study, flag) for study in ("finite-sample", "het-noise") for flag in ("--missing-frac", "--paper-scale")),
        ],
    )
    def test_unread_setting_exits_3(self, tmp_path, study, setting, capsys):
        argv = ["simulate", study, *_SETTINGS[setting], "--replicates", "1", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert f"does not read {setting}" in capsys.readouterr().err
        assert not (tmp_path / f"{study}.csv").exists()

    def test_bad_jobs_leaves_tables_alone(self, tmp_path, capsys):
        argv = ["simulate", "avg-vs-wc", "--alpha", "1", "--beta", "2", "--p", "6", "--replicates", "1"]
        kept = tmp_path / "kept"
        assert main([*argv, "--out", str(kept)]) == 0
        before = (kept / "avg-vs-wc.csv").read_bytes()
        assert main([*argv, "--jobs", "0", "--out", str(kept)]) == 3
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert (kept / "avg-vs-wc.csv").read_bytes() == before
        empty = tmp_path / "empty"
        assert main([*argv, "--jobs", "0", "--out", str(empty)]) == 3
        assert not (empty / "avg-vs-wc.csv").exists()

    def test_replicates_must_be_positive(self, tmp_path):
        assert (
            main(["simulate", "avg-vs-wc", "--alpha", "1", "--beta", "2", "--replicates", "0", "--out", str(tmp_path)])
            == 3
        )


class TestComplete:
    def test_pool_and_max_agree_single_domain(self, tmp_path):
        rng = np.random.default_rng(11)
        r = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        lines = ["site,a,b,c,d"]
        for _ in range(30):
            row = rng.normal(size=2) @ r.T
            lines.append("only," + ",".join(f"{v:.12f}" for v in row))
        path = tmp_path / "one.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        pool_out, max_out = tmp_path / "pool", tmp_path / "max"
        common = ["complete", "--csv", str(path), "--domain-col", "site", "--k", "2"]
        assert main([*common, "--objective", "pool", "--out", str(pool_out)]) == 0
        assert main([*common, "--objective", "max", "--out", str(max_out)]) == 0
        a = json.loads((pool_out / "report.json").read_text())
        b = json.loads((max_out / "report.json").read_text())
        assert abs(a["final_objective"] - b["final_objective"]) <= 1e-4

    def test_report_shape(self, tmp_path, masked_csv):
        out = tmp_path / "mc"
        code = main(
            ["complete", "--csv", masked_csv, "--domain-col", "site", "--k", "2", "--objective", "pool", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "pool"
        assert report["k"] == 2
        assert sorted(report["per_domain_objective"]) == ["a", "b"]
        assert report["final_objective"] == report["objective_trace"][-1]
        factor = read_frame(out / "right_factor.csv")
        assert factor.shape == (5, 2)

    def test_missing_frac_thins_observations(self, tmp_path, masked_csv):
        common = ["complete", "--csv", masked_csv, "--domain-col", "site", "--k", "2", "--objective", "pool"]
        dense, noop, thin = (tmp_path / n for n in ("dense", "noop", "thin"))
        assert main([*common, "--out", str(dense)]) == 0
        assert main([*common, "--missing-frac", "0.0", "--out", str(noop)]) == 0
        assert main([*common, "--missing-frac", "0.4", "--out", str(thin)]) == 0
        # fraction 0 leaves the masks alone, so the run is bit-identical
        assert (noop / "report.json").read_bytes() == (dense / "report.json").read_bytes()
        assert (noop / "right_factor.csv").read_bytes() == (dense / "right_factor.csv").read_bytes()
        # a real fraction changes the fitting problem
        assert (thin / "right_factor.csv").read_bytes() != (dense / "right_factor.csv").read_bytes()
        report = json.loads((thin / "report.json").read_text())
        assert np.isfinite(report["final_objective"])

    def test_predict_roundtrip(self, tmp_path, masked_csv):
        holdout = tmp_path / "holdout.csv"
        rng = np.random.default_rng(8)
        r = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 2)))[0]
        lines = ["site,f0,f1,f2,f3,f4"]
        truth = []
        for _ in range(6):
            row = rng.normal(size=2) @ r.T
            truth.append(row)
            cells = [f"{v:.12f}" for v in row]
            cells[1] = ""
            lines.append("a," + ",".join(cells))
        holdout.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = tmp_path / "mc"
        code = main(
            [
                "complete",
                "--csv",
                masked_csv,
                "--domain-col",
                "site",
                "--k",
                "2",
                "--objective",
                "pool",
                "--predict",
                str(holdout),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "site,f0,f1,f2,f3,f4"
        assert len(lines) == 7
        recon = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        # the training fit has masked cells, so the factor is only accurate
        # to the alternating solver's tolerance
        np.testing.assert_allclose(recon, np.array(truth), atol=2e-2)

    def test_predict_with_empty_row_fails(self, tmp_path, masked_csv):
        holdout = tmp_path / "empty.csv"
        holdout.write_text("site,f0,f1,f2,f3,f4\na,,,,,\n", encoding="utf-8")
        code = main(
            [
                "complete",
                "--csv",
                masked_csv,
                "--domain-col",
                "site",
                "--k",
                "2",
                "--objective",
                "pool",
                "--predict",
                str(holdout),
                "--out",
                str(tmp_path / "mc"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("objective", ["pool", "max"])
    def test_k_above_observed_columns_exits_3(self, tmp_path, objective, capsys):
        # f2 and f3 are never observed, so two columns carry data
        rng = np.random.default_rng(9)
        rows = [f"a,{x:.6f},{y:.6f},," for x, y in rng.normal(size=(12, 2))]
        path = tmp_path / "two.csv"
        path.write_text("\n".join(["site,f0,f1,f2,f3", *rows]) + "\n", encoding="utf-8")
        argv = ["complete", "--csv", str(path), "--domain-col", "site", "--objective", objective]
        assert main([*argv, "--k", "3", "--out", str(tmp_path / "k3")]) == 3
        assert "InvalidRank" in capsys.readouterr().err
        assert main([*argv, "--k", "2", "--out", str(tmp_path / "k2")]) == 0
        report = json.loads((tmp_path / "k2" / "report.json").read_text())
        assert report["unidentifiable_columns"] == [2, 3]
        factor = read_frame(tmp_path / "k2" / "right_factor.csv")
        assert np.all(factor[2:] == 0.0)

    def test_requires_csv(self):
        assert main(["complete", "--objective", "pool"]) == 3

    def test_missing_frac_hiding_a_row_exits_3(self, tmp_path, masked_csv, capsys):
        # round(0.95 * 5) hides all five features of a row
        out = tmp_path / "out"
        argv = ["complete", "--csv", masked_csv, "--domain-col", "site", "--objective", "pool"]
        assert main([*argv, "--missing-frac", "0.95", "--out", str(out)]) == 3
        assert "InvalidConfig" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method(self, masked_csv):
        assert main(["complete", "--csv", masked_csv, "--objective", "sep"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "finite-sample", "--n", "0", "--replicates", "1"],
        ["simulate", "avg-vs-wc", "--domains", "0", "--replicates", "1"],
        ["simulate", "avg-vs-wc", "--p", "1", "--replicates", "1"],
        ["simulate", "avg-vs-wc", "--alpha", "2", "--beta", "1", "--replicates", "1"],
        ["complete", "--objective", "pool", "--missing-frac", "1.0"],
        ["complete", "--objective", "pool", "--missing-frac", "-0.5"],
        ["simulate", "mc-masked", "--p", "10", "--k", "2", "--n", "30", "--missing-frac", "0.97", "--replicates", "1"],
        ["simulate", "het-noise", "--p", "8", "--replicates", "1"],
        ["simulate", "avg-vs-wc", "--k", "0", "--replicates", "1"],
        ["simulate", "hull-bound", "--p", "4"],
        ["simulate", "mc-observed", "--p", "4", "--missing-frac", "0.2", "--replicates", "1"],
        ["simulate", "hull-bound", "--seed", "-1", "--replicates", "1"],
        ["complete", "--objective", "pool", "--seed", "-1"],
        ["complete", "--objective", "pool", "--seed", "-1", "--missing-frac", "0.2"],
        ["fit", "--k", "1", "--objective", "max-rcs", "--seed", "-1"],
    ],
    ids=[
        "n-0",
        "domains-0",
        "p-1",
        "alpha-above-beta",
        "missing-frac-1",
        "missing-frac-negative",
        "missing-frac-hides-row",
        "het-noise-default-rank-above-p",
        "k-0",
        "hull-bound-default-rank-above-p",
        "mc-default-rank-above-p",
        "simulate-negative-seed",
        "complete-negative-seed",
        "complete-negative-seed-missing-frac",
        "fit-negative-seed",
    ],
)
def test_bad_setting_exits_3_before_any_work(tmp_path, argv, capsys, monkeypatch):
    # the complete and fit cases name an input that does not exist: the
    # setting is rejected before it is read; no simulate case draws a source
    def no_draw(*args, **kwargs):
        raise AssertionError("sources drawn before the settings were checked")

    monkeypatch.setattr(experiments, "sample_source_covariances", no_draw)
    argv = [*argv, "--out", str(tmp_path)]
    if argv[0] == "complete":
        argv += ["--csv", str(tmp_path / "unread.csv")]
    elif argv[0] == "fit":
        argv += ["--from-cov", str(tmp_path / "unread")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "InvalidConfig" in err
    assert "RuntimeWarning" not in err
    assert not list(tmp_path.glob("*.csv"))


class TestDeterminism:
    def test_fit_reruns_byte_identical(self, tmp_path, cov_dir):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(
                ["fit", "--from-cov", cov_dir, "--k", "1", "--objective", "max-rcs", "--seed", "3", "--order", "--out", str(out)]
            )
            outs.append(out)
        for fname in ("frame.csv", "report.json", "frame_ordered.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
