"""Self-tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest benchmarks``; they use
numpy only and never import ``wcpca``.
"""

import json
import os

import numpy as np
import pytest

import check
import inputs
import run
import spans
import spread


def _tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    return [
        spans.Span("cli.main", 0.0, 10.0, -1),
        spans.Span("solvers.solve_wcpca", 1.0, 4.0, 0),
        spans.Span("solvers.solve_wcpca", 5.0, 9.0, 0),
        spans.Span(spans.RETRACT_SOLVERS, 6.0, 8.0, 2),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 3.0, 2.0, 2.0]


def test_recorder_builds_the_same_tree_from_nested_calls():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("linalg.x", lambda: None)
    outer = rec.wrap("solvers.y", lambda: [inner(), inner()])
    root = rec.open("cli.main")
    outer()
    rec.close(root)
    assert [s.name for s in rec.spans] == ["cli.main", "solvers.y", "linalg.x", "linalg.x"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 1]
    # clock ticks: root 0..7, outer 1..6, inners 2..3 and 4..5
    assert spans.self_times(rec.spans) == [2.0, 3.0, 1.0, 1.0]


def test_wrap_only_inside_records_nothing_outside_its_parent():
    rec = spans.Recorder()
    leaf = rec.wrap("completion.lstsq", lambda: 1, only_inside="completion.fit_")
    fit = rec.wrap("completion.fit_max_mc", leaf)
    leaf()
    fit()
    assert [s.name for s in rec.spans] == ["completion.fit_max_mc", "completion.lstsq"]


def test_layer_metrics_on_a_synthetic_tree():
    tree = _tree()
    for s in tree[1:3]:
        s.attrs.update({"E": 5, "p": 20, "kept": 1})
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 3.0
    assert m["solvers.solve_wcpca.calls"] == 2
    assert m["solvers.solve_wcpca.s"] == 7.0
    assert m["solvers.solve_wcpca.p50_ms"] == 3500.0
    assert m["solvers.iters"] == 1
    assert m["solvers.self_s"] == 5.0
    assert m["solvers.kept_iter_frac"] == 2.0
    assert m["solvers.computed_gb_per_s"] == pytest.approx(1e-9 * 5 * 400 * 8 / 5.0)
    assert m["linalg.stiefel_project.from_solvers.us_per_call"] == 2e6
    assert m["completion.lstsq.calls"] == 0


def test_spread_and_variant_mean_on_known_inputs():
    # quantiles([1..9], n=4) with the default exclusive method: 2.5 and 7.5
    assert spread.spread([float(v) for v in range(1, 10)]) == pytest.approx(5.0 / 5.0)
    assert spread.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert spread.parse_seeds("3-5") == [3, 4, 5]
    ops = [
        (0, False, {"run_s": 1.0}),
        (0, False, {"run_s": 3.0}),
        (0, False, {"run_s": 100.0}),
        (1, False, {"run_s": 5.0}),
        (1, True, {"run_s": 50.0}),
    ]
    # minima 1 and 5; the traced operation is kept apart
    assert run._variant_mean(ops, False, "run_s") == 3.0
    assert run._variant_mean(ops, True, "run_s") == 50.0


def test_het_noise_values_keys_rows_by_condition_and_method():
    rows = [
        {"condition": "k=10", "method": "max-rcs", "metric": "test-wc-rcs", "value": "0.25"},
        {"condition": "k=10", "method": "max-regret", "metric": "test-wc-rcs", "value": "0.5"},
        {"condition": "k=10", "method": "max-rcs", "metric": "other", "value": "9"},
    ]
    assert check.het_noise_values(rows) == {"k=10/max-rcs": 0.25, "k=10/max-regret": 0.5}


def _write(path, array):
    np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.17g")


def test_checker_rejects_a_non_orthonormal_frame(tmp_path):
    rng = np.random.default_rng(0)
    covs = np.stack([np.diag(rng.uniform(0.5, 2.0, 6)) for _ in range(3)])
    eigsums = check.top_k_eigensums(covs, 2)
    frame = inputs.haar(6, 2, rng)
    _write(tmp_path / "frame.csv", frame)
    value = check.worst_case("max-rcs", frame, covs, eigsums)
    with open(tmp_path / "report.json", "w") as fh:
        json.dump({"objective_value": value}, fh)
    assert check.check_fit(str(tmp_path), "max-rcs", covs, eigsums, ordered=False)[0] == []

    _write(tmp_path / "frame.csv", frame * 1.001)
    failures, _ = check.check_fit(str(tmp_path), "max-rcs", covs, eigsums, ordered=False)
    assert "frame_not_orthonormal" in failures
    assert "objective_value_mismatch" in failures


def test_checker_rejects_a_perturbed_prediction(tmp_path):
    rng = np.random.default_rng(1)
    n_dom, n_rows, p = 2, 6, 8
    factor = inputs.haar(p, 2, rng)
    held_x = rng.standard_normal((n_dom, n_rows, p))
    held_mask = (rng.random((n_dom, n_rows, p)) < 0.5).astype(float)
    held_mask[..., 0] = 1.0
    pred = np.stack(
        [[check.reconstruct(held_x[e, i], held_mask[e, i], factor) for i in range(n_rows)]
         for e in range(n_dom)]
    )
    out = tmp_path
    _write(out / "right_factor.csv", factor)
    labels = ("a", "b")

    def write_predictions(values):
        with open(out / "predictions.csv", "w") as fh:
            fh.write("domain," + ",".join(f"f{j}" for j in range(p)) + "\n")
            for e, label in enumerate(labels):
                for row in values[e]:
                    fh.write(label + "," + ",".join("%.17g" % v for v in row) + "\n")

    sample = [(e, i) for e in range(n_dom) for i in range(n_rows)]
    write_predictions(pred)
    failures, mse = check.check_complete(str(out), labels, held_x, held_mask, sample)
    assert failures == [] and mse.shape == (n_dom,)

    bad = pred.copy()
    bad[1, 3, 2] += 1e-6
    write_predictions(bad)
    failures, _ = check.check_complete(str(out), labels, held_x, held_mask, sample)
    assert failures == ["prediction_differs_from_lstsq"]


def test_inputs_are_a_pure_function_of_seed_and_variant(tmp_path):
    a = inputs.write_masked(3, 0, str(tmp_path / "a"))
    b = inputs.write_masked(3, 0, str(tmp_path / "b"))
    c = inputs.write_masked(4, 0, str(tmp_path / "c"))
    digest = {
        name: inputs.digest([str(tmp_path / name / f) for f in ("train.csv", "held.csv")])["sha256"]
        for name in "abc"
    }
    assert digest["a"] == digest["b"] != digest["c"]
    assert np.array_equal(a.held_x, b.held_x)
    assert os.path.getsize(tmp_path / "a" / "held.csv") > 0


def test_rotation_keeps_the_worst_case_value():
    rng = np.random.default_rng(2)
    base = np.stack([np.diag(rng.uniform(0.1, 3.0, 10)) for _ in range(3)])
    q = inputs.haar(10, 10, rng)
    rotated = q @ base @ q.T
    frame = inputs.haar(10, 3, rng)
    for objective in ("min", "max-rcs", "norm-max-regret"):
        want = check.worst_case(objective, frame, base, check.top_k_eigensums(base, 3))
        got = check.worst_case(objective, q @ frame, rotated, check.top_k_eigensums(rotated, 3))
        assert got == pytest.approx(want, rel=1e-12)
