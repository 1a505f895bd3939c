"""Output checker for the benchmark, in plain numpy; never imports ``wcpca``.

Each check returns a list of failure names (empty when the output is right)
and, where the output carries a quality figure, the figure itself. The
figures are recomputed here from the generated inputs, not read back from
the program's own report.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

ORTHO_TOL = 1e-8
OBJECTIVE_RTOL = 1e-8
SPAN_TOL = 1e-8
PREDICT_TOL = 1e-8
LSTSQ_RCOND = 1e-10  # the rcond wcpca documents for its per-row least squares

# rows each replicate adds to a study CSV at desk defaults
STUDY_ROWS_PER_REPLICATE = {"avg-vs-wc": 8, "het-noise": 4}


def load_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def orthonormal(frame: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    gram = frame.T @ frame
    return bool(np.all(np.isfinite(frame)) and np.abs(gram - np.eye(gram.shape[0])).max() <= tol)


def top_k_eigensums(covs: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.eigvalsh(covs)[:, ::-1][:, :k].sum(axis=1)


def worst_case(objective: str, v: np.ndarray, covs: np.ndarray, eigsums: np.ndarray) -> float:
    """Worst-case value of a ``wcpca fit`` worst-case objective at frame v."""
    var = np.einsum("epq,pk,qk->e", covs, v, v)
    traces = np.trace(covs, axis1=1, axis2=2)
    base = objective.removeprefix("norm-")
    if base == "min":
        values = var
    elif base == "max-rcs":
        values = traces - var
    elif base == "max-regret":
        values = eigsums - var
    else:
        raise ValueError(f"no worst case for objective {objective!r}")
    if objective.startswith("norm-"):
        values = values / traces
    return float(values.min() if base == "min" else values.max())


def excess_ratio(objective: str, attained: float, reference: float) -> float:
    """Attained objective over the reference, oriented so that above 1 is worse."""
    return reference / attained if objective.removeprefix("norm-") == "min" else attained / reference


def check_fit(out_dir, objective, covs, eigsums, ordered):
    """Checks on one ``wcpca fit`` output directory; returns (failures, attained)."""
    failures = []
    frame = load_matrix(os.path.join(out_dir, "frame.csv"))
    if not orthonormal(frame):
        failures.append("frame_not_orthonormal")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        reported = float(json.load(fh)["objective_value"])
    attained = worst_case(objective, frame, covs, eigsums)
    if not math.isclose(reported, attained, rel_tol=OBJECTIVE_RTOL):
        failures.append("objective_value_mismatch")
    if ordered:
        ordered_frame = load_matrix(os.path.join(out_dir, "frame_ordered.csv"))
        if not orthonormal(ordered_frame):
            failures.append("frame_ordered_not_orthonormal")
        gap = np.linalg.norm(frame @ frame.T - ordered_frame @ ordered_frame.T)
        if not gap <= SPAN_TOL:
            failures.append("frame_ordered_span_differs")
    return failures, attained


def check_study(path: str, study: str, replicates: int):
    """Checks on one ``wcpca simulate`` CSV; returns (failures, rows)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    if len(rows) != STUDY_ROWS_PER_REPLICATE[study] * replicates:
        failures.append(f"{study}_row_count")
    if not all(math.isfinite(float(r["value"])) for r in rows):
        failures.append(f"{study}_non_finite")
    return failures, rows


def mean_metric(rows, metric: str, method: str | None = None) -> float:
    values = [
        float(r["value"])
        for r in rows
        if r["metric"] == metric and (method is None or r["method"] == method)
    ]
    return sum(values) / len(values)


def het_noise_values(rows) -> dict[str, float]:
    """The ``test-wc-rcs`` rows of a one-replicate het-noise CSV, by ``condition/method``."""
    return {
        f"{r['condition']}/{r['method']}": float(r["value"]) for r in rows if r["metric"] == "test-wc-rcs"
    }


def reconstruct(x: np.ndarray, mask: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Least-squares reconstruction of one row from its observed cells."""
    obs = mask != 0.0
    coef, *_ = np.linalg.lstsq(factor[obs], x[obs], rcond=LSTSQ_RCOND)
    return factor @ coef


def hidden_mse(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-domain mean squared error over the hidden cells; inputs are (E, n, p)."""
    hidden = mask == 0.0
    err = np.where(hidden, pred - truth, 0.0)
    return (err * err).sum(axis=(1, 2)) / hidden.sum(axis=(1, 2))


def oracle_predictions(truth, mask, factor) -> np.ndarray:
    """Reconstructions from the true right factor: the reference error level."""
    out = np.empty_like(truth)
    for e in range(truth.shape[0]):
        for i in range(truth.shape[1]):
            out[e, i] = reconstruct(truth[e, i], mask[e, i], factor)
    return out


def check_complete(out_dir, labels, held_x, held_mask, sample_rows):
    """Checks on one ``wcpca complete --predict`` output; returns (failures, per-domain MSE)."""
    failures = []
    factor = load_matrix(os.path.join(out_dir, "right_factor.csv"))
    if not orthonormal(factor):
        failures.append("right_factor_not_orthonormal")
    n_dom, n_rows, p = held_x.shape
    path = os.path.join(out_dir, "predictions.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        row_labels = [line.split(",", 1)[0] for line in fh]
    pred = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, p + 1), ndmin=2)
    if len(header) != p + 1 or pred.shape != (n_dom * n_rows, p):
        return failures + ["predictions_shape"], None
    if row_labels != [label for label in labels for _ in range(n_rows)]:
        failures.append("predictions_row_order")
    pred = pred.reshape(n_dom, n_rows, p)
    for e, i in sample_rows:
        want = reconstruct(held_x[e, i], held_mask[e, i], factor)
        if not np.abs(pred[e, i] - want).max() <= PREDICT_TOL * max(1.0, np.abs(want).max()):
            failures.append("prediction_differs_from_lstsq")
            break
    return failures, hidden_mse(pred, held_x, held_mask)
