"""Command-line surface: ``wcpca fit | simulate | complete``.

fit       estimate a shared frame (baseline or worst-case objective) from a
          long CSV or from exported covariance files, write frame + report.
simulate  run one of the named desk-scale studies, write a long-format CSV.
complete  fit a multi-domain matrix-completion model, optionally reconstruct
          the rows of a held-out CSV from their observed cells.

Exit codes: 0 success, 1 numerical failure, 2 input or schema error,
3 invalid configuration. Semantic flag validation happens here so that bad
combinations report code 3; argparse still exits with 2 for unparseable
command lines, which we treat as an input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import fields

import numpy as np

from .completion import MaskedDataset, fit_max_mc, fit_pool_mc, inductive_ols
from .datagen import hidden_per_row, sample_masks
from .errors import InvalidConfig, InvalidInput, NoObservations, WcpcaError, exit_code_for
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .losses import LossKind, domain_losses, worst_index
from .losses import loss, worst_case  # noqa: F401 -- benchmarks/spans.py wraps these names
from .preprocess import (
    _FLOAT_FMT,
    load_covariances,
    load_csv,
    load_masked_csv,
    masked_dataset_from_blocks,
    preprocess,
    write_json,
    write_matrix,
)
from .rng import SEED_LIMIT, make_rng
from .solvers import SolverConfig, avgcov_pca, order_basis, pool_pca, sep_pca, solve_wcpca

__all__ = ["main", "build_parser", "cmd_fit", "cmd_simulate", "cmd_complete"]

_WC_OBJECTIVES = {
    "min": LossKind.VAR,
    "norm-min": LossKind.NORM_VAR,
    "max-rcs": LossKind.RCS,
    "norm-max-rcs": LossKind.NORM_RCS,
    "max-regret": LossKind.REG,
    "norm-max-regret": LossKind.NORM_REG,
}
_BASELINES = {"pool": pool_pca, "sep": sep_pca, "avgcov": avgcov_pca}


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_fit(args) -> int:
    """Fit one frame and write frame.csv, report.json, frame_ordered.csv."""
    if (args.csv is None) == (args.from_cov is None):
        raise InvalidConfig("exactly one of --csv or --from-cov is required")
    if args.k is None:
        raise InvalidConfig("--k is required")
    objective = args.objective
    if objective not in _BASELINES and objective not in _WC_OBJECTIVES:
        known = ", ".join([*_BASELINES, *_WC_OBJECTIVES])
        raise InvalidConfig(f"--objective must be one of {known}, got {objective!r}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise InvalidConfig(f"--seed must lie in [0, 2**128), got {args.seed}")

    if args.csv is not None:
        domain_col = "domain" if args.domain_col is None else args.domain_col
        collection = preprocess(load_csv(args.csv, domain_col)).collection
    elif args.domain_col is not None:
        raise InvalidConfig("--domain-col applies to --csv only, not --from-cov")
    else:
        collection, _ = load_covariances(args.from_cov)

    cfg = SolverConfig(seed=args.seed)
    if objective in _BASELINES:
        result = _BASELINES[objective](collection, args.k)
    else:
        result = solve_wcpca(_WC_OBJECTIVES[objective], collection, args.k, cfg)

    out = _ensure_out(args.out)
    frame_path = os.path.join(out, "frame.csv")
    write_matrix(frame_path, result.frame)

    ids = [d.id for d in collection]
    covs, traces = collection.covariances, collection.traces
    eigsums = collection.top_k_eigensums(args.k)
    per_domain = {}
    wc = {}
    for kind in LossKind:
        values, _ = domain_losses(kind, result.frame, covs, traces, eigsums)
        per_domain[kind.value] = values.tolist()
        wc[kind.value] = float(values[worst_index(kind, values)])
    report = {
        "objective": objective,
        "k": args.k,
        "seed": args.seed,
        "objective_value": result.objective,
        "active_domains": sorted(ids[i] for i in result.active_domains),
        "iterations_used": result.iterations_used,
        "restart_index": result.restart_index,
        "restarts": [r._asdict() for r in result.restarts],
        "dual_bound": result.dual_bound,
        "gap": result.gap,
        "domain_ids": ids,
        "per_domain_losses": per_domain,
        "worst_case": wc,
    }
    write_json(os.path.join(out, "report.json"), report)

    if args.order:
        order_kind = LossKind.NORM_VAR if objective.startswith("norm-") else LossKind.VAR
        ordered = order_basis(order_kind, result.frame, collection, cfg)
        write_matrix(os.path.join(out, "frame_ordered.csv"), ordered)

    print(frame_path)
    return 0


def cmd_simulate(args) -> int:
    """Run one named study; stream long-format rows to <out>/<name>.csv."""
    # the parser sets only the flags given, so every default is ExperimentConfig's
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if hasattr(args, f.name)}
    cfg = ExperimentConfig(**given)
    table_path = os.path.join(_ensure_out(args.out), f"{cfg.name}.csv")

    def sink(batch):
        # Each replicate's rows are appended as they arrive, so long runs
        # leave partial results. Replicate 0 creates the table, after
        # run_experiment has checked its arguments, so a rejected run leaves
        # an earlier table as it was.
        first = batch[0]["replicate"] == 0
        with open(table_path, "w" if first else "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if first:
                writer.writerow(["replicate", "condition", "method", "metric", "value"])
            for row in batch:
                writer.writerow(
                    [
                        row["replicate"],
                        row["condition"],
                        row["method"],
                        row["metric"],
                        _FLOAT_FMT % row["value"],
                    ]
                )

    run_experiment(cfg, jobs=args.jobs, row_sink=sink)
    print(table_path)
    return 0


def _predict_csv(path: str, domain_col: str, features, r: np.ndarray, out_dir: str) -> str:
    """Reconstruct every row of a held-out CSV; write ``<out_dir>/predictions.csv``.

    The loader groups rows by label, so the written rows come grouped by
    label too, in order of each label's first appearance and in file order
    within a label, with no row index: held-out rows labelled b, a, b are
    written as b, b, a. Each label's block is reconstructed at once and
    written one row at a time, so no block-sized list of Python floats is
    made.
    """
    feats, blocks = load_masked_csv(path, domain_col, feature_cols=features)
    pred_path = os.path.join(out_dir, "predictions.csv")
    cells = ",".join([_FLOAT_FMT] * len(feats)) + "\n"
    with open(pred_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([domain_col, *feats])
        for label, (x, mask) in blocks.items():
            empty = np.flatnonzero(~mask.any(axis=1))
            if empty.size:
                raise NoObservations(
                    f"cannot predict row {int(empty[0])} of domain {label!r} in {path}: "
                    "no observed entries"
                )
            _, recon = inductive_ols(x, mask, r)
            # The label is CSV-quoted once per block; the formatted numbers
            # never need quoting. A trailing empty field keeps an empty label
            # unquoted, as it is in a multi-field row.
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([label, ""])
            head = buf.getvalue()[:-1]
            fh.writelines(head + cells % tuple(row.tolist()) for row in recon)
    return pred_path


def _training_data(args):
    """Load, optionally thin, and wrap the training CSV as ``(features, data)``.

    The loader's ``(x, mask)`` blocks go to the dataset one domain at a
    time and die as it copies them, so no second full copy of the training
    data is alive while the dataset is built or during the fit.
    """
    features, blocks = load_masked_csv(args.csv, args.domain_col)
    if args.missing_frac is not None:
        try:
            hidden_per_row(len(features), args.missing_frac)
        except InvalidInput as exc:
            raise InvalidConfig(str(exc)) from exc
        thinned = {}
        for e, (label, (x, mask)) in enumerate(blocks.items()):
            synth = sample_masks(x.shape[0], x.shape[1], args.missing_frac, make_rng(args.seed, e))
            thinned[label] = (x, np.logical_and(mask, synth))
        del x, mask, synth
        blocks = thinned
    domains = []
    for label in list(blocks):
        domains.extend(masked_dataset_from_blocks({label: blocks.pop(label)}))
    return features, MaskedDataset(tuple(domains))


def _fit_and_write(args, method: str, k: int):
    """Fit the training CSV, write right_factor.csv and report.json.

    Returns ``(features, right_factor)``: the dataset and the model's left
    factors die on return, before any ``--predict`` rows are read.
    """
    features, data = _training_data(args)
    fit = fit_pool_mc if method == "pool" else fit_max_mc
    model = fit(data, k)

    out = _ensure_out(args.out)
    write_matrix(os.path.join(out, "right_factor.csv"), model.right_factor)

    report = {
        "method": method,
        "k": k,
        "seed": args.seed,
        "rounds": model.rounds,
        "final_objective": float(model.objective_trace[-1]),
        "objective_trace": [float(v) for v in model.objective_trace],
        "unidentifiable_columns": [int(c) for c in model.unidentifiable_columns],
        "per_domain_objective": {d.id: v for d, v in zip(data, model.domain_objectives)},
    }
    write_json(os.path.join(out, "report.json"), report)
    return features, model.right_factor


def cmd_complete(args) -> int:
    """Fit a completion model; write right_factor.csv, report.json, predictions."""
    if args.csv is None:
        raise InvalidConfig("--csv is required")
    method = args.objective
    if method not in ("pool", "max"):
        raise InvalidConfig(f"--objective must be pool or max, got {method!r}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise InvalidConfig(f"--seed must lie in [0, 2**128), got {args.seed}")
    k = 5 if args.k is None else args.k
    if args.missing_frac is not None and not 0.0 <= args.missing_frac < 1.0:
        raise InvalidConfig(f"--missing-frac must lie in [0, 1), got {args.missing_frac}")

    features, right_factor = _fit_and_write(args, method, k)
    if args.predict is not None:
        _predict_csv(args.predict, args.domain_col, features, right_factor, args.out)

    print(os.path.join(args.out, "right_factor.csv"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcpca",
        description="Worst-case PCA and matrix completion across data domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a shared frame on multi-domain data")
    fit.add_argument("--csv", help="long CSV with a domain label column")
    fit.add_argument("--from-cov", dest="from_cov", help="covariance manifest file or directory")
    fit.add_argument("--domain-col", help="label column for --csv (default: domain)")
    fit.add_argument("--k", type=int, help="number of components")
    fit.add_argument(
        "--objective",
        help="pool | sep | avgcov | min | norm-min | max-rcs | norm-max-rcs "
        "| max-regret | norm-max-regret",
    )
    fit.add_argument("--order", action="store_true", help="also write a prefix-ordered basis")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default=".")
    fit.set_defaults(func=cmd_fit)

    # flags named like ExperimentConfig fields; a flag not given stays unset
    sim = sub.add_parser(
        "simulate", help="run one of the named studies", argument_default=argparse.SUPPRESS
    )
    sim.add_argument("name", help=" | ".join(EXPERIMENTS))
    sim.add_argument("--p", type=int)
    sim.add_argument("--domains", dest="n_domains", metavar="DOMAINS", type=int)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--beta", type=float)
    sim.add_argument("--n", type=int, help="finite-sample, het-noise, mc-* only")
    sim.add_argument("--k", type=int)
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--missing-frac", type=float, help="mc-* only")
    sim.add_argument("--paper-scale", action="store_true", help="mc-* only")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--out", default=".")
    sim.set_defaults(func=cmd_simulate)

    comp = sub.add_parser("complete", help="fit a matrix-completion model")
    comp.add_argument("--csv", help="long CSV; empty cells are treated as missing")
    comp.add_argument("--domain-col", default="domain")
    comp.add_argument("--k", type=int)
    comp.add_argument("--objective", help="pool | max")
    comp.add_argument(
        "--missing-frac",
        type=float,
        default=None,
        help="additionally hide this fraction of entries per row",
    )
    comp.add_argument("--predict", help="held-out CSV whose rows to reconstruct")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--out", default=".")
    comp.set_defaults(func=cmd_complete)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WcpcaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
