"""Span recording at the package's layer boundaries, from outside the package.

The traced run wraps the module-level names through which one layer calls
another (for example ``wcpca.cli.solve_wcpca`` or
``wcpca.solvers.stiefel_project``) in a :class:`Recorder` span; each
``wcpca.cli.main`` call is the root ``cli.main`` span. Nothing in ``src/``
changes: a wrapper replaces the name in the calling module's namespace, so
only calls that go through that name are timed.

A span is ``(name, start, end, parent, attrs)``. Spans are kept in memory
and summarised when the process ends. A span's self time is its duration
minus the durations of its direct children; spans nest, so the children
never overlap each other.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """An in-memory span list with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self.stack)

    def wrap(self, name: str, fn, attrs=None, only_inside: str | None = None):
        """Return ``fn`` wrapped in a span; ``attrs(args, result)`` annotates it."""

        def wrapper(*args, **kwargs):
            if only_inside is not None and not self.inside(only_inside):
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx].attrs.update(attrs(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def children(spans: list[Span], idx: int, name: str) -> int:
    return sum(1 for s in spans if s.parent == idx and s.name == name)


# --- the boundaries of the wcpca package ---------------------------------

RETRACT_SOLVERS = "linalg.stiefel_project.from_solvers"
RETRACT_COMPLETION = "linalg.stiefel_project.from_completion"


def _solve_attrs(args, result):
    domains = args[1]
    return {"E": len(domains), "p": domains[0].p, "kept": int(result.iterations_used)}


def _eigensum_attrs(args, result):
    sigma, k = args[0], args[1]
    key = hashlib.blake2b(np.asarray(sigma).tobytes(), digest_size=16).hexdigest()
    return {"key": f"{key}:{k}"}


def _masked_attrs(args, result):
    _, blocks = result
    return {"cells": int(sum(x.size for x, _ in blocks.values()))}


def _rounds_attrs(args, result):
    return {"rounds": int(result.rounds)}


def install(rec: Recorder, wcpca) -> None:
    """Wrap every layer boundary the benchmark measures.

    ``wcpca`` is the imported package, with ``wcpca.cli`` (and so every
    submodule used here) already loaded.
    """
    cli, solvers, completion = wcpca.cli, wcpca.solvers, wcpca.completion
    losses, experiments, evaluation = wcpca.losses, wcpca.experiments, wcpca.evaluation
    boundaries = [
        # (module, attribute, span name, attrs)
        (cli, "load_covariances", "preprocess.load_covariances", None),
        (cli, "load_masked_csv", "preprocess.load_masked_csv", _masked_attrs),
        (cli, "masked_dataset_from_blocks", "preprocess.masked_dataset_from_blocks", None),
        (cli, "solve_wcpca", "solvers.solve_wcpca", _solve_attrs),
        (cli, "order_basis", "solvers.order_basis", None),
        (cli, "loss", "losses.loss", None),
        (cli, "worst_case", "losses.worst_case", None),
        (cli, "fit_max_mc", "completion.fit_max_mc", _rounds_attrs),
        (cli, "fit_pool_mc", "completion.fit_pool_mc", _rounds_attrs),
        (cli, "inductive_ols", "completion.inductive_ols", None),
        (cli, "sample_masks", "datagen.sample_masks", None),
        (cli, "run_experiment", "experiments.run_experiment", None),
        (experiments, "replicate_rows", "experiments.replicate_rows", None),
        (experiments, "solve_wcpca", "solvers.solve_wcpca", _solve_attrs),
        (experiments, "pool_pca", "solvers.pool_pca", None),
        (experiments, "loss", "losses.loss", None),
        (experiments, "hull_supremum", "evaluation.hull_supremum", None),
        (experiments, "relative_deltas", "evaluation.relative_deltas", None),
        (experiments, "sample_source_covariances", "datagen.sample_source_covariances", None),
        (experiments, "sample_target_covariance", "datagen.sample_target_covariance", None),
        (experiments, "sample_gaussian_rows", "datagen.sample_gaussian_rows", None),
        (experiments, "add_heterogeneous_noise", "datagen.add_heterogeneous_noise", None),
        (experiments, "sample_masks", "datagen.sample_masks", None),
        (evaluation, "hull_supremum", "evaluation.hull_supremum", None),
        (evaluation, "loss", "losses.loss", None),
        (solvers, "solve_wcpca", "solvers.solve_wcpca", _solve_attrs),
        (solvers, "stiefel_project", RETRACT_SOLVERS, None),
        (solvers, "top_k_eigensum", "losses.top_k_eigensum", _eigensum_attrs),
        (completion, "stiefel_project", RETRACT_COMPLETION, None),
        (losses, "loss", "losses.loss", None),
        (losses, "top_k_eigensum", "losses.top_k_eigensum", _eigensum_attrs),
    ]
    for module, attr, name, attrs in boundaries:
        setattr(module, attr, rec.wrap(name, getattr(module, attr), attrs))
    np.linalg.lstsq = rec.wrap("completion.lstsq", np.linalg.lstsq, only_inside="completion.fit_")


# --- per-layer metrics -----------------------------------------------------


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _total(spans, name):
    return sum(s.duration for s in _named(spans, name))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced process, from its spans."""
    selfs = self_times(spans)
    layer_self: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + st

    solves = [(i, s) for i, s in enumerate(spans) if s.name == "solvers.solve_wcpca"]
    solve_iters = [children(spans, i, RETRACT_SOLVERS) for i, _ in solves]
    iters = sum(solve_iters)
    solve_s = sum(s.duration for _, s in solves)
    solve_self = sum(selfs[i] for i, _ in solves)
    computed_bytes = sum(
        n * s.attrs["E"] * s.attrs["p"] ** 2 * 8 for (_, s), n in zip(solves, solve_iters)
    )
    kept = sum(s.attrs["kept"] for _, s in solves)

    retract_s = _named(spans, RETRACT_SOLVERS)
    retract_c = _named(spans, RETRACT_COMPLETION)
    eigensums = _named(spans, "losses.top_k_eigensum")
    masked = _named(spans, "preprocess.load_masked_csv")
    masked_s = sum(s.duration for s in masked)
    ols = _named(spans, "completion.inductive_ols")
    reps = [s.duration for s in _named(spans, "experiments.replicate_rows")]
    fit_max = _named(spans, "completion.fit_max_mc")
    fit_pool = _named(spans, "completion.fit_pool_mc")

    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "preprocess.load_masked_csv.s": masked_s,
        "preprocess.load_masked_csv.cells_per_s": _ratio(
            sum(s.attrs["cells"] for s in masked), masked_s
        ),
        "preprocess.load_covariances.s": _total(spans, "preprocess.load_covariances"),
        "solvers.solve_wcpca.calls": len(solves),
        "solvers.solve_wcpca.s": solve_s,
        "solvers.solve_wcpca.p50_ms": 1e3 * median([s.duration for _, s in solves]) if solves else 0.0,
        "solvers.iters": iters,
        "solvers.us_per_iter": 1e6 * _ratio(solve_s, iters),
        "solvers.self_s": layer_self.get("solvers", 0.0),
        "solvers.kept_iter_frac": _ratio(kept, iters),
        "solvers.order_basis.s": _total(spans, "solvers.order_basis"),
        "solvers.computed_gb_per_s": 1e-9 * _ratio(computed_bytes, solve_self),
        "linalg.stiefel_project.from_solvers.calls": len(retract_s),
        "linalg.stiefel_project.from_solvers.us_per_call": 1e6
        * _ratio(sum(s.duration for s in retract_s), len(retract_s)),
        "linalg.stiefel_project.from_completion.calls": len(retract_c),
        "linalg.stiefel_project.from_completion.us_per_call": 1e6
        * _ratio(sum(s.duration for s in retract_c), len(retract_c)),
        "losses.loss.calls": len(_named(spans, "losses.loss")),
        "losses.worst_case.calls": len(_named(spans, "losses.worst_case")),
        "losses.worst_case.s": _total(spans, "losses.worst_case"),
        "losses.top_k_eigensum.calls": len(eigensums),
        "losses.top_k_eigensum.s": sum(s.duration for s in eigensums),
        "losses.eigensum_reuse": _ratio(len({s.attrs["key"] for s in eigensums}), len(eigensums)),
        "completion.fit_max_mc.s": sum(s.duration for s in fit_max),
        "completion.fit_max_mc.rounds": sum(s.attrs["rounds"] for s in fit_max),
        "completion.fit_pool_mc.s": sum(s.duration for s in fit_pool),
        "completion.fit_pool_mc.rounds": sum(s.attrs["rounds"] for s in fit_pool),
        "completion.lstsq.calls": len(_named(spans, "completion.lstsq")),
        "completion.inductive_ols.calls": len(ols),
        "completion.inductive_ols.us_per_call": 1e6
        * _ratio(sum(s.duration for s in ols), len(ols)),
        "evaluation.hull_supremum.calls": len(_named(spans, "evaluation.hull_supremum")),
        "evaluation.hull_supremum.s": _total(spans, "evaluation.hull_supremum"),
        "evaluation.relative_deltas.s": _total(spans, "evaluation.relative_deltas"),
        "experiments.replicate_rows.p50_s": median(reps) if reps else 0.0,
        "experiments.replicate_rows.max_s": max(reps) if reps else 0.0,
        "datagen.s": sum(s.duration for s in spans if s.layer == "datagen"),
    }
