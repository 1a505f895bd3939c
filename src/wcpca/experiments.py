"""Desk-scale simulation studies behind the ``simulate`` CLI command.

Every experiment emits long-format rows (replicate, condition, method,
metric, value), one batch per replicate so partial results can be flushed as
they are produced. Replicate r derives its seed with ``spawn_seed(seed, r)``
and is a pure function of that seed, which makes runs reproducible and lets
replicates execute in a process pool.

Experiments
-----------
hull-bound      population hull robustness: per-target RCS of pooled vs
                worst-case fits against the certified vertex bound.
avg-vs-wc       average-vs-worst-case trade-off over a grid of specific
                eigenvalue ranges.
finite-sample   empirical-vs-population gap as the per-domain sample count
                grows.
het-noise       heterogeneous observation noise; worst-case RCS of maxRCS vs
                maxRegret fits on clean test covariances.
mc-observed     matrix completion with fully observed sources.
mc-masked       matrix completion with masked source rows.

The completion experiments default to p=60, n=200 per domain and a missing
fraction of 0.9; ``paper_scale`` restores the published p=500, n=1000
(expect a long run). ``n`` is read by finite-sample, het-noise and the
completion experiments, ``missing_frac`` and ``paper_scale`` by the
completion experiments only; ``ExperimentConfig`` rejects them elsewhere.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .completion import MaskedDataset, MaskedDomain, fit_max_mc, fit_pool_mc
from .datagen import (
    GenConfig,
    add_heterogeneous_noise,
    hidden_per_row,
    sample_gaussian_rows,
    sample_masks,
    sample_source_covariances,
    sample_target_covariance,
    second_moment_collection,
)
from .errors import InvalidConfig, InvalidInput
from .evaluation import hull_supremum, mc_domain_losses, relative_deltas
from .losses import LossKind, loss
from .rng import SEED_LIMIT, make_rng, spawn_seed
from .solvers import SolverConfig, pool_pca, solve_wcpca

__all__ = ["EXPERIMENTS", "ExperimentConfig", "run_experiment", "replicate_rows"]

_ALPHA_BETA_GRID = ((0.1, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 5.0))
_N_GRID = (100, 250, 500, 1000, 2000, 5000)
_HULL_TARGETS = 50
_MISSING_FRAC = 0.9
# settings only some studies read; every other field is read by all of them
_OPTIONAL_SETTINGS = ("n", "missing_frac", "paper_scale")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one simulation run.

    Fields left as None fall back to each experiment's defaults; ``alpha``
    and ``beta`` must be given together (a single value would make the grid
    experiments ambiguous). ``n``, ``missing_frac`` and ``paper_scale`` may
    only be given to a study that reads them. The data-generator settings
    are checked by building the study's ``GenConfig`` once, the completion
    studies' missing fraction (:func:`datagen.hidden_per_row`) and every
    rank the study fits against the resolved p, before any draw.
    """

    name: str
    p: int | None = None
    n_domains: int = 5
    alpha: float | None = None
    beta: float | None = None
    n: int | None = None
    k: int | None = None
    replicates: int | None = None
    missing_frac: float | None = None
    paper_scale: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.name not in _STUDIES:
            raise InvalidConfig(f"unknown experiment {self.name!r}; choose from {', '.join(EXPERIMENTS)}")
        defaults = {f.name: f.default for f in fields(self)}
        for name in _OPTIONAL_SETTINGS:
            if getattr(self, name) != defaults[name] and name not in _STUDIES[self.name].reads:
                flag = "--" + name.replace("_", "-")
                raise InvalidConfig(f"{self.name} does not read {flag}")
        if (self.alpha is None) != (self.beta is None):
            raise InvalidConfig("--alpha and --beta must be given together")
        if self.replicates is not None and self.replicates < 1:
            raise InvalidConfig(f"replicates must be >= 1, got {self.replicates}")
        if self.n is not None and self.n < 1:
            raise InvalidConfig(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise InvalidConfig(f"seed must lie in [0, 2**128), got {self.seed}")
        try:
            p = _gen(self, self.seed).p
            if "missing_frac" in _STUDIES[self.name].reads:
                p, _, _, missing_frac = _mc_settings(self)
                hidden_per_row(p, missing_frac)
        except InvalidInput as exc:
            raise InvalidConfig(str(exc)) from exc
        for k in _ranks(self):
            if not 1 <= k <= p:
                raise InvalidConfig(f"k must be in 1..{p}, got {k}")

    def resolved_replicates(self) -> int:
        return self.replicates if self.replicates is not None else _STUDIES[self.name].replicates


def _ranks(cfg: ExperimentConfig) -> tuple[int, ...]:
    """The ranks a study fits: ``k`` if given, else the study's defaults."""
    return (cfg.k,) if cfg.k is not None else _STUDIES[cfg.name].ranks


def _component_ranks(p: int) -> tuple[int, int]:
    # default ranks 5 + 5 assume p >= 10; shrink for smaller p instead of
    # rejecting the run (unchanged for every p >= 10)
    shared = min(5, max(1, p // 2))
    specific = min(5, max(1, p - shared))
    return shared, specific


def _gen(cfg: ExperimentConfig, seed: int, **overrides) -> GenConfig:
    p = overrides.pop("p", cfg.p if cfg.p is not None else 20)
    shared, specific = _component_ranks(p)
    kwargs = {
        "p": p,
        "n_domains": cfg.n_domains,
        "shared_rank": shared,
        "specific_rank": specific,
        "alpha": cfg.alpha if cfg.alpha is not None else 0.1,
        "beta": cfg.beta if cfg.beta is not None else 1.0,
        "seed": seed,
    }
    kwargs.update(overrides)
    return GenConfig(**kwargs)


def _hull_bound_rows(cfg: ExperimentConfig, rep_seed: int) -> list[tuple]:
    (k,) = _ranks(cfg)
    sources = sample_source_covariances(_gen(cfg, spawn_seed(rep_seed, 0)))
    pool = pool_pca(sources, k)
    wc = solve_wcpca(LossKind.RCS, sources, k, SolverConfig(seed=spawn_seed(rep_seed, 1)))
    target_rng = make_rng(spawn_seed(rep_seed, 2))
    rows = []
    for j in range(_HULL_TARGETS):
        target = sample_target_covariance(sources, target_rng)
        condition = f"target-{j:02d}"
        rows.append((condition, "pool", "rcs", loss(LossKind.RCS, pool.frame, target)))
        rows.append((condition, "max-rcs", "rcs", loss(LossKind.RCS, wc.frame, target)))
        rows.append((condition, "bound", "rcs", wc.objective))
    return rows


def _avg_vs_wc_rows(cfg: ExperimentConfig, rep_seed: int) -> list[tuple]:
    (k,) = _ranks(cfg)
    pairs = [(cfg.alpha, cfg.beta)] if cfg.alpha is not None else list(_ALPHA_BETA_GRID)
    rows = []
    for pi, (alpha, beta) in enumerate(pairs):
        gen = _gen(cfg, spawn_seed(rep_seed, 2 * pi), alpha=alpha, beta=beta)
        sources = sample_source_covariances(gen)
        pool = pool_pca(sources, k)
        wc = solve_wcpca(
            LossKind.RCS, sources, k, SolverConfig(seed=spawn_seed(rep_seed, 2 * pi + 1))
        )
        d_avg, d_wc = relative_deltas(wc, pool, sources)
        # semicolon keeps the condition free of CSV quoting
        condition = f"alpha={alpha:g};beta={beta:g}"
        rows.append((condition, "max-rcs-vs-pool", "rel-error-avg", d_avg))
        rows.append((condition, "max-rcs-vs-pool", "rel-error-wc", d_wc))
    return rows


def _finite_sample_rows(cfg: ExperimentConfig, rep_seed: int) -> list[tuple]:
    (k,) = _ranks(cfg)
    n_grid = [cfg.n] if cfg.n is not None else list(_N_GRID)
    sources = sample_source_covariances(_gen(cfg, spawn_seed(rep_seed, 0)))
    pop_wc = solve_wcpca(LossKind.RCS, sources, k, SolverConfig(seed=spawn_seed(rep_seed, 1)))
    rows = []
    for ni, n in enumerate(n_grid):
        rng = make_rng(spawn_seed(rep_seed, 10 + ni))
        emp = second_moment_collection(
            sources, (sample_gaussian_rows(d.covariance, n, rng) for d in sources)
        )
        emp_pool = pool_pca(emp, k)
        emp_wc = solve_wcpca(LossKind.RCS, emp, k, SolverConfig(seed=spawn_seed(rep_seed, 100 + ni)))
        wc_val = hull_supremum(LossKind.RCS, emp_wc.frame, sources)
        pool_val = hull_supremum(LossKind.RCS, emp_pool.frame, sources)
        condition = f"n={n}"
        rows.append((condition, "max-rcs", "diff-in-rcs", wc_val - pop_wc.objective))
        rows.append((condition, "max-rcs-vs-pool", "rel-error-fs", wc_val - pool_val))
    return rows


def _het_noise_rows(cfg: ExperimentConfig, rep_seed: int) -> list[tuple]:
    n = cfg.n if cfg.n is not None else 2000
    sources = sample_source_covariances(_gen(cfg, spawn_seed(rep_seed, 0), per_domain_gammas=True))
    sigma_rng = make_rng(spawn_seed(rep_seed, 1))
    noise_levels = sigma_rng.uniform(0.0, 0.1, len(sources))
    train_rng = make_rng(spawn_seed(rep_seed, 2))
    noise_rng = make_rng(spawn_seed(rep_seed, 3))
    test_rng = make_rng(spawn_seed(rep_seed, 4))
    # each collection draws from its own streams, so building one after the
    # other gives the same draws as interleaving them per domain
    noisy_coll = second_moment_collection(
        sources,
        (
            add_heterogeneous_noise(
                sample_gaussian_rows(d.covariance, n, train_rng), float(level), noise_rng
            )
            for d, level in zip(sources, noise_levels)
        ),
    )
    test_coll = second_moment_collection(
        sources, (sample_gaussian_rows(d.covariance, n, test_rng) for d in sources)
    )
    rows = []
    for rank in _ranks(cfg):
        wc_rcs = solve_wcpca(
            LossKind.RCS, noisy_coll, rank, SolverConfig(seed=spawn_seed(rep_seed, 10 + rank))
        )
        wc_reg = solve_wcpca(
            LossKind.REG, noisy_coll, rank, SolverConfig(seed=spawn_seed(rep_seed, 50 + rank))
        )
        for method, fit in (("max-rcs", wc_rcs), ("max-regret", wc_reg)):
            test_wc = hull_supremum(LossKind.RCS, fit.frame, test_coll)
            rows.append((f"k={rank}", method, "test-wc-rcs", test_wc))
    return rows


def _mc_settings(cfg: ExperimentConfig) -> tuple[int, int, int, float]:
    """The completion studies' p, n, k and missing fraction, defaults filled in."""
    p = cfg.p if cfg.p is not None else (500 if cfg.paper_scale else 60)
    n = cfg.n if cfg.n is not None else (1000 if cfg.paper_scale else 200)
    (k,) = _ranks(cfg)
    missing_frac = cfg.missing_frac if cfg.missing_frac is not None else _MISSING_FRAC
    return p, n, k, missing_frac


def _mc_rows(cfg: ExperimentConfig, rep_seed: int, masked_sources: bool) -> list[tuple]:
    p, n, k, missing_frac = _mc_settings(cfg)
    sources = sample_source_covariances(_gen(cfg, spawn_seed(rep_seed, 0), p=p))
    train_rng = make_rng(spawn_seed(rep_seed, 1))
    train_mask_rng = make_rng(spawn_seed(rep_seed, 2))
    test_rng = make_rng(spawn_seed(rep_seed, 3))
    test_mask_rng = make_rng(spawn_seed(rep_seed, 4))
    train_domains = []
    test_domains = []
    for d in sources:
        x = sample_gaussian_rows(d.covariance, n, train_rng)
        if masked_sources:
            mask = sample_masks(n, p, missing_frac, train_mask_rng)
        else:
            mask = np.ones((n, p), dtype=bool)
        train_domains.append(MaskedDomain(id=d.id, x=x, mask=mask))
        x_test = sample_gaussian_rows(d.covariance, n, test_rng)
        test_mask = sample_masks(n, p, missing_frac, test_mask_rng)
        test_domains.append(MaskedDomain(id=d.id, x=x_test, mask=test_mask))
    train = MaskedDataset(tuple(train_domains))
    test = MaskedDataset(tuple(test_domains))
    pool_model = fit_pool_mc(train, k)
    max_model = fit_max_mc(train, k)
    pool_losses = mc_domain_losses(pool_model, test)
    max_losses = mc_domain_losses(max_model, test)
    # max-mc minus pool-mc: mean and worst-case test MSE, reported x1e4
    d_avg = 1e4 * float((max_losses - pool_losses).mean())
    d_wc = 1e4 * float(max_losses.max() - pool_losses.max())
    condition = "masked" if masked_sources else "observed"
    rows = []
    for e, d in enumerate(test):
        rows.append((condition, "pool-mc", f"test-mse-{d.id}", pool_losses[e]))
        rows.append((condition, "max-mc", f"test-mse-{d.id}", max_losses[e]))
    rows.append((condition, "max-vs-pool", "delta-avg-x1e4", d_avg))
    rows.append((condition, "max-vs-pool", "delta-wc-x1e4", d_wc))
    return rows


class _Study(NamedTuple):
    # (cfg, replicate seed) -> (condition, method, metric, value) rows
    rows: Callable[[ExperimentConfig, int], list[tuple]]
    replicates: int  # default replicate count
    reads: tuple[str, ...] = ()  # the _OPTIONAL_SETTINGS this study reads
    ranks: tuple[int, ...] = (5,)  # the ranks fitted when k is not given


_STUDIES = {
    "hull-bound": _Study(_hull_bound_rows, 1),
    "avg-vs-wc": _Study(_avg_vs_wc_rows, 25),
    "finite-sample": _Study(_finite_sample_rows, 25, ("n",)),
    "het-noise": _Study(_het_noise_rows, 25, ("n",), (10, 5)),
    "mc-observed": _Study(partial(_mc_rows, masked_sources=False), 1, _OPTIONAL_SETTINGS),
    "mc-masked": _Study(partial(_mc_rows, masked_sources=True), 1, _OPTIONAL_SETTINGS),
}
EXPERIMENTS = tuple(_STUDIES)


def replicate_rows(cfg: ExperimentConfig, rep: int) -> list[dict]:
    """All rows of replicate ``rep``; pure function of (cfg, rep)."""
    return [
        {"replicate": rep, "condition": c, "method": m, "metric": metric, "value": float(v)}
        for c, m, metric, v in _STUDIES[cfg.name].rows(cfg, spawn_seed(cfg.seed, rep))
    ]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, row_sink=None) -> list[dict]:
    """Run all replicates, optionally in a process pool of ``jobs`` workers.

    ``row_sink``, when given, receives each replicate's row batch in
    replicate order as soon as it is available (used by the CLI to flush
    partial results). Returns the full row list.
    """
    if jobs < 1:
        raise InvalidConfig(f"jobs must be >= 1, got {jobs}")
    reps = cfg.resolved_replicates()
    parallel = jobs > 1 and reps > 1
    if parallel:
        # Imported here: it loads multiprocessing, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor
    all_rows: list[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        batches = (pool.map if parallel else map)(replicate_rows, [cfg] * reps, range(reps))
        for batch in batches:
            if row_sink is not None:
                row_sink(batch)
            all_rows.extend(batch)
    return all_rows
