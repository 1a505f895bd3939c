"""Worst-case and average evaluation over source domains and their hull.

``hull_supremum`` is ``losses.worst_case`` itself, under the hull name:
every loss is linear in the covariance, so the extremum over the convex hull
of the source covariances is attained at a vertex. It is exact for Var and
RCS and a certified upper bound for the regret kinds; normalized kinds are
evaluated over the hull of the trace-normalized vertices. Monte-Carlo hull
sampling exists only as a test oracle, never inside reported metrics.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .datagen import (
    GenConfig,
    sample_gaussian_rows,
    sample_source_covariances,
    sample_target_covariance,
    second_moment_collection,
)
from .completion import CompletionModel, _ensure_dataset, inductive_ols
from .errors import DegenerateBaseline, InvalidInput
from .linalg import as_frame
from .losses import (
    MIN_KINDS,
    LossKind,
    as_collection,
    as_kind,
    average_covariance,
    loss,
    worst_case,
)
from .rng import as_rng, make_rng, spawn_seed
from .solvers import SolverConfig, solve_wcpca

__all__ = [
    "hull_supremum",
    "sample_hull_members",
    "relative_deltas",
    "mc_domain_losses",
    "mc_metrics",
    "consistency_curve",
]


# The hull extremum is the vertex worst case; see the module docstring.
hull_supremum = worst_case


def sample_hull_members(sources, count: int, seed, normalized: bool = False) -> list[np.ndarray]:
    """Random convex combinations of the source covariances (test oracle).

    With ``normalized`` the vertices are trace-normalized first, matching
    the hull that the normalized losses are defined over. Each member is one
    :func:`~wcpca.datagen.sample_target_covariance` draw from ``seed``.
    """
    vertices = as_collection(sources)
    if normalized:
        vertices = [replace(d, covariance=d.covariance / d.trace) for d in vertices]
    rng = as_rng(seed)
    return [sample_target_covariance(vertices, rng) for _ in range(count)]


def relative_deltas(method, baseline, sources):
    """Average and worst-case RCS deltas of a method against a baseline.

    Both deltas are divided by the baseline's RCS on the unweighted mean
    covariance:

        d_avg = (RCS(V_m; mean) - RCS(V_b; mean)) / RCS(V_b; mean)
        d_wc  = (sup_hull RCS(V_m) - sup_hull RCS(V_b)) / RCS(V_b; mean)

    Accepts FitResults or plain frames.
    """
    sources = as_collection(sources)
    vm = as_frame(getattr(method, "frame", method))
    vb = as_frame(getattr(baseline, "frame", baseline))
    mean_cov = average_covariance(sources)
    base = loss(LossKind.RCS, vb, mean_cov)
    if base <= 1e-13 * float(np.trace(mean_cov)):
        raise DegenerateBaseline("baseline average reconstruction error is zero")
    d_avg = (loss(LossKind.RCS, vm, mean_cov) - base) / base
    d_wc = (
        hull_supremum(LossKind.RCS, vm, sources) - hull_supremum(LossKind.RCS, vb, sources)
    ) / base
    return float(d_avg), float(d_wc)


def mc_domain_losses(model: CompletionModel, test) -> np.ndarray:
    """Per-domain per-entry MSE of inductive reconstructions on ``test``.

    Each test row is reconstructed from its observed entries with the
    model's right factor; the error counts all p coordinates, so ``test``
    must carry ground truth even at masked positions. Returns one value per
    domain: ||X_e - Xhat_e||_F^2 / (n_e * p).
    """
    test = _ensure_dataset(test)
    out = np.empty(len(test))
    for e, d in enumerate(test):
        _, recon = inductive_ols(d.x, d.mask, model.right_factor)
        diff = d.x - recon
        out[e] = float(np.sum(diff * diff)) / (d.n * d.p)
    return out


def mc_metrics(model_a: CompletionModel, model_b: CompletionModel, test):
    """Average and worst-case test-MSE deltas of model_a minus model_b.

    Values are scaled by 1e4 (the reporting convention for completion
    deltas): ``d_avg = 1e4 * mean_e(L_e(a) - L_e(b))`` and
    ``d_wc = 1e4 * (max_e L_e(a) - max_e L_e(b))``.
    """
    return _loss_deltas(mc_domain_losses(model_a, test), mc_domain_losses(model_b, test))


def _loss_deltas(la: np.ndarray, lb: np.ndarray) -> tuple[float, float]:
    # mc_metrics' 1e4-scaled deltas, from per-domain losses already computed
    return 1e4 * float((la - lb).mean()), 1e4 * float(la.max() - lb.max())


def consistency_curve(
    gen: GenConfig,
    kind,
    k: int,
    n_grid,
    replicates: int,
    cfg: SolverConfig | None = None,
):
    """Gap between empirical and population fits as sample size grows.

    For every replicate, one population collection is drawn from ``gen`` and
    solved with ``cfg`` (its seed replaced per fit); for each n in ``n_grid``,
    n Gaussian rows per domain give empirical covariances (uncentered second
    moments), the same problem is solved on those, and the difference of
    hull-extremum losses on the population sources is recorded. The
    difference is oriented so that 0 means the empirical fit matches the
    population one (empirical minus population for max-type kinds, reversed
    for Var/NormVar). A nonpositive n (or inf) feeds the population
    covariances directly.

    Returns one summary dict per n: median, quartiles, mean, and count.
    """
    kind = as_kind(kind)
    if replicates < 1:
        raise InvalidInput(f"replicates must be >= 1, got {replicates}")
    cfg = cfg or SolverConfig()
    diffs: dict[object, list[float]] = {n: [] for n in n_grid}
    for rep in range(replicates):
        base = spawn_seed(gen.seed, rep)
        sources = sample_source_covariances(replace(gen, seed=spawn_seed(base, 0)))
        pop_fit = solve_wcpca(kind, sources, k, replace(cfg, seed=spawn_seed(base, 1)))
        pop_val = worst_case(kind, pop_fit.frame, sources)
        for ni, n in enumerate(n_grid):
            if np.isfinite(n) and n > 0:
                data_rng = make_rng(spawn_seed(base, 2 + ni))
                emp = second_moment_collection(
                    sources, (sample_gaussian_rows(d.covariance, int(n), data_rng) for d in sources)
                )
            else:
                emp = sources
            emp_fit = solve_wcpca(kind, emp, k, replace(cfg, seed=spawn_seed(base, 100 + ni)))
            emp_val = worst_case(kind, emp_fit.frame, sources)
            diff = (pop_val - emp_val) if kind in MIN_KINDS else (emp_val - pop_val)
            diffs[n].append(float(diff))
    table = []
    for n in n_grid:
        vals = np.array(diffs[n])
        table.append(
            {
                "n": n,
                "replicates": int(vals.size),
                "median": float(np.median(vals)),
                "q25": float(np.quantile(vals, 0.25)),
                "q75": float(np.quantile(vals, 0.75)),
                "mean": float(vals.mean()),
            }
        )
    return table
