"""Baselines and the Stiefel-Adam solver for worst-case subspace fitting.

The exact baselines (pooled, separate, average-covariance PCA) reduce to
eigendecompositions. The worst-case problems

    maximize  min_e Var(V; Sigma_e)        (Var, NormVar)
    minimize  max_e L(V; Sigma_e)          (RCS, NormRCS, Reg, NormReg)

are all solved by one driver, :func:`stiefel_adam`: at each iterate the
active domain (the one attaining the worst case, smallest index on ties)
supplies the subgradient, an annealed Adam step is taken in the ambient
p x k space, and the result is retracted to orthonormal columns by
``stiefel_project``. All six objectives share one update direction because
every loss is linear in the covariance: the Euclidean gradient of the active
domain's loss is +/- 2 Sigma_a V (divided by the trace for normalized kinds,
and unchanged for the regret kinds whose baseline does not depend on V).
The losses come from the single kernel ``losses.domain_losses``, whose
products ``Sigma_e V`` double as the gradient. Worst-case matrix completion
(``completion.fit_max_mc``) runs the same driver on its right factor.

The step size anneals geometrically from 1e-2 down to 1e-4 over the
iteration budget; a constant step leaves Adam oscillating at the step scale
near a max-min optimum where the active domain alternates. Restart r draws its initial frame from stream r of
``cfg.seed`` (a counter-offset of the same Philox key), so runs are
reproducible and restarts are independent. Retraction-based descent follows
Absil, Mahony & Sepulchre, *Optimization Algorithms on Matrix Manifolds*
(2008); the update rule is Adam (Kingma & Ba, ICLR 2015).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, InvalidKind, InvalidRank, NumericalFailure
from .linalg import as_frame, haar_frame, orthocomplement_frame, stiefel_project, top_k_frame
from .losses import (
    MIN_KINDS,
    NORMALIZED_KINDS,
    REGRET_KINDS,
    DomainCollection,
    DomainSpec,
    LossKind,
    as_collection,
    as_kind,
    average_covariance,
    domain_losses,
    pooled_covariance,
    top_k_eigensum,  # noqa: F401 -- benchmarks/spans.py wraps this name
    worst_index,
)
from .rng import make_rng, spawn_seed

__all__ = [
    "SolverConfig",
    "FitResult",
    "pool_pca",
    "sep_pca",
    "avgcov_pca",
    "stiefel_adam",
    "solve_wcpca",
    "sequential_minpca",
    "order_basis",
]

# Stop a run when the best cost has improved by less than its tolerance over
# this many iterations.
_PLATEAU_WINDOW = 50
# Initial Adam step size; it anneals geometrically to a hundredth of this.
_STEP_SIZE = 1e-2
# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Domains within this absolute gap of the worst-case value count as active.
_ACTIVE_TOL = 1e-6
# Reduced covariances whose trace falls below this get a diagonal jitter so
# they remain valid DomainSpec inputs (trace must be positive).
_TRACE_JITTER = 1e-15


@dataclass(frozen=True)
class SolverConfig:
    """Budget, plateau tolerance and restarts of the worst-case solvers."""

    max_iters: int = 2000
    restarts: int = 5
    tol_objective: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInput(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise InvalidInput(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class FitResult:
    """A fitted frame with its objective and solver diagnostics.

    ``active_domains`` holds the indices of domains within 1e-6 of the
    worst-case value at the returned frame. Exact baselines report an empty
    set (pooled/average PCA) or the selected domain (separate PCA), zero
    iterations, and restart 0.
    """

    frame: np.ndarray
    objective: float
    active_domains: frozenset[int]
    iterations_used: int
    restart_index: int


def _pca_of(sigma: np.ndarray, k: int) -> FitResult:
    """Top-k PCA of one covariance, reporting the frame's explained variance."""
    frame = top_k_frame(sigma, k)
    objective = float(np.sum(frame * (sigma @ frame)))
    return FitResult(frame, objective, frozenset(), 0, 0)


def pool_pca(domains, k: int) -> FitResult:
    """PCA on the weighted pooled covariance sum_e w_e Sigma_e.

    The reported objective is the explained variance of the frame on the
    pooled covariance.
    """
    return _pca_of(pooled_covariance(as_collection(domains)), k)


def sep_pca(domains, k: int) -> FitResult:
    """Per-domain PCA, keeping the domain whose own top-k eigensum is minimal.

    Ties go to the smallest domain index. The objective is the chosen
    domain's own explained variance and ``active_domains`` holds its index.
    """
    domains = as_collection(domains)
    eigsums = domains.top_k_eigensums(k)
    best_idx = int(np.argmin(eigsums))
    frame = top_k_frame(domains[best_idx].covariance, k)
    return FitResult(frame, float(eigsums[best_idx]), frozenset({best_idx}), 0, 0)


def avgcov_pca(domains, k: int) -> FitResult:
    """PCA on the unweighted average covariance (1/E) sum_e Sigma_e."""
    return _pca_of(average_covariance(as_collection(domains)), k)


def stiefel_adam(v0, cost_and_grad, iters: int, tol: float, frozen=None):
    """Minimize a worst-case cost over frames with orthonormal columns.

    ``cost_and_grad(v)`` returns the cost at ``v`` and the Euclidean gradient
    of the active (worst) piece. Each iteration keeps the gradient's tangent
    part, zeroes the rows flagged in the boolean mask ``frozen``, takes an
    Adam step whose size anneals geometrically from 1e-2 to 1e-4 over
    ``iters``, and retracts with ``stiefel_project``.
    The run stops once the best cost has improved by less than ``tol`` over
    the last 50 iterations. Returns ``(best frame, best cost, iterations)``;
    the best frame may be ``v0`` itself.
    """
    m = np.zeros_like(v0)
    u = np.zeros_like(v0)
    v = v0
    cost, g = cost_and_grad(v)
    best_cost, best_v = cost, v
    best_hist = [best_cost]
    for t in range(1, iters + 1):
        # The moments must see only the tangential part: the radial component
        # never flips sign, and Adam's coordinatewise normalization would
        # inflate it into a bias that stalls equalized optima off the KKT
        # point (Example-1-type instances expose this). Frozen rows are zeroed
        # last so they never accumulate moment mass.
        vg = v.T @ g
        g = g - v @ ((vg + vg.T) / 2.0)
        if frozen is not None:
            g[frozen] = 0.0
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
        u = _ADAM_BETA2 * u + (1.0 - _ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - _ADAM_BETA1**t)
        uhat = u / (1.0 - _ADAM_BETA2**t)
        step = _STEP_SIZE * 0.01 ** (t / iters)
        v = v - step * mhat / (np.sqrt(uhat) + _ADAM_EPS)
        if not np.all(np.isfinite(v)):
            raise NumericalFailure(f"non-finite iterate at iteration {t}")
        v = stiefel_project(v)
        cost, g = cost_and_grad(v)
        if cost < best_cost:
            best_cost, best_v = cost, v
        best_hist.append(best_cost)
        if t >= _PLATEAU_WINDOW and best_hist[-1 - _PLATEAU_WINDOW] - best_cost < tol:
            return best_v, best_cost, t
    return best_v, best_cost, iters


def solve_wcpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> FitResult:
    """Solve a worst-case PCA problem by multi-restart Stiefel-Adam.

    Runs ``cfg.restarts`` independent :func:`stiefel_adam` runs from
    Haar-random initial frames (restart r uses stream r of ``cfg.seed``) and
    keeps the best final objective. Non-convergence is not an error: the
    best frame found is returned with ``iterations_used == cfg.max_iters``.
    The degenerate case k = p short-circuits to the identity frame, where
    every objective is constant over the manifold.
    """
    kind = as_kind(kind)
    domains = as_collection(domains)
    cfg = cfg or SolverConfig()
    p = domains.p
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    covs, traces = domains.covariances, domains.traces
    eigsums = domains.top_k_eigensums(k) if kind in REGRET_KINDS else None
    # The driver minimizes; Var and NormVar maximize their worst case.
    sign = -1.0 if kind in MIN_KINDS else 1.0

    def cost_and_grad(v):
        values, products = domain_losses(kind, v, covs, traces, eigsums)
        idx = worst_index(kind, values)
        trn = traces[idx] if kind in NORMALIZED_KINDS else 1.0
        return sign * float(values[idx]), (-2.0 / trn) * products[idx]

    def result(frame, iters, restart):
        values, _ = domain_losses(kind, frame, covs, traces, eigsums)
        worst = values[worst_index(kind, values)]
        active = np.flatnonzero(np.abs(values - worst) <= _ACTIVE_TOL)
        return FitResult(frame, float(worst), frozenset(int(i) for i in active), iters, restart)

    if k == p:
        return result(np.eye(p), 0, 0)

    best = None
    for r in range(cfg.restarts):
        v0 = haar_frame(p, k, make_rng(cfg.seed, r))
        v, cost, iters = stiefel_adam(v0, cost_and_grad, cfg.max_iters, cfg.tol_objective)
        if best is None or cost < best[1]:
            best = (v, cost, iters, r)
    frame, _, iters, restart = best
    return result(frame, iters, restart)


def _jitter_if_flat(m: np.ndarray) -> np.ndarray:
    # A domain fully explained by the directions chosen so far reduces to a
    # zero matrix, which DomainSpec rejects; nudge it back to positive trace.
    if float(np.trace(m)) <= _TRACE_JITTER:
        return m + _TRACE_JITTER * np.eye(m.shape[0])
    return m


def _reduced_collection(domains, basis, scale_by_trace: bool) -> DomainCollection:
    """Project each domain covariance into the coordinates of ``basis``.

    With ``scale_by_trace`` the reduced matrices are divided by the original
    full-space traces, so a plain Var solve on the result optimizes the
    NormVar objective of the original problem (the denominator must stay
    Tr(Sigma_e), not the trace of the reduced block).
    """
    specs = []
    for d in domains:
        m = basis.T @ (d.covariance @ basis)
        m = (m + m.T) / 2.0
        if scale_by_trace:
            m = m / d.trace
        specs.append(DomainSpec(id=d.id, covariance=_jitter_if_flat(m), weight=d.weight, n=d.n))
    return DomainCollection(tuple(specs))


def sequential_minpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> list[np.ndarray]:
    """Greedy variant: pick rank-1 worst-case directions one at a time.

    Direction j is the rank-1 solution of the worst-case problem restricted
    to the orthogonal complement of the directions chosen so far. Only the
    Var and NormVar objectives are defined for this scheme. Returns the
    ordered unit vectors; their joint worst-case value can be strictly worse
    than the rank-k solve, which is the point of having both.
    """
    kind = as_kind(kind)
    if kind not in MIN_KINDS:
        raise InvalidKind(f"sequential variant is defined for var and norm-var, got {kind.value}")
    domains = as_collection(domains)
    cfg = cfg or SolverConfig()
    p = domains.p
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    comp_rng = make_rng(spawn_seed(cfg.seed, 0))
    directions: list[np.ndarray] = []
    for j in range(k):
        if j == 0:
            basis = np.eye(p)
        else:
            chosen = np.column_stack(directions)
            basis = orthocomplement_frame(chosen, p - j, comp_rng)
        reduced = _reduced_collection(domains, basis, kind is LossKind.NORM_VAR)
        inner_cfg = replace(cfg, seed=spawn_seed(cfg.seed, j + 1))
        res = solve_wcpca(LossKind.VAR, reduced, 1, inner_cfg)
        u = basis @ res.frame[:, 0]
        directions.append(u / np.linalg.norm(u))
    return directions


def order_basis(kind, frame, domains, cfg: SolverConfig | None = None) -> np.ndarray:
    """Reorder a fitted frame so every column prefix is worst-case optimal.

    Working inside the span of ``frame``, repeatedly find and remove the unit
    direction whose removal maximizes the worst-case explained variance of
    what remains. On the unit sphere the removal objective
    ``min_e (Tr(M_e) - a.T M_e a)`` equals ``min_e a.T (Tr(M_e) I - M_e) a``,
    so each removal is a rank-1 Var solve on the PSD matrices
    ``Tr(M_e) I - M_e``, with ``M_e`` from :func:`_reduced_collection`, and
    reuses :func:`solve_wcpca`. The last direction
    standing is the best single direction in the span and comes first; the
    direction removed first needed the least and comes last. The output spans
    the same subspace as the input.
    """
    kind = as_kind(kind)
    if kind not in MIN_KINDS:
        raise InvalidKind(f"basis ordering is defined for var and norm-var, got {kind.value}")
    domains = as_collection(domains)
    cfg = cfg or SolverConfig()
    b = as_frame(frame)
    if b.shape[0] != domains.p:
        raise InvalidInput(f"frame rows {b.shape[0]} do not match domain dimension {domains.p}")
    k = b.shape[1]
    if k == 1:
        return b.copy()
    comp_rng = make_rng(spawn_seed(cfg.seed, 0))
    removed: list[np.ndarray] = []
    b = b.copy()
    for j in range(k, 1, -1):
        reduced = _reduced_collection(domains, b, kind is LossKind.NORM_VAR)
        removal = [replace(d, covariance=d.trace * np.eye(j) - d.covariance) for d in reduced]
        inner_cfg = replace(cfg, seed=spawn_seed(cfg.seed, j))
        res = solve_wcpca(LossKind.VAR, removal, 1, inner_cfg)
        a = res.frame[:, 0]
        removed.append(b @ a)
        b = b @ orthocomplement_frame(a, j - 1, comp_rng)
    columns = [b[:, 0]] + removed[::-1]
    return np.column_stack(columns)
