"""Baselines, the mixture dual and the Stiefel-Adam solver for worst-case
subspace fitting.

The exact baselines (pooled, separate, average-covariance PCA) reduce to
eigendecompositions. The worst-case problems

    maximize  min_e Var(V; Sigma_e)        (Var, NormVar)
    minimize  max_e L(V; Sigma_e)          (RCS, NormRCS, Reg, NormReg)

are solved dual first, with Stiefel-Adam as the fallback.

Every loss is linear in the covariance, so relaxing V V.T to the Fantope
{0 <= P <= I, Tr P = k} and swapping min and max gives a dual over simplex
weights w on the domains (trace-normalized covariances for the normalized
kinds): by Ky Fan's maximum principle it is max_w sum_e w_e b_e - s_k(Sigma_w)
for the max kinds, with b_e the trace or the top-k eigensum, and
min_w s_k(Sigma_w) for Var, where s_k sums the k largest eigenvalues of
the mixture Sigma_w. Any w gives a bound on the optimum, and every domain's
loss at the top-k frame of Sigma_w is a supergradient (Overton & Womersley,
*Math. Programming* 1993). Wherever lambda_k(Sigma_w) > lambda_{k+1}(Sigma_w)
the dual is twice differentiable, with a Hessian taken from the same
eigendecomposition (Overton & Womersley, *SIAM J. Matrix Anal. Appl.* 1995),
so :func:`_mixture_dual` ascends it by damped Newton steps, each a QP over
the E simplex weights (:func:`_simplex_newton`, shared with completion's
maxMC R-step); once the best top-k frame it meets is within 1e-9 (relative)
of the best bound, that frame is optimal and the gap certifies it. The
relaxation need not be tight: its optimum can have rank k+1 (Tantipongpipat
et al., NeurIPS 2019), with lambda_k = lambda_{k+1} at the optimal weights,
and then the gap stays open.

:func:`solve_wcpca` runs the dual first on every worst-case solve, at every
p. An uncertified dual falls back to :func:`stiefel_adam`: at each iterate
the active domain (the one attaining the worst case, smallest index on ties)
supplies the subgradient, an annealed Adam step is taken in the ambient
p x k space, and the result is retracted to orthonormal columns by
``stiefel_project`` (the polar factor, from an ``eigh`` of the k x k Gram).
All six objectives share one update direction: the Euclidean gradient of
the active domain's loss is +/- 2 Sigma_a V (divided by the trace for
normalized kinds, and unchanged for the regret kinds whose baseline does not
depend on V). The losses come from the single kernel
``losses.domain_losses``, whose products ``Sigma_e V`` double as the
gradient; the fallback stacks the covariances once per solve, so each
iteration takes all of its products in one broadcast ``matmul``.

The driver advances an ``(R, p, k)`` batch: :func:`solve_wcpca` runs all of
its restarts in one loop, each with its own Adam moments and plateau stop,
so a solve takes as many iterations as its slowest restart rather than the
sum over restarts, and each restart's result is bitwise the one a lone run
would give. The step size anneals geometrically from 1e-2 down to 1e-4 over
the iteration budget; a constant step leaves Adam oscillating at the step
scale near a max-min optimum where the active domain alternates. Restart r
draws its initial frame from stream r of ``cfg.seed`` (a counter-offset of
the same Philox key), so runs are reproducible and restarts are
independent. Retraction-based descent follows
Absil, Mahony & Sepulchre, *Optimization Algorithms on Matrix Manifolds*
(2008); the update rule is Adam (Kingma & Ba, ICLR 2015).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidKind, InvalidRank, NumericalFailure
from .linalg import (
    Spectrum,
    as_frame,
    haar_frame,
    orthocomplement_frame,
    stiefel_project,
    sym_eigen,
    top_k_frame,
)
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
    mixture,
    pooled_covariance,
    top_k_eigensum,  # noqa: F401 -- benchmarks/spans.py wraps this name
    worst_index,
)
from .rng import make_rng, spawn_seed

__all__ = [
    "SolverConfig",
    "FitResult",
    "Restart",
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
# A reduced covariance with trace at most this gets this much diagonal jitter.
_TRACE_JITTER = 1e-15
# A fit is certified when its gap is at most this times max(1, |objective|).
_DUAL_GAP_RTOL = 1e-9
# The mixture dual takes at most this many Newton steps.
_NEWTON_STEPS = 30
# A Newton step is accepted at the first step length 1, 1/2, 1/4, ... that
# gains at least _ARMIJO of the model's predicted gain; after _HALVINGS
# failed lengths the search stops.
_ARMIJO = 1e-4
_HALVINGS = 6
# The dual is smooth only while lambda_k > lambda_{k+1} of the mixture; the
# search stops once that gap is at most this times lambda_1.
_EIGEN_GAP_RTOL = 1e-10
# Ridge added to the Hessian of the Newton model, relative to the larger of
# its largest diagonal entry and the spread of the gradient, so the simplex
# QP stays strictly convex where the Hessian is singular (at diagonal
# covariances it is zero).
_NEWTON_RIDGE = 1e-9
# h(w) is taken as exact to this times the magnitudes it subtracts (the
# weighted offsets and the top-k eigensum); weight moves below it end the
# search.
_ROUNDING = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Budget, plateau tolerance, restarts and seed of the Stiefel-Adam path.

    The mixture dual that :func:`solve_wcpca` runs first has fixed settings;
    none of these fields reaches it. ``tol_objective`` must be a number
    >= 0; 0 never stops on a plateau, so every restart runs the whole
    ``max_iters`` budget.
    """

    max_iters: int = 2000
    restarts: int = 5
    tol_objective: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInput(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise InvalidInput(f"restarts must be >= 1, got {self.restarts}")
        # NaN fails this comparison too; it would turn the plateau stop off.
        if not self.tol_objective >= 0.0:
            raise InvalidInput(f"tol_objective must be >= 0, got {self.tol_objective}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


class Restart(NamedTuple):
    """One restart's final objective, iterations run and stop reason.

    ``stop`` is ``"plateau"`` when the best objective stalled within the
    tolerance over the plateau window, ``"budget"`` when the iterations ran
    out first.
    """

    objective: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class FitResult:
    """A fitted frame with its objective and solver diagnostics.

    ``active_domains`` holds the indices of domains within 1e-6 of the
    worst-case value at the returned frame. ``restarts`` lists every Adam
    restart's :class:`Restart` in restart order; entry ``restart_index`` is
    the one returned. ``dual_bound`` is the best mixture-dual bound on the
    optimum (a lower bound for the max kinds, an upper bound for Var and
    NormVar) and ``gap`` how far the objective lies from it on the worse
    side, nonnegative up to rounding. Every worst-case fit with k < p
    carries both; they are None for the exact baselines and for k = p. A
    fit certified by the dual reports its Newton steps as
    ``iterations_used``, restart 0 and no restarts. Exact baselines report
    an empty set (pooled/average PCA) or the selected domain (separate PCA),
    zero iterations, restart 0, no restarts and no bound.
    """

    frame: np.ndarray
    objective: float
    active_domains: frozenset[int]
    iterations_used: int
    restart_index: int
    restarts: tuple[Restart, ...] = ()
    dual_bound: float | None = None
    gap: float | None = None


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


def stiefel_adam(v0, cost_and_grad, iters: int, tol: float):
    """Minimize a worst-case cost over frames with orthonormal columns, for a
    batch of starting frames at once; worst-case PCA's fallback.

    ``v0`` is an ``(R, p, k)`` batch of starts, and ``cost_and_grad(v)``
    maps an ``(r, p, k)`` batch to the costs ``(r,)`` and the Euclidean
    gradients ``(r, p, k)`` of each member's active (worst) piece. Each
    iteration keeps every gradient's tangent part, updates the Adam moments
    in place, takes a step whose size anneals geometrically from 1e-2 to
    1e-4 over ``iters``, and retracts the batch with one call of the
    module-level ``stiefel_project`` (the polar factor). Each member keeps
    its own moments and stops once its best cost has improved by less than
    ``tol`` over its last 50 iterations; it then leaves the batch, so the
    loop runs as many iterations as the slowest member. Every member's
    result is bitwise equal to a run of that member alone.

    Returns ``(frames, costs, iterations, plateaued)``, each indexed by
    member: the best frame (possibly the start itself), its cost, the
    iterations run, and whether the plateau rule (rather than the budget)
    stopped the member.
    """
    v = np.asarray(v0, dtype=np.float64)
    count = v.shape[0]
    frames, costs = [None] * count, [0.0] * count
    used, plateaued = [iters] * count, [False] * count
    # Row j of the live state belongs to member live[j]; the arrays are
    # compacted only when a member stops. The per-member bookkeeping is in
    # Python floats and frame views: for a handful of restarts that is
    # cheaper than array calls, and it compares exactly as a lone run does.
    live = list(range(count))
    m = np.zeros_like(v)
    u = np.zeros_like(v)
    cost, g = cost_and_grad(v)
    best_cost, best_v = cost.tolist(), list(v)
    best_hist = deque([best_cost], maxlen=_PLATEAU_WINDOW + 1)
    for t in range(1, iters + 1):
        # The moments must see only the tangential part: the radial component
        # never flips sign, and Adam's coordinatewise normalization would
        # inflate it into a bias that stalls equalized optima off the KKT
        # point (Example-1-type instances expose this).
        vg = v.swapaxes(1, 2) @ g
        g = g - v @ ((vg + vg.swapaxes(1, 2)) / 2.0)
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        u *= _ADAM_BETA2
        u += (1.0 - _ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - _ADAM_BETA1**t)
        uhat = u / (1.0 - _ADAM_BETA2**t)
        step = _STEP_SIZE * 0.01 ** (t / iters)
        v = v - step * mhat / (np.sqrt(uhat) + _ADAM_EPS)
        if not np.isfinite(v).all():
            raise NumericalFailure(f"non-finite iterate at iteration {t}")
        v = stiefel_project(v)
        cost, g = cost_and_grad(v)
        best_cost = best_cost.copy()
        for j, c in enumerate(cost.tolist()):
            if c < best_cost[j]:
                best_cost[j], best_v[j] = c, v[j]
        best_hist.append(best_cost)
        if t < _PLATEAU_WINDOW:
            continue
        stopped = [j for j, old in enumerate(best_hist[0]) if old - best_cost[j] < tol]
        if not stopped:
            continue
        for j in stopped:
            i = live[j]
            frames[i], costs[i], used[i], plateaued[i] = best_v[j], best_cost[j], t, True
        keep = [j for j in range(len(live)) if j not in stopped]
        live, best_v = [live[j] for j in keep], [best_v[j] for j in keep]
        if not live:
            break
        v, g, m, u = v[keep], g[keep], m[keep], u[keep]
        best_hist = deque(([h[j] for j in keep] for h in best_hist), maxlen=_PLATEAU_WINDOW + 1)
        best_cost = best_hist[-1]
    for j, i in enumerate(live):
        frames[i], costs[i] = best_v[j], best_cost[j]
    return np.stack(frames), np.array(costs), np.array(used), np.array(plateaued)


def _certifies(gap: float, objective: float) -> bool:
    """Whether a gap certifies the objective: at most 1e-9 * max(1, |objective|)."""
    return gap <= _DUAL_GAP_RTOL * max(1.0, abs(objective))


def _simplex_qp(hess: np.ndarray, lin: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimize ``y.H y / 2 - lin.y`` over the probability simplex.

    A primal active-set method started at the feasible ``y``; ``hess`` must
    be positive definite. Each pass solves the KKT system on the free
    weights. A free weight the solution drives negative stops the move and
    is fixed at zero; otherwise the fixed weight with the most negative
    multiplier is freed, and when none has one the point is optimal. The
    pass count is capped at 4 E, against cycling in rounding.
    """
    y = y.copy()
    free = y > 0.0
    for _ in range(4 * len(y)):
        idx = np.flatnonzero(free)
        n = idx.size
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = hess[np.ix_(idx, idx)]
        kkt[n, n] = 0.0
        sol = np.linalg.solve(kkt, np.append(lin[idx], 1.0))
        target, mu = sol[:n], sol[n]
        blocked = np.flatnonzero(target < 0.0)
        if blocked.size:
            ratios = y[idx[blocked]] / (y[idx[blocked]] - target[blocked])
            j = int(np.argmin(ratios))
            y[idx] += ratios[j] * (target - y[idx])
            y[idx[blocked[j]]] = 0.0
            y = np.maximum(y, 0.0)
            free[idx[blocked[j]]] = False
            continue
        y = np.zeros_like(y)
        y[idx] = target
        # Freeing weight i lowers the objective iff its multiplier is negative.
        multipliers = np.where(free, 0.0, hess @ y - lin + mu)
        i = int(np.argmin(multipliers))
        if multipliers[i] >= 0.0:
            break
        free[i] = True
    return y


def _simplex_newton(evaluate, hessian, count: int):
    """Maximize a concave dual h over ``count`` simplex weights by damped Newton.

    ``evaluate(w)`` gives a point with ``value`` h(w) (a lower bound on the
    primal optimum), its ``rounding``, the ``grad`` of h, a primal
    ``candidate`` and its ``objective`` (lower is better); ``hessian(point)``
    gives the Hessian of -h, or None where h is not smooth. From uniform
    weights, each step solves the QP of h's second-order model plus a small
    ridge on the simplex (:func:`_simplex_qp`) and backtracks until h gains
    enough (Armijo). The search stops once the best candidate is certified
    against the best bound (:func:`_certifies`), at a flat gradient (w is
    then optimal: h is concave), where h is not smooth, when no step gains,
    or after ``_NEWTON_STEPS`` steps. Returns ``(candidate, bound, steps)``.
    """
    w = np.full(count, 1.0 / count)
    point = evaluate(w)
    best, best_objective, bound, steps = point.candidate, point.objective, point.value, 0
    while not _certifies(best_objective - bound, best_objective):
        spread = float(np.ptp(point.grad))
        if steps == _NEWTON_STEPS or spread == 0.0 or (hess := hessian(point)) is None:
            break
        hess += _NEWTON_RIDGE * max(float(np.max(np.diag(hess))), spread) * np.eye(count)
        move = _simplex_qp(hess, point.grad + hess @ w, w) - w
        slope = float(point.grad @ move)
        if not slope > -point.rounding or np.max(np.abs(move)) <= _ROUNDING:
            break
        for halving in range(_HALVINGS):
            alpha = 0.5**halving
            trial = np.maximum(w + alpha * move, 0.0)
            trial /= trial.sum()
            reached = evaluate(trial)
            if reached.objective < best_objective:
                best, best_objective = reached.candidate, reached.objective
            bound = max(bound, reached.value)
            # Near the optimum h changes below its rounding while the
            # candidates still improve, so a step within the rounding is taken.
            if reached.value >= point.value + _ARMIJO * alpha * slope - point.rounding:
                break
        else:
            break
        w, point = trial, reached
        steps += 1
    return best, bound, steps


class _DualPoint(NamedTuple):
    """The mixture dual at one weight vector (see :func:`_dual_point`)."""

    value: float
    rounding: float
    grad: np.ndarray
    objective: float
    candidate: np.ndarray
    products: np.ndarray
    spectrum: Spectrum


def _dual_point(kind: LossKind, domains: DomainCollection, k: int, eigsums, w) -> _DualPoint:
    """Evaluate the mixture dual ``h(w) = sign * sum_e w_e b_e - s_k(Sigma_w)``.

    ``Sigma_w`` is :func:`losses.mixture` with weights ``w / traces`` for the
    normalized kinds, else ``w``, so domain e enters as ``S_e`` = Sigma_e or
    Sigma_e / Tr(Sigma_e). ``sign`` is -1 and ``b`` zero for Var and NormVar;
    for the other kinds ``b`` holds the traces (the top-k eigensums
    ``eigsums`` for the regret kinds), scaled like ``S_e``. One
    :func:`sym_eigen` of ``Sigma_w`` and one ``domain_losses`` call at its
    top-k frame U give h, the candidate U, ``sign`` times the domain losses
    at U (the gradient of h) and ``sign`` times the worst of them (the
    objective), and the products ``S_e U`` that :func:`_eigensum_hessian`
    needs. ``rounding`` is ``_ROUNDING`` times the magnitudes h subtracts.
    """
    covs, traces = domains.covariances, domains.traces
    per_unit = 1.0 / traces if kind in NORMALIZED_KINDS else np.ones(len(covs))
    sign = -1.0 if kind in MIN_KINDS else 1.0
    if kind in MIN_KINDS:
        offsets = np.zeros(len(covs))
    else:
        offsets = (eigsums if kind in REGRET_KINDS else traces) * per_unit
    spec = sym_eigen(mixture(domains, w * per_unit))
    frame = spec.eigenvectors[:, :k].copy()
    values, products = domain_losses(kind, frame, covs, traces, eigsums)
    shift, eigensum = sign * float(w @ offsets), float(spec.eigenvalues[:k].sum())
    rounding = _ROUNDING * (abs(shift) + abs(eigensum))
    worst = sign * values[worst_index(kind, values)]
    scaled = products * per_unit[:, None, None]
    return _DualPoint(shift - eigensum, rounding, sign * values, worst, frame, scaled, spec)


def _eigensum_hessian(spec: Spectrum, products: np.ndarray, k: int):
    """Hessian in w of ``s_k(sum_e w_e S_e)``, or None where lambda_k = lambda_{k+1}.

    ``spec`` is the spectrum of the mixture and ``products`` the ``(E, p, k)``
    stack of ``S_e U``, with U its top-k frame. Entry ``(a, b)`` is
    ``2 sum_{i<=k<j} (u_i.S_a u_j)(u_i.S_b u_j) / (lambda_i - lambda_j)``
    (Overton & Womersley, *SIAM J. Matrix Anal. Appl.* 1995): the products
    projected on the other eigenvectors, weighted by the eigen-gaps.
    """
    lam = spec.eigenvalues
    if lam[k - 1] - lam[k] <= _EIGEN_GAP_RTOL * lam[0]:
        return None
    coupling = spec.eigenvectors[:, k:].T @ products
    coupling *= np.sqrt(2.0 / (lam[None, :k] - lam[k:, None]))
    return np.einsum("aji,bji->ab", coupling, coupling)


def _mixture_dual(kind: LossKind, domains: DomainCollection, k: int, eigsums):
    """Search the mixture dual of a worst-case PCA problem over simplex weights.

    Runs :func:`_simplex_newton` on :func:`_dual_point` and
    :func:`_eigensum_hessian`; ``eigsums`` are the top-k eigensums for the
    regret kinds, else None. Returns ``(frame, bound, steps)``: the best
    frame (lowest worst-case loss, highest for Var and NormVar), the best
    bound ``sign * h`` and the Newton steps taken.
    """
    # The search runs over the domains in an order fixed by their covariances,
    # so its result does not depend, bit for bit, on the order they come in.
    order = sorted(range(len(domains)), key=lambda e: domains[e].covariance.tobytes())
    domains = DomainCollection(tuple(domains[e] for e in order))
    eigsums = None if eigsums is None else eigsums[order]
    frame, bound, steps = _simplex_newton(
        lambda w: _dual_point(kind, domains, k, eigsums, w),
        lambda point: _eigensum_hessian(point.spectrum, point.products, k),
        len(domains),
    )
    return frame, (-1.0 if kind in MIN_KINDS else 1.0) * bound, steps


def solve_wcpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> FitResult:
    """Solve a worst-case PCA problem, dual first, else by multi-restart Stiefel-Adam.

    :func:`_mixture_dual` runs first, at every p; if it certifies a frame,
    that frame is returned with its bound, its gap, its Newton steps as
    ``iterations_used`` and no restarts. Otherwise ``cfg.restarts``
    independent restarts from Haar-random initial frames (restart r uses
    stream r of ``cfg.seed``) run as one :func:`stiefel_adam` batch and the
    best final objective is kept, the first restart on ties; the fit
    carries the dual's bound and gap. ``cfg.max_iters``, ``restarts``,
    ``tol_objective`` and ``seed`` drive only this Adam path.
    Non-convergence is not an error: the best frame found is returned with
    ``iterations_used == cfg.max_iters``. The degenerate case k = p
    short-circuits to the identity frame, where every objective is constant
    over the manifold.
    """
    kind = as_kind(kind)
    domains = as_collection(domains)
    cfg = cfg or SolverConfig()
    p = domains.p
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    covs, traces = domains.covariances, domains.traces
    eigsums = domains.top_k_eigensums(k) if kind in REGRET_KINDS else None
    # The driver minimizes; Var and NormVar maximize their worst case. The
    # gradient of domain e's loss is scale[e] * Sigma_e V.
    sign = -1.0 if kind in MIN_KINDS else 1.0
    scale = -2.0 / (traces if kind in NORMALIZED_KINDS else np.ones(len(covs)))

    def result(frame, iters, restart, restarts, bound=None):
        values, _ = domain_losses(kind, frame, covs, traces, eigsums)
        worst = float(values[worst_index(kind, values)])
        active = frozenset(int(i) for i in np.flatnonzero(np.abs(values - worst) <= _ACTIVE_TOL))
        gap = None if bound is None else sign * (worst - bound)
        return FitResult(frame, worst, active, iters, restart, restarts, bound, gap)

    if k == p:
        return result(np.eye(p), 0, 0, ())

    frame, bound, steps = _mixture_dual(kind, domains, k, eigsums)
    fit = result(frame, steps, 0, (), bound)
    if _certifies(fit.gap, fit.objective):
        return fit

    # Adam evaluates thousands of batches, so the covariances are stacked once.
    stack = np.stack(covs)

    def cost_and_grad(v):
        values, products = domain_losses(kind, v, stack, traces, eigsums)
        members = np.arange(v.shape[0])
        idx = worst_index(kind, values)
        return sign * values[members, idx], scale[idx, None, None] * products[members, idx]

    v0 = np.stack([haar_frame(p, k, make_rng(cfg.seed, r)) for r in range(cfg.restarts)])
    frames, costs, iters, plateaued = stiefel_adam(
        v0, cost_and_grad, cfg.max_iters, cfg.tol_objective
    )
    restarts = tuple(
        Restart(float(sign * c), int(n), "plateau" if stopped else "budget")
        for c, n, stopped in zip(costs, iters, plateaued)
    )
    best = int(np.argmin(costs))
    return result(frames[best], int(iters[best]), best, restarts, bound)


def _reduced_matrices(kind, domains, basis) -> list[np.ndarray]:
    """Each domain's covariance in the coordinates of ``basis``, symmetrized.

    For NormVar each is divided by its full-space trace Tr(Sigma_e), not the
    reduced one, so a Var solve on them optimizes the original NormVar
    objective. A domain with no variance in the basis, which DomainSpec would
    reject for its zero trace, gets a diagonal jitter.
    """
    out = []
    for d in domains:
        m = basis.T @ (d.covariance @ basis)
        m = (m + m.T) / 2.0
        if kind is LossKind.NORM_VAR:
            m = m / d.trace
        if float(np.trace(m)) <= _TRACE_JITTER:
            m = m + _TRACE_JITTER * np.eye(m.shape[0])
        out.append(m)
    return out


def _rank1_var(domains, matrices, cfg: SolverConfig, seed: int) -> np.ndarray:
    """The rank-1 Var solve on ``matrices``, one per domain of ``domains`` (keeping
    its id, weight and n), with ``cfg`` reseeded to ``seed``; returns the direction."""
    specs = [DomainSpec(id=d.id, covariance=m, weight=d.weight, n=d.n) for d, m in zip(domains, matrices)]
    return solve_wcpca(LossKind.VAR, specs, 1, replace(cfg, seed=seed)).frame[:, 0]


def sequential_minpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> list[np.ndarray]:
    """Greedy variant: pick rank-1 worst-case directions one at a time.

    Direction j is the rank-1 solution of the worst-case problem restricted
    to the orthogonal complement of the directions chosen so far: a Var solve
    by :func:`_rank1_var` on the covariances :func:`_reduced_matrices` gives
    in a basis of that complement (the identity for the first direction).
    Only the Var and NormVar objectives are defined for this scheme. Returns
    the ordered unit vectors; their joint worst-case value can be strictly
    worse than the rank-k solve, which is the point of having both.
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

    def direction(basis, j):
        a = _rank1_var(domains, _reduced_matrices(kind, domains, basis), cfg, spawn_seed(cfg.seed, j + 1))
        u = basis @ a
        return u / np.linalg.norm(u)

    directions = [direction(np.eye(p), 0)]
    for j in range(1, k):
        basis = orthocomplement_frame(np.column_stack(directions), p - j, comp_rng)
        directions.append(direction(basis, j))
    return directions


def order_basis(kind, frame, domains, cfg: SolverConfig | None = None) -> np.ndarray:
    """Reorder a fitted frame so every column prefix is worst-case optimal.

    Working inside the span of ``frame``, repeatedly find and remove the unit
    direction whose removal maximizes the worst-case explained variance of
    what remains. On the unit sphere the removal objective
    ``min_e (Tr(M_e) - a.T M_e a)`` equals ``min_e a.T (Tr(M_e) I - M_e) a``,
    so each removal is a rank-1 Var solve by :func:`_rank1_var` on the PSD
    matrices ``Tr(M_e) I - M_e``, with ``M_e`` from
    :func:`_reduced_matrices` in the current basis. The last direction
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
    comp_rng = make_rng(spawn_seed(cfg.seed, 0))
    removed: list[np.ndarray] = []
    for j in range(b.shape[1], 1, -1):
        removal = [np.trace(m) * np.eye(j) - m for m in _reduced_matrices(kind, domains, b)]
        a = _rank1_var(domains, removal, cfg, spawn_seed(cfg.seed, j))
        removed.append(b @ a)
        b = b @ orthocomplement_frame(a, j - 1, comp_rng)
    return np.column_stack([b[:, 0]] + removed[::-1])
