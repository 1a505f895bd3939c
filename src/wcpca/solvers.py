"""Baselines, the mixture dual and the Grassmann SQP for worst-case subspace
fitting.

The exact baselines (pooled, separate, average-covariance PCA) reduce to
eigendecompositions. The worst-case problems

    maximize  min_e Var(V; Sigma_e)        (Var, NormVar)
    minimize  max_e L(V; Sigma_e)          (RCS, NormRCS, Reg, NormReg)

are solved dual first, with a local minimax SQP as the fallback. Both see
one scaled problem, min_V max_e f_e(V), where f_e is ``sign`` times domain
e's loss from the one kernel :func:`losses.domain_losses` (``sign`` is -1
for Var and NormVar, else 1), and S_e = per_unit_e Sigma_e with per_unit_e
= 1 / Tr(Sigma_e) for the normalized kinds, else 1. Every loss is then
f_e = c_e - <S_e, V V.T>, with c_e constant in V: 0 for Var and NormVar,
else the trace or the top-k eigensum, scaled like S_e.

Every loss is linear in the covariance, so relaxing V V.T to the Fantope
{0 <= P <= I, Tr P = k} and swapping min and max gives a dual over simplex
weights w on the domains: by Ky Fan's maximum principle it is
max_w sum_e w_e c_e - s_k(S_w) for the max kinds and min_w s_k(S_w) for
Var, where s_k sums the k largest eigenvalues of the mixture S_w. That is
the Lagrangian sum_e w_e f_e(U) at the top-k frame U of S_w, so any w gives
a bound on the optimum, and the losses f_e(U) are a supergradient (Overton
& Womersley, *Math. Programming* 1993). Wherever
lambda_k(S_w) > lambda_{k+1}(S_w) the dual is twice differentiable, with a
Hessian taken from the same eigendecomposition (Overton & Womersley,
*SIAM J. Matrix Anal. Appl.* 1995), so :func:`solve_wcpca` ascends it by
damped Newton steps, each a QP over the E simplex weights
(:func:`_simplex_newton`, shared with completion's maxMC R-step); once the
best top-k frame it meets is within 1e-9 (relative) of the best bound, that
frame is optimal and the gap certifies it. The relaxation need not be
tight: its optimum can have rank k+1 (Tantipongpipat et al., NeurIPS 2019),
with lambda_k = lambda_{k+1} at the optimal weights, and then the gap stays
open.

Each dual point costs one p x p ``eigh``. Where the domains' spectra drop
after their top 2k eigenvalues and 2kE < p, :func:`solve_wcpca` first runs
the same Newton search on the Rayleigh-Ritz compression of the dual: the
2kE x 2kE matrices Q.T S_e Q, with Q the top 2kE eigenvectors of the
uniform mixture and the full-space constants c_e, so a reduced frame U has
the full-space losses of Q U. The compressed dual overestimates h (Cauchy
interlacing), so its bound certifies nothing; only its weights are kept,
as the start of the full-space search, whose points alone give the bound
and the certificate. This follows the subspace framework for eigenvalue
optimization of Kangal, Meerbergen, Mengi & Michiels (*SIAM J. Matrix
Anal. Appl.* 2018), which solves such problems on small Rayleigh-Ritz
compressions and keeps the full-size decompositions for the last steps.

:func:`solve_wcpca` runs the dual first on every worst-case solve, at every
p. An uncertified dual falls back to :func:`_grassmann_sqp`, an epigraph
SQP for finite minimax (Han, *Math. Programming* 1981) on the Grassmann
manifold (Obara, Okuno & Takeda, *SIAM J. Optim.* 2022). At a frame V with
multipliers w, the QP of one step, min t + <Z, H Z>/2 over horizontal Z
subject to f_e + <G_e, Z> <= t, has as its dual the simplex QP
max_w w.f - w.M w/2 of :func:`_simplex_qp`, with G_e the horizontal
gradients and M_ef = <G_e, H^-1 G_f>. H, the Lagrangian's Hessian, is
diagonal in the eigenbases of V.T S_w V and of S_w compressed to the
complement of V, with entries 2 (theta_j - mu_i) (Edelman, Arias & Smith,
*SIAM J. Matrix Anal. Appl.* 1998); the step takes their magnitudes,
floored. The step is retracted by ``stiefel_project`` (the polar factor)
and accepted by an Armijo search on the max. A run stops at a KKT point,
with w its multipliers, once the QP's predicted decrease is within the
tolerance. Run 0 starts from the dual's frame and run r + 1 from the Haar
frame of stream r of ``cfg.seed`` (a counter-offset of the same Philox
key), for r < ``cfg.restarts``, so runs are reproducible and independent.
The runs advance together, one stacked numpy call of each kind per
iteration (the simplex QPs too), so the call overhead is paid once per
iteration rather than once per run; each run keeps its own multipliers,
line search and stop, with the bits it has when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidKind, InvalidRank
from .linalg import haar_frame, orthonormal_frame, stiefel_project, top_k_frame
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
)
from .rng import SEED_LIMIT, make_rng

__all__ = [
    "SolverConfig",
    "FitResult",
    "Restart",
    "pool_pca",
    "sep_pca",
    "avgcov_pca",
    "solve_wcpca",
    "sequential_minpca",
    "order_basis",
]

# Domains within this absolute gap of the worst-case value count as active.
_ACTIVE_TOL = 1e-6
# A reduced covariance with trace at most this gets this much diagonal jitter.
_TRACE_JITTER = 1e-15
# A fit is certified when its gap is at most this times max(1, |objective|).
_DUAL_GAP_RTOL = 1e-9
# The mixture dual takes at most this many Newton steps.
_NEWTON_STEPS = 30
# A Newton or SQP step is accepted at the first step length 1, 1/2, 1/4, ...
# that gains at least _ARMIJO of the model's predicted gain; after _HALVINGS
# failed lengths the search stops.
_ARMIJO = 1e-4
_HALVINGS = 6
# The dual is smooth only while lambda_k > lambda_{k+1} of the mixture; the
# search stops once that gap is at most this times lambda_1.
_EIGEN_GAP_RTOL = 1e-10
# Ridge added to the Hessian of the Newton model, relative to the larger of
# its largest diagonal entry and the spread of the gradient, so the simplex
# QP stays strictly convex where the Hessian is singular (at diagonal
# covariances it is zero). The SQP adds it to M relative to M's largest
# diagonal entry, centred on the current multipliers as in the Newton step,
# so it damps their moves without shifting the point where they settle.
_NEWTON_RIDGE = 1e-9
# The SQP's Hessian entries |2 (theta_j - mu_i)| are floored at this times
# the largest |theta|, |mu|: where S_w is a multiple of I on the relevant
# block every entry is 0.
_HESSIAN_FLOOR = 1e-3
# The mixture dual's warm start compresses the domains onto the top
# _RITZ_PER_KE * k * E eigenvectors of the uniform mixture (see _ritz_start).
_RITZ_PER_KE = 2
# h(w) is taken as exact to this times the magnitudes it adds and subtracts
# (the weighted losses and twice the top-k eigensum); weight moves below it
# end the search.
_ROUNDING = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Budget, tolerance, restarts and seed of the SQP fallback.

    The mixture dual that :func:`solve_wcpca` runs first has fixed settings;
    none of these fields reaches it. ``max_iters`` is the SQP budget of each
    run. ``tol_objective`` must be a number >= 0: a run stops at a KKT point
    once the QP's predicted decrease is at most ``tol_objective`` times
    max(1, |objective|), so 0 runs until a step stalls or the budget ends.
    ``restarts`` is the number of Haar-random starts run besides the dual's
    frame, and ``seed`` draws them. All ``restarts + 1`` runs advance
    together, so each costs memory while it runs: about three p x p arrays
    at the SQP's peak (S_w, the complete QR factor of its frame and a
    product with the frame's complement). An open fit at p = 60 with E = 5
    peaks at about 20 p x p arrays with the default five restarts, and at
    about 7 with one. The greedy routines pass the config unchanged to
    each rank-1 solve, so ``seed`` reaches them only through the SQP
    restarts of a rank-1 solve the dual leaves open.
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
        # NaN fails this comparison too; it would turn the KKT stop off.
        if not self.tol_objective >= 0.0:
            raise InvalidInput(f"tol_objective must be >= 0, got {self.tol_objective}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise InvalidInput(f"seed must lie in [0, 2**128), got {self.seed}")


class Restart(NamedTuple):
    """One SQP run's final objective, iterations run and stop reason.

    ``stop`` is ``"kkt"`` when the QP's predicted decrease fell within the
    tolerance (or every horizontal gradient vanished), ``"stalled"`` when no
    step length passed the line search, and ``"budget"`` when the iterations
    ran out first.
    """

    objective: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class FitResult:
    """A fitted frame with its objective and solver diagnostics.

    ``active_domains`` holds the indices of domains within 1e-6 of the
    worst-case value at the returned frame. ``restarts`` lists every SQP
    run's :class:`Restart`: run 0 starts at the dual's frame, run r + 1 at
    the Haar frame of stream r; entry ``restart_index`` is the one returned
    and ``iterations_used`` its iterations. ``dual_bound`` is the best
    mixture-dual bound on the optimum (a lower bound for the max kinds, an
    upper bound for Var and NormVar) and ``gap`` how far the objective lies
    from it on the worse side, nonnegative up to rounding. Every worst-case
    fit with k < p carries both; they are None for the exact baselines and
    for k = p. A fit certified by the dual reports its full-space Newton
    steps as ``iterations_used`` (0 when the warm start's weights certify at
    once; the compressed dual's steps are not counted), restart 0 and no
    restarts. Exact baselines report an empty set (pooled/average PCA) or
    the selected domain (separate PCA), zero iterations, restart 0, no
    restarts and no bound.
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
    (explained,), _ = domain_losses(LossKind.VAR, frame, [sigma], None, None)
    return FitResult(frame, float(explained), frozenset(), 0, 0)


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


def _certifies(gap: float, objective: float) -> bool:
    """Whether a gap certifies the objective: at most 1e-9 * max(1, |objective|)."""
    return gap <= _DUAL_GAP_RTOL * max(1.0, abs(objective))


def _simplex_qp(hess: np.ndarray, lin: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimize ``y.H y / 2 - lin.y`` over the probability simplex, for a stack of problems.

    ``hess`` is an ``(R, E, E)`` stack of positive definite matrices, and
    ``lin`` and the feasible starts ``y`` (never written) are ``(R, E)``.
    Each problem runs a primal active-set method, and each pass solves every
    problem's KKT system, of size E + 1, in one stacked ``solve``: a fixed
    weight keeps its row and column of the identity and a zero right-hand
    side. A free weight the solution drives negative stops the move and is
    fixed at zero (the first of the smallest step ratios); otherwise the
    fixed weight with the most negative multiplier is freed. A solved
    problem re-solves the same system on its next pass and neither fixes
    nor frees a weight, so it keeps the bits it has when solved alone; the
    loop ends once no problem fixes or frees one, or after 4 E passes
    (against cycling in rounding).
    """
    count = y.shape[1]
    rows = np.arange(len(y))
    # the bordered KKT matrices [[H, 1], [1.T, 0]] and right-hand sides [lin, 1]
    bordered = np.ones((len(y), count + 1, count + 1))
    bordered[:, :count, :count] = hess
    bordered[:, count, count] = 0.0
    rhs = np.concatenate([lin, np.ones((len(y), 1))], axis=1)
    unit = np.eye(count + 1, dtype=bool)
    # the free weights, and the multiplier of the sum, which is always free
    free = np.concatenate([y > 0.0, np.ones((len(y), 1), dtype=bool)], axis=1)
    for _ in range(4 * count):
        kkt = np.where(free[:, :, None] & free[:, None, :], bordered, unit)
        sol = np.linalg.solve(kkt, np.where(free, rhs, 0.0)[..., None])[..., 0]
        f = free[:, :count]
        target, mu = np.where(f, sol[:, :count], 0.0), sol[:, count]
        blocked = f & (target < 0.0)
        hit = blocked.any(axis=1)
        ratios = np.where(blocked, y / np.where(blocked, y - target, 1.0), np.inf)
        j = np.argmin(ratios, axis=1)
        step = np.where(hit, ratios[rows, j], 0.0)[:, None] * (target - y)
        moved = np.maximum(y + step, 0.0)
        moved[rows, j] = 0.0
        # Freeing weight i lowers the objective iff its multiplier is negative.
        multipliers = np.where(f, 0.0, (hess @ target[..., None])[..., 0] - lin + mu[:, None])
        i = np.argmin(multipliers, axis=1)
        freeing = ~hit & ~(multipliers[rows, i] >= 0.0)
        y = np.where(hit[:, None], moved, target)
        if not (hit | freeing).any():
            break
        free[hit, j[hit]] = False
        free[freeing, i[freeing]] = True
    return y


class _DualPoint(NamedTuple):
    """A minimax dual h at one simplex weight vector w (see :func:`_simplex_newton`).

    ``value`` is h(w), a lower bound on the primal optimum, exact to
    ``rounding``. ``grad``, the gradient of h, holds the losses of the
    primal ``candidate``, whose objective is their max. ``hessian()`` gives
    the Hessian of -h, or None where h is not smooth. Both minimax duals
    give these points: :func:`_dual_point` and ``completion._max_r_dual``.
    """

    value: float
    rounding: float
    grad: np.ndarray
    candidate: np.ndarray
    hessian: Callable[[], np.ndarray | None]


def _simplex_newton(evaluate, start: np.ndarray):
    """Maximize a concave dual h over simplex weights by damped Newton.

    ``evaluate(w)`` gives the :class:`_DualPoint` of h at w. From the
    simplex weights ``start``, each step solves the QP of h's second-order
    model plus a small ridge on the simplex (:func:`_simplex_qp`, on a stack
    of one) and backtracks until h gains enough (Armijo). The search stops
    once the best point's objective ``max(grad)`` is certified against the
    best bound (:func:`_certifies`), at a flat gradient (w is then optimal:
    h is concave), where h is not smooth, when no step gains, or after
    ``_NEWTON_STEPS`` steps. Returns ``(point, weights, bound, steps)``: the
    point with the lowest objective (the first on ties), the weights it was
    evaluated at (``start`` when no step improved on it), the best bound and
    the steps taken.
    """
    w = start
    best = point = evaluate(w)
    best_w, bound, steps = w, point.value, 0
    while not _certifies(float(best.grad.max()) - bound, float(best.grad.max())):
        spread = float(np.ptp(point.grad))
        if steps == _NEWTON_STEPS or spread == 0.0 or (hess := point.hessian()) is None:
            break
        hess += _NEWTON_RIDGE * max(float(np.max(np.diag(hess))), spread) * np.eye(len(w))
        move = _simplex_qp(hess[None], (point.grad + hess @ w)[None], w[None])[0] - w
        slope = float(point.grad @ move)
        if not slope > -point.rounding or np.max(np.abs(move)) <= _ROUNDING:
            break
        for halving in range(_HALVINGS):
            alpha = 0.5**halving
            trial = np.maximum(w + alpha * move, 0.0)
            trial /= trial.sum()
            reached = evaluate(trial)
            if reached.grad.max() < best.grad.max():
                best, best_w = reached, trial
            bound = max(bound, reached.value)
            # Near the optimum h changes below its rounding while the
            # candidates still improve, so a step within the rounding is taken.
            if reached.value >= point.value + _ARMIJO * alpha * slope - point.rounding:
                break
        else:
            break
        w, point = trial, reached
        steps += 1
    return best, best_w, bound, steps


def _dual_point(losses, mixture_of, k: int, w) -> _DualPoint:
    """Evaluate the mixture dual h(w): the Lagrangian ``w.f(U)`` at its minimizer U.

    ``losses(V)`` and ``mixture_of(w)`` are the scaled problem of
    :func:`solve_wcpca` (on the domains or on :func:`_ritz_start`'s
    compressed matrices): the losses f with the products ``S_e V``, and
    ``S_w``. U is the top-k frame of ``S_w``, from one ``eigh`` of ``S_w``
    itself (exactly symmetric and finite), reordered descending into a copy
    as :func:`sym_eigen` does, so the Hessian sums in the same order.
    By Ky Fan U minimizes ``w.f`` over the Fantope, so h(w) = ``w.f(U)`` =
    ``w.c - s_k(S_w)``. The point carries h, U, f(U) (the gradient of h)
    and :func:`_eigensum_hessian` bound to the eigenvalues and the
    couplings ``u_j.S_e U`` of the other eigenvectors u_j, not the p x p
    eigenvectors. h adds the terms ``w_e c_e`` and subtracts ``s_k``, and
    ``|c_e| <= |f_e| + <S_e, U U.T>``, so ``rounding`` is ``_ROUNDING``
    times ``w.|f| + 2 s_k``.
    """
    lam, q = np.linalg.eigh(mixture_of(w))
    lam, q = lam[::-1].copy(), q[:, ::-1].copy()
    frame = q[:, :k].copy()
    f, products = losses(frame)
    coupling = q[:, k:].T @ products
    rounding = _ROUNDING * (float(w @ np.abs(f)) + 2.0 * abs(float(lam[:k].sum())))
    return _DualPoint(float(w @ f), rounding, f, frame, partial(_eigensum_hessian, lam, coupling, k))


def _eigensum_hessian(lam: np.ndarray, coupling: np.ndarray, k: int):
    """Hessian in w of ``s_k(sum_e w_e S_e)``, or None where lambda_k = lambda_{k+1}.

    ``lam`` is the mixture's descending spectrum and ``coupling`` the
    ``(E, p - k, k)`` stack of ``u_j.S_e u_i`` over its top-k eigenvectors
    u_i and the others u_j (see :func:`_dual_point`). Entry ``(a, b)`` is
    ``2 sum_{i<=k<j} (u_i.S_a u_j)(u_i.S_b u_j) / (lambda_i - lambda_j)``
    (Overton & Womersley, *SIAM J. Matrix Anal. Appl.* 1995).
    """
    if lam[k - 1] - lam[k] <= _EIGEN_GAP_RTOL * lam[0]:
        return None
    coupling = coupling * np.sqrt(2.0 / (lam[None, :k] - lam[k:, None]))
    return np.einsum("aji,bji->ab", coupling, coupling)


def _ritz_start(domains: DomainCollection, per_unit, k: int, problem_on) -> np.ndarray:
    """Start weights for the mixture dual: its Rayleigh-Ritz warm start, or uniform.

    The Ritz basis Q is the top m = ``_RITZ_PER_KE * k * E`` eigenvectors
    of the uniform mixture of the S_e, from one ``eigh``, of which only the
    p x m columns are kept. The start is the weights of the best candidate
    of :func:`_simplex_newton` on the dual of the m x m Q.T S_e Q (Var's
    :func:`_reduced_matrices`), whose ``problem_on(matrices)`` has the
    full-space traces and eigensums, so a reduced frame U has the losses of
    Q U. Q and the compressed matrices die with this call.

    The warm start applies when E > 1, m < p and
    ``E max_e lambda_{2k+1}(S_e) <= min_e lambda_k(S_e)``, read from the
    domains' kept spectra; otherwise the weights are uniform. Every mixture
    S_w has ``lambda_k(S_w) >= min_e lambda_k(S_e) / E`` and takes at most
    ``max_e lambda_{2k+1}(S_e)`` from outside the domains' top-2k
    eigenspaces, whose span Q approximates; so the rule asks that no
    mixture's top-k eigenspace leans on what Q leaves out. On flat spectra
    it fails.
    """
    count, p = len(domains), domains.p
    uniform = np.full(count, 1.0 / count)
    m = _RITZ_PER_KE * k * count
    if count == 1 or m >= p:
        return uniform
    spectra = np.array([d.eigenvalues for d in domains]) * per_unit[:, None]
    if count * spectra[:, _RITZ_PER_KE * k].max() > spectra[:, k - 1].min():
        return uniform
    q = np.linalg.eigh(mixture(domains, uniform * per_unit))[1][:, p - m :].copy()
    losses, mixture_of = problem_on(_reduced_matrices(LossKind.VAR, domains, q))
    return _simplex_newton(lambda w: _dual_point(losses, mixture_of, k, w), uniform)[1]


class _SqpRun(NamedTuple):
    """One run of :func:`_grassmann_sqp`: its last frame, the iterations it
    ran, its stop reason and the scaled losses f at that frame."""

    frame: np.ndarray
    iterations: int
    stop: str
    losses: np.ndarray


def _grassmann_sqp(losses, mixture_of, starts, iters: int, tol: float) -> list[_SqpRun]:
    """Minimize ``max_e f_e(V)`` from every frame of ``starts``, in one loop.

    ``starts`` is an ``(R, p, k)`` stack of frames, one per run. The scaled
    problem of :func:`solve_wcpca` gives the losses f and products ``S_e V``
    of a stack of frames, ``losses(V)``, and the mixtures ``S_w`` of a stack
    of weights, ``mixture_of(w)``. Every run has its own multipliers w, from
    uniform, and each iteration advances the runs still going together, one
    stacked call of each kind: it takes the eigenbases U of V.T S_w V
    (eigenvalues theta, the matrix summed from the products ``V.T S_e V``)
    and W of S_w compressed to the complement V_perp of V (eigenvalues mu),
    the horizontal gradients ``G_e = -2 (V_perp W).T S_e V U`` and the
    Hessian entries ``h = |2 (theta_j - mu_i)|``, floored at
    ``_HESSIAN_FLOOR`` times the largest |theta|, |mu| (> 0, as Tr S_w > 0).
    The new w solve the simplex QP ``max_w w.f - w.M w / 2`` with
    ``M_ef = sum G_e G_f / h`` (:func:`_simplex_qp`, with the ridge centred
    on the current w; a unit ridge where every G_e is exactly 0, so M = 0),
    and the step is ``Z = -V_perp W (sum_e w_e G_e / h) U.T``. A run is at a
    KKT point when its gradients are all 0 or the predicted decrease
    ``F - (w.f - w.M w / 2)`` is at most ``tol * max(1, |F|)``; the others
    try step lengths 1, 1/2, ... retracted by ``stiefel_project``, each
    taking the first that passes Armijo on its max against the predicted
    decrease. One site at the end of the iteration records the runs that
    stop: each that did not move, as ``"kkt"`` or as ``"stalled"`` (no
    length passed within ``_HALVINGS``), and on iteration ``iters`` each
    that did, as ``"budget"``; the others go on. Every call works slice by
    slice, so a run has the same bits whichever runs share its loop.
    Returns one :class:`_SqpRun` per start, in order. At its peak the loop
    holds about three p x p arrays per run still going: S_w, the complete QR
    factor of V and S_w times the complement.
    """
    _, p, k = starts.shape
    out: list = [None] * len(starts)
    # the runs still going: their indices, frames, multipliers, losses, S_e V
    idx, v = np.arange(len(starts)), starts.copy()
    f, products = losses(v)
    count = f.shape[1]
    w = np.full((len(starts), count), 1.0 / count)
    for it in range(1, iters + 1):
        n = len(idx)
        top = f.max(axis=1)
        s_w = mixture_of(w)
        q = np.linalg.qr(v, "complete")[0]
        vsv = (v.swapaxes(-1, -2)[:, None] @ products).reshape(n, count, k * k)
        theta, u = np.linalg.eigh((w[:, None, :] @ vsv).reshape(n, k, k))
        perp = q[..., k:]
        # S_w and each product die once read: about three p x p arrays a run
        compressed = s_w @ perp
        del s_w
        compressed = perp.swapaxes(-1, -2) @ compressed
        mu, rot = np.linalg.eigh(compressed)
        del compressed
        perp = perp @ rot
        del q, rot
        grads = -2.0 * (perp.swapaxes(-1, -2)[:, None] @ products) @ u[:, None]
        stationary = ~grads.reshape(n, -1).any(axis=1)
        h = np.abs(2.0 * (theta[:, None, :] - mu[:, :, None]))
        floor = _HESSIAN_FLOOR * np.maximum(np.abs(theta).max(axis=1), np.abs(mu).max(axis=1))
        scaled = grads / np.maximum(h, floor[:, None, None])[:, None]
        m = grads.reshape(n, count, -1) @ scaled.reshape(n, count, -1).swapaxes(-1, -2)
        ridge = np.where(stationary, 1.0, _NEWTON_RIDGE * np.diagonal(m, axis1=1, axis2=2).max(axis=1))
        w = _simplex_qp(m + ridge[:, None, None] * np.eye(count), f + ridge[:, None] * w, w)
        gain = w[:, None, :] @ f[:, :, None] - 0.5 * (w[:, None, :] @ m @ w[:, :, None])
        predicted = top - gain[:, 0, 0]
        kkt = stationary | (predicted <= tol * np.maximum(1.0, np.abs(top)))
        z = (w[:, None, :] @ scaled.reshape(n, count, -1)).reshape(n, p - k, k)
        z = -perp @ z @ u.swapaxes(-1, -2)
        # stale arrays of one iteration would hold memory through the next
        del perp, grads, scaled
        searching, moved = np.flatnonzero(~kkt), np.zeros(n, dtype=bool)
        for halving in range(_HALVINGS):
            if not searching.size:
                break
            alpha = 0.5**halving
            trial = stiefel_project(v[searching] + alpha * z[searching])
            trial_f, trial_products = losses(trial)
            passed = trial_f.max(axis=1) <= top[searching] - _ARMIJO * alpha * predicted[searching]
            took = searching[passed]
            v[took], f[took], products[took] = trial[passed], trial_f[passed], trial_products[passed]
            moved[took] = True
            searching = searching[~passed]
            del trial, trial_f, trial_products
        if (stopped := ~moved | (it == iters)).any():
            for j in np.flatnonzero(stopped):
                stop = "kkt" if kkt[j] else "budget" if moved[j] else "stalled"
                out[idx[j]] = _SqpRun(v[j].copy(), it, stop, f[j].copy())
            idx, v, w, f, products = (x[~stopped] for x in (idx, v, w, f, products))
            if not len(idx):
                break
    return out


def solve_wcpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> FitResult:
    """Solve a worst-case PCA problem, dual first, else by a multi-start SQP.

    Both searches read one scaled problem through two closures: ``losses(V)``,
    one :func:`losses.domain_losses` call giving ``sign`` times the losses (f)
    and ``per_unit`` times the products ``Sigma_e V`` (``S_e V``), and
    ``mixture_of(w)``, the :func:`losses.mixture` at ``w * per_unit``. The
    mixture dual runs first, at every p: :func:`_simplex_newton` on
    :func:`_dual_point`, from the weights of :func:`_ritz_start`: uniform,
    or those the same search reaches on the domains compressed to a
    Rayleigh-Ritz basis. If it certifies its best point's frame (read with
    the losses that point holds), the frame is returned with its bound, gap,
    full-space Newton steps as ``iterations_used`` and no restarts. Otherwise
    :func:`_grassmann_sqp` runs from the dual's frame (run 0) and from
    ``cfg.restarts`` Haar-random frames (run r + 1 uses stream r of
    ``cfg.seed``), all in one loop, each for at most ``cfg.max_iters``
    iterations with tolerance ``cfg.tol_objective``, and the best final
    objective is kept, the first run on ties; each run's objective and
    active domains are read from the losses its last iteration holds. The
    fit carries every run's :class:`Restart` and the dual's bound and gap.
    The config fields drive only this SQP path. Non-convergence is not an
    error: a run that ends on its budget still returns its frame. Both
    searches see the domains in an order fixed by their covariances, so the
    result does not depend, bit for bit, on the order they come in. The
    degenerate case k = p short-circuits to the identity frame, where every
    objective is constant over the manifold.
    """
    kind = as_kind(kind)
    domains = as_collection(domains)
    cfg = cfg or SolverConfig()
    p = domains.p
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    order = sorted(range(len(domains)), key=lambda e: domains[e].covariance.tobytes())
    domains = DomainCollection(tuple(domains[e] for e in order))
    covs, traces = domains.covariances, domains.traces
    eigsums = domains.top_k_eigensums(k) if kind in REGRET_KINDS else None
    sign = -1.0 if kind in MIN_KINDS else 1.0
    per_unit = 1.0 / traces if kind in NORMALIZED_KINDS else np.ones(len(domains))

    def problem_on(matrices):
        # matrices: the covariances, or the compressed ones of the warm start
        def losses(v):
            values, products = domain_losses(kind, v, matrices, traces, eigsums)
            return sign * values, products * per_unit[:, None, None]

        return losses, lambda w: mixture(matrices, w * per_unit)

    losses, mixture_of = problem_on(covs)

    def result(frame, f, iters, restart, restarts, bound=None):
        top = float(f.max())
        active = frozenset(order[i] for i in np.flatnonzero(top - f <= _ACTIVE_TOL))
        fit = FitResult(frame, sign * top, active, iters, restart, restarts)
        return fit if bound is None else replace(fit, dual_bound=sign * bound, gap=top - bound)

    if k == p:
        return result(np.eye(p), losses(np.eye(p))[0], 0, 0, ())

    start = _ritz_start(domains, per_unit, k, problem_on)
    dual, _, bound, steps = _simplex_newton(lambda w: _dual_point(losses, mixture_of, k, w), start)
    fit = result(dual.candidate, dual.grad, steps, 0, (), bound)
    if _certifies(fit.gap, fit.objective):
        return fit

    starts = np.stack([dual.candidate] + [haar_frame(p, k, make_rng(cfg.seed, r)) for r in range(cfg.restarts)])
    runs = _grassmann_sqp(losses, mixture_of, starts, cfg.max_iters, cfg.tol_objective)
    tops = [float(run.losses.max()) for run in runs]
    restarts = tuple(Restart(sign * top, run.iterations, run.stop) for top, run in zip(tops, runs))
    best = int(np.argmin(tops))
    run = runs[best]
    return result(run.frame, run.losses, run.iterations, best, restarts, bound)


def _reduced_matrices(kind, domains, basis) -> list[np.ndarray]:
    """Each domain's covariance in the coordinates of ``basis``, symmetrized.

    For NormVar each is divided by its full-space trace Tr(Sigma_e), not the
    reduced one, so a Var solve on them optimizes the original NormVar
    objective. A domain with no variance in the basis, which DomainSpec would
    reject for its zero trace, gets a diagonal jitter; :func:`_ritz_start`,
    which also compresses through it, already excludes one by its rule.
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


def _peel(kind, domains, basis, steps: int, objective, cfg: SolverConfig):
    """Run ``steps`` greedy rank-1 Var solves from ``basis``.

    Each step solves rank-1 Var, with ``cfg`` unchanged, on ``objective`` of
    the :func:`_reduced_matrices` in ``basis``, one per domain (keeping its
    id, weight and n). It keeps ``basis @ a`` and shrinks the basis by the
    complete QR complement of ``a``, drawing no random number. Returns the
    kept directions and the last basis.
    """
    chosen = []
    for _ in range(steps):
        matrices = objective(_reduced_matrices(kind, domains, basis))
        specs = [DomainSpec(id=d.id, covariance=m, weight=d.weight, n=d.n) for d, m in zip(domains, matrices)]
        a = solve_wcpca(LossKind.VAR, specs, 1, cfg).frame
        chosen.append(basis @ a[:, 0])
        basis = basis @ np.linalg.qr(a, "complete")[0][:, 1:]
    return chosen, basis


def sequential_minpca(kind, domains, k: int, cfg: SolverConfig | None = None) -> list[np.ndarray]:
    """Greedy variant: pick rank-1 worst-case directions one at a time.

    Direction j is the rank-1 solution of the worst-case problem restricted
    to the orthogonal complement of the directions chosen so far, a Var
    solve that :func:`_peel` runs k times from the identity, with
    deterministic QR complements. Only the Var and NormVar objectives are
    defined for this scheme. Returns the ordered unit vectors; their joint
    worst-case value can be strictly worse than the rank-k solve, which is
    the point of having both.
    """
    kind = as_kind(kind)
    if kind not in MIN_KINDS:
        raise InvalidKind(f"sequential variant is defined for var and norm-var, got {kind.value}")
    domains = as_collection(domains)
    if not 1 <= k <= domains.p:
        raise InvalidRank(f"k must be in 1..{domains.p}, got {k}")
    return _peel(kind, domains, np.eye(domains.p), k, lambda matrices: matrices, cfg or SolverConfig())[0]


def order_basis(kind, frame, domains, cfg: SolverConfig | None = None) -> np.ndarray:
    """Reorder an orthonormal frame so every column prefix is worst-case optimal.

    Working inside the span of ``frame``, repeatedly find and remove the unit
    direction whose removal maximizes the worst-case explained variance of
    what remains. On the unit sphere the removal objective
    ``min_e (Tr(M_e) - a.T M_e a)`` equals ``min_e a.T (Tr(M_e) I - M_e) a``,
    so :func:`_peel` runs k - 1 rank-1 Var solves from the frame, with
    deterministic QR complements, on the PSD matrices ``Tr(M_e) I - M_e``,
    with ``M_e`` from :func:`_reduced_matrices` in the current basis. The
    last direction standing is the best single direction in the span and
    comes first; the direction removed first needed the least and comes
    last. The output spans the same subspace as the input.
    """
    kind = as_kind(kind)
    if kind not in MIN_KINDS:
        raise InvalidKind(f"basis ordering is defined for var and norm-var, got {kind.value}")
    domains = as_collection(domains)
    b = orthonormal_frame(frame)
    if b.shape[0] != domains.p:
        raise InvalidInput(f"frame rows {b.shape[0]} do not match domain dimension {domains.p}")
    removal = lambda matrices: [np.trace(m) * np.eye(len(m)) - m for m in matrices]  # noqa: E731
    removed, b = _peel(kind, domains, b, b.shape[1] - 1, removal, cfg or SolverConfig())
    return np.column_stack([b[:, 0]] + removed[::-1])
