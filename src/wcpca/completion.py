"""Matrix completion across domains with a shared orthonormal right factor.

Two alternating-minimization fits are provided. Both factor each domain's
partially observed matrix as ``X_e ~ L_e R.T`` with one shared p x k right
factor ``R`` constrained to orthonormal columns. Each round computes the
per-domain mean squared errors ``f_e`` on observed entries once; the fits
differ in how the R-step weighs them and in how they are aggregated. Every
observation mask is boolean (True = observed): :class:`MaskedDomain` stores
its mask as ``bool``, one byte per cell, and the kernels read it as is.

* :func:`fit_pool_mc` weighs them by the sample shares ``w_e = n_e / n``
  and minimizes that average, the pooled squared error over all observed
  entries.
* :func:`fit_max_mc` minimizes ``max_e f_e``, the largest weighted average
  over the simplex; its R-update finds the weights by worst-case PCA's Newton
  loop (``solvers._simplex_newton``) on the R-step's dual, whose points are
  ``solvers._DualPoint``s as the PCA dual's are; the gap certifies the step.

Both run one alternation loop (R-update, then the exact per-row L-update)
whose budgets are module constants, not options: at most 100 rounds, and a
stop once a round gains less than 1e-4 (a round that raises the objective
stops it too, and is discarded). The loop starts from the top-k right
singular subspace of the zero-filled data, taken from the eigenvectors of
its p x p Gram, which is summed one domain at a time in one buffer of the
largest domain's size: the start forms neither an n x p stack nor an
n x p SVD factor.
A column that no domain observes says nothing about ``R``: the loop drops
it before the start and gives it an exact-zero row of the returned
right factor, so ``k`` may not exceed the number of observed columns.

Both R-updates are the one weighted per-column least squares of
:func:`_max_r_dual`: at weights w, row j of R solves the k x k system
``sum_e (w_e / n_e) H_ej r_j = sum_e (w_e / n_e) b_ej`` through the
pseudoinverse of its Gram at rcond 1e-10. A rank-deficient column (say one
observed in fewer than k rows) thus takes the minimum-norm solution, and a
never-observed one a zero row, in the pooled fit as in the max fit; no
column problem goes through ``lstsq``. The row problems (the L-update,
:func:`inductive_ols`, :func:`ols_subset_stability_check`) go through the
one routine :func:`_solve_masked`: every row's k x k normal equations are
formed with one matrix product and solved in one batch, and only rows whose
Gram matrix is ill-conditioned fall back to the exact minimum-norm ``lstsq``.

After either R-update the raw solution is replaced by its polar factor;
the L-update that follows refits every ``L_e`` to it. New rows are
reconstructed with :func:`inductive_ols`, and the incoherence machinery
(:func:`incoherence`, :func:`missingness_budget`,
:func:`ols_subset_stability_check`) quantifies how much masking a learned
factor tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidRank, NoObservations
from .linalg import orthonormal_frame, stiefel_project  # noqa: F401 -- benchmarks/spans.py wraps stiefel_project
from .solvers import _ROUNDING, _DualPoint, _simplex_newton

__all__ = [
    "MaskedDomain",
    "MaskedDataset",
    "CompletionModel",
    "IncoherenceReport",
    "inductive_ols",
    "fit_pool_mc",
    "fit_max_mc",
    "incoherence",
    "missingness_budget",
    "ols_subset_stability_check",
]

_LSTSQ_RCOND = 1e-10
# A k x k Gram with lambda_min <= _GRAM_RCOND * lambda_max is solved by the
# exact lstsq instead: its design's singular values then span more than
# 1e3, where the normal equations lose digits and rank may be deficient.
_GRAM_RCOND = 1e-6
# Round budget of the alternation, and the least objective decrease that
# counts as progress.
_MAX_ROUNDS = 100
_ROUND_TOL = 1e-4


@dataclass(frozen=True)
class MaskedDomain:
    """One domain's data matrix and boolean observation mask (True = observed).

    ``x`` must be finite everywhere; positions where the mask is False are
    simply ignored by the fits (loaders fill unobserved cells with 0, while
    evaluation datasets may carry ground truth there). The mask may come in
    as any binary-valued array (bool, or integers or floats that are all 0
    or 1) and is stored as a ``bool`` copy, one byte per cell. Every row
    needs at least one observed entry.
    """

    id: str
    x: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64, copy=True)
        given = np.asarray(self.mask)
        if x.ndim != 2 or given.shape != x.shape:
            raise InvalidInput(
                f"domain {self.id!r}: data {x.shape} and mask {given.shape} must be equal 2-D shapes"
            )
        if not np.all(np.isfinite(x)):
            raise InvalidInput(f"domain {self.id!r} has non-finite data entries")
        if given.dtype != bool and not np.all((given == 0) | (given == 1)):
            raise InvalidInput(f"domain {self.id!r} mask must be binary")
        if x.shape[0] == 0:
            raise InvalidInput(f"domain {self.id!r} has no rows")
        mask = np.array(given, dtype=bool, copy=True)
        rows_without = np.flatnonzero(~mask.any(axis=1))
        if rows_without.size:
            raise InvalidInput(
                f"domain {self.id!r} row {int(rows_without[0])} has no observed entries"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class MaskedDataset:
    """Nonempty ordered list of masked domains sharing one column count."""

    domains: tuple[MaskedDomain, ...]

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.domains:
            raise InvalidInput("masked dataset is empty")
        widths = {d.p for d in self.domains}
        if len(widths) != 1:
            raise InvalidInput(f"domains disagree on column count: {sorted(widths)}")

    @property
    def p(self) -> int:
        return self.domains[0].p

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    def __getitem__(self, idx) -> MaskedDomain:
        return self.domains[idx]


@dataclass(frozen=True)
class CompletionModel:
    """Fitted factors, the per-round objective trace and the final errors.

    ``domain_objectives`` are the per-domain errors at the returned factors,
    in domain order; the fit's aggregate of them is ``objective_trace[-1]``.
    ``unidentifiable_columns`` lists columns never observed in any domain.
    The fit runs on the other columns only, so their number bounds ``k``;
    the rows of ``right_factor`` for the unidentifiable columns are exactly
    zero, and reconstructions in those columns are zero.
    """

    right_factor: np.ndarray
    left_factors: tuple[np.ndarray, ...]
    objective_trace: tuple[float, ...]
    domain_objectives: tuple[float, ...]
    unidentifiable_columns: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.objective_trace) - 1


@dataclass(frozen=True)
class IncoherenceReport:
    """Row-norm incoherence of a frame."""

    mu: float
    max_row_norm: float


def inductive_ols(x, omega, r):
    """Reconstruct partially observed rows from a learned right factor.

    Solves ``min_c sum_{i: omega_i=1} (x_i - [c R.T]_i)^2`` for each row and
    returns ``(coefficients, reconstruction)`` where the reconstruction
    covers all p coordinates. A rank-deficient observed design falls back
    to the minimum-norm solution (pseudoinverse with singular values below
    ``1e-10 * s_max`` treated as zero).

    :param x: length-p data row, or an n x p block of rows. Observed values
        must be finite; unobserved ones are ignored, NaN included.
    :param omega: boolean mask of the same shape as ``x``, True = observed
        (0/1 integers or floats read the same).
    :param r: p x k right factor.
    :returns: length-k coefficients and length-p reconstruction for a row;
        n x k and n x p arrays for a block.
    :raises InvalidInput: if the mask is not 0/1, an observed value is not
        finite or the right factor is not a finite 2-D array.
    :raises NoObservations: if a row's mask is all zero.
    """
    rows = np.asarray(x, dtype=np.float64)
    mask = np.asarray(omega)
    factor = np.asarray(r, dtype=np.float64)
    if factor.ndim != 2 or not np.isfinite(factor).all():
        raise InvalidInput(f"right factor must be a finite 2-D array, got shape {factor.shape}")
    single = rows.ndim != 2
    if single:
        rows, mask = rows.reshape(1, -1), mask.reshape(1, -1)
    if rows.shape[1] != factor.shape[0] or mask.shape != rows.shape:
        raise InvalidInput(
            f"rows {rows.shape} and mask {mask.shape} must match "
            f"factor rows {factor.shape[0]}"
        )
    if mask.dtype != bool and not np.all((mask == 0) | (mask == 1)):
        raise InvalidInput("mask must be binary")
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise NoObservations(f"row {int(empty[0])} has no observed entries")
    # min and max carry any NaN or inf, so a finite block needs no temporary
    if rows.size and not np.isfinite(rows.min() + rows.max()):
        observed = mask != 0
        if not np.isfinite(rows[observed]).all():
            raise InvalidInput("observed values must be finite")
        rows = np.where(observed, rows, 0.0)
    coef = _solve_masked(rows, mask, factor)
    recon = coef @ factor.T
    return (coef[0], recon[0]) if single else (coef, recon)


def _normal_equations(x: np.ndarray, mask: np.ndarray, a: np.ndarray):
    """Row-wise normal equations of ``min_c ||mask_i * (x_i - a c)||``.

    ``x`` and ``mask`` are n x p, ``a`` is p x k. Returns ``(gram, rhs)``:
    all n Grams (n x k x k) are one product ``mask @ (a (x) a)`` and all
    right-hand sides (n x k) one product ``(x * mask) @ a``; no n x p x k
    design stack is formed.
    """
    p, k = a.shape
    # astype keeps a transposed mask's layout; matmul's own cast would make
    # it C-ordered, and BLAS could then round differently than on 0/1 floats
    outer = (a[:, :, None] * a[:, None, :]).reshape(p, k * k)
    gram = (mask.astype(np.float64, copy=False) @ outer).reshape(-1, k, k)
    return gram, (x * mask) @ a


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Which of the n x k x k PSD Grams have ``lambda_min <= 1e-6 * lambda_max``.

    A Gram G is cleared without ``eigvalsh`` when
    ``(k - 1)^(k - 1) det(G / Tr G) > 2e-6``: the other k - 1 eigenvalues
    have a product of at most ``(Tr G / (k - 1))^(k - 1)`` (AM-GM) and
    ``lambda_max <= Tr G``, so ``lambda_min / lambda_max`` is at least that
    left-hand side. The factor 2 covers the determinant's rounding, and
    dividing by the trace first keeps ``(Tr G)^k`` from under- or
    overflowing. (The plain ``det(G / Tr G)`` bound is at most ``k^-k``, so
    it could clear no Gram at k >= 7.) Only the Grams the screen does not
    clear go through ``eigvalsh``, so the flags are those of ``eigvalsh``
    on every Gram.
    """
    k = gram.shape[-1]
    trace = np.trace(gram, axis1=1, axis2=2)
    scale = np.maximum(trace, np.finfo(np.float64).tiny)[:, None, None]
    unsure = ~((k - 1) ** (k - 1) * np.linalg.det(gram / scale) > 2.0 * _GRAM_RCOND)
    ill = np.zeros(len(gram), dtype=bool)
    if unsure.any():
        lam = np.linalg.eigvalsh(gram[unsure])
        ill[unsure] = lam[:, 0] <= _GRAM_RCOND * lam[:, -1]
    return ill


def _solve_masked(x: np.ndarray, mask: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise masked least squares ``c_i = argmin_c ||mask_i * (x_i - a c)||``.

    ``x`` and ``mask`` are n x p and ``a`` is p x k; returns n x k. The rows'
    normal equations are solved in one batch. Rows whose Gram has
    ``lambda_min <= 1e-6 * lambda_max`` (all-zero Grams included) take the
    minimum-norm lstsq of their observed design instead, so rank-deficient
    semantics stay exact (:func:`_ill_conditioned`).
    """
    gram, rhs = _normal_equations(x, mask, a)
    ill = _ill_conditioned(gram)
    out = np.empty(rhs.shape)
    out[~ill] = np.linalg.solve(gram[~ill], rhs[~ill][:, :, None])[:, :, 0]
    for i in np.flatnonzero(ill):
        obs = mask[i] != 0.0
        out[i] = np.linalg.lstsq(a[obs], x[i, obs], rcond=_LSTSQ_RCOND)[0]
    return out


def _ensure_dataset(data) -> MaskedDataset:
    if isinstance(data, MaskedDataset):
        return data
    return MaskedDataset(tuple(data))


def _init_factors(data: MaskedDataset, k: int):
    """Top-k right singular subspace of the zero-filled stack S; ``L_e = Z_e R0``.

    R0 holds the top-k eigenvectors of the p x p Gram ``S.T S`` in
    descending order, which span the thin SVD's ``vt[:k].T``, and
    ``L = S R0`` equals its ``u[:, :k] * s[:k]`` up to column signs; no
    n x p factor U is formed. S is never stacked either: each domain's
    ``Z_e = x_e * mask_e`` is written into one buffer of the largest
    domain's size, which adds ``Z_e.T Z_e`` to the Gram and, once R0 is
    known, gives ``L_e = Z_e R0``.
    """
    rank = min(sum(d.n for d in data), data.p)
    if not 1 <= k <= rank:
        raise InvalidRank(f"k must be in 1..{rank}, got {k}")
    buf = np.empty((max(d.n for d in data), data.p))
    gram = np.zeros((data.p, data.p))
    for d in data:
        z = np.multiply(d.x, d.mask, out=buf[: d.n])
        gram += z.T @ z
    r0 = np.linalg.eigh(gram)[1][:, : -k - 1 : -1].copy()
    return [np.multiply(d.x, d.mask, out=buf[: d.n]) @ r0 for d in data], r0


def _l_update(data: MaskedDataset, r: np.ndarray):
    """Exact per-row OLS against the current right factor, one batch per domain."""
    return [_solve_masked(d.x, d.mask, r) for d in data]


def _domain_objectives(data: MaskedDataset, ls, r: np.ndarray) -> np.ndarray:
    """Per-domain mean squared error over observed entries, normalized by n_e."""
    out = np.empty(len(data))
    for e, (d, l) in enumerate(zip(data, ls)):
        res = (d.x - l @ r.T) * d.mask
        out[e] = np.sum(res * res) / d.n
    return out


def _pool_weights(data: MaskedDataset) -> np.ndarray:
    """The sample shares ``n_e / n`` that weight the pooled objective."""
    n = np.array([float(d.n) for d in data])
    return n / n.sum()


def _pool_r_update(data: MaskedDataset, ls) -> np.ndarray:
    """The candidate R(w) of :func:`_max_r_dual` at the pool weights ``n_e / n``."""
    return _max_r_dual(data, ls)(_pool_weights(data)).candidate


def _alternate(data, k: int, r_update, aggregate) -> CompletionModel:
    """Alternate ``r_update`` and the exact L-update from :func:`_init_factors`.

    Columns that no domain observes are dropped before the fit and get
    exact-zero rows in the returned right factor; everything else runs on
    the observed columns, so ``k`` may not exceed their number.
    The polar factor U W.T of ``r_update(data, ls)`` = U S W.T is the new R,
    to which the L-update then refits every ``L_e``. ``aggregate(data,
    errors)`` of each round's :func:`_domain_objectives`, computed once, is
    minimized. Stops after ``_MAX_ROUNDS`` rounds, on a gain below
    ``_ROUND_TOL``, or on a rise, whose round is discarded; the model keeps
    the trace (initialization first) and the errors of its last entry.
    """
    data = _ensure_dataset(data)
    seen = np.logical_or.reduce([d.mask.any(axis=0) for d in data])
    if not seen.all():
        data = MaskedDataset(
            tuple(MaskedDomain(id=d.id, x=d.x[:, seen], mask=d.mask[:, seen]) for d in data)
        )
    ls, r = _init_factors(data, k)
    errors = _domain_objectives(data, ls, r)
    trace = [aggregate(data, errors)]
    for _ in range(_MAX_ROUNDS):
        u, _, wt = np.linalg.svd(r_update(data, ls), full_matrices=False)
        r_next = u @ wt
        ls_next = _l_update(data, r_next)
        errors_next = _domain_objectives(data, ls_next, r_next)
        value = aggregate(data, errors_next)
        if value > trace[-1]:
            break
        r, ls, errors = r_next, ls_next, errors_next
        trace.append(value)
        if trace[-2] - trace[-1] < _ROUND_TOL:
            break
    right = np.zeros((seen.size, r.shape[1]))
    right[seen] = r
    unseen = tuple(int(j) for j in np.flatnonzero(~seen))
    return CompletionModel(right, tuple(ls), tuple(trace), tuple(errors.tolist()), unseen)


def fit_pool_mc(data, k: int) -> CompletionModel:
    """Alternating minimization of the pooled observed-entry squared error.

    The objective is ``sum_e ||(X_e - L_e R.T) * mask_e||_F^2 / sum_e n_e``,
    the average of the per-domain errors at the weights ``n_e / n``. The
    R-update is maxMC's weighted per-column least squares held at those
    weights (see :func:`_pool_r_update`), re-orthonormalized through its
    polar factor.
    """
    return _alternate(data, k, _pool_r_update, lambda d, errors: float(_pool_weights(d) @ errors))


def _max_r_dual(data: MaskedDataset, ls):
    """``evaluate(w)``: the dual of ``min_R max_e f_e(R)``, L fixed, as ``solvers._DualPoint``s.

    ``f_e(R) = (||M_e * X_e||^2 - 2 <B_e, R> + sum_j r_j.T H_ej r_j) / n_e``
    with ``H_ej``, ``b_ej`` the normal equations of the transposed domain.
    At weights w, with ``u = w / n`` and ``A_j = sum_e u_e H_ej``, the
    candidate ``R(w)`` has rows ``pinv(A_j) sum_e u_e b_ej``: at those fixed
    weights it is the minimum-norm minimizer of ``sum_e w_e f_e(R)``, whose
    minimum is the dual ``h(w)`` (at ``w = n / n.sum()`` it is the pooled
    R-step). The point carries ``R(w)`` as its candidate, ``f_e(R(w))`` as
    the gradient of h, and as ``hessian()`` the Hessian of -h,
    ``2 sum_j G_j pinv(A_j) G_j.T`` with G_j stacking
    ``(H_ej r_j - b_ej) / n_e``. A weight below ``_ROUNDING`` counts as
    ``_ROUNDING``, so a column that only domains at zero weight observe takes
    their fit, the limit from positive weights.
    """
    stats = [_normal_equations(d.x.T, d.mask.T, l) for d, l in zip(data, ls)]
    grams = np.stack([s[0] for s in stats])
    rhs = np.stack([s[1] for s in stats])
    xx = np.array([float(np.sum((d.x * d.mask) ** 2)) for d in data])
    n = np.array([float(d.n) for d in data])

    def evaluate(w):
        u = np.maximum(w, _ROUNDING) / n
        pinv = np.linalg.pinv(np.tensordot(u, grams, 1), rcond=_LSTSQ_RCOND, hermitian=True)
        r = (pinv @ np.tensordot(u, rhs, 1)[..., None])[..., 0]
        hr = (grams @ r[None, ..., None])[..., 0]
        values = (xx + np.sum((hr - 2.0 * rhs) * r, axis=(1, 2))) / n
        slopes = (hr - rhs) / n[:, None, None]
        hessian = lambda: 2.0 * np.einsum("ejk,jkl,fjl->ef", slopes, pinv, slopes)  # noqa: E731
        return _DualPoint(float(w @ values), _ROUNDING * float(u @ xx), values, r, hessian)

    return evaluate


def _max_r_update(data: MaskedDataset, ls) -> np.ndarray:
    """The best R(w) of worst-case PCA's Newton loop on :func:`_max_r_dual`."""
    return _simplex_newton(_max_r_dual(data, ls), np.full(len(data), 1.0 / len(data)))[0].candidate


def fit_max_mc(data, k: int) -> CompletionModel:
    """Alternating minimization of the worst per-domain observed-entry error.

    The objective is ``max_e (1/n_e) ||(X_e - L_e R.T) * mask_e||_F^2``. The
    L-update is the exact per-row OLS (it can only shrink every domain's
    error); the R-update is the exact minimax in R (see :func:`_max_r_update`).
    """
    return _alternate(data, k, _max_r_update, lambda d, errors: float(errors.max()))


def incoherence(r) -> IncoherenceReport:
    """Row-norm incoherence mu = max_i ||r_i|| * sqrt(p/k) of an orthonormal frame.

    :raises InvalidInput: unless ``r`` passes :func:`linalg.orthonormal_frame`
        (nonempty, finite, max |R.T R - I| <= 1e-8; 1-D is one column).
    """
    factor = orthonormal_frame(r)
    p, k = factor.shape
    row_norms = np.sqrt(np.sum(factor * factor, axis=1))
    max_norm = float(row_norms.max())
    return IncoherenceReport(mu=max_norm * float(np.sqrt(p / k)), max_row_norm=max_norm)


def missingness_budget(p: int, k: int, eps: float, mu: float) -> int:
    """Largest per-row missing count with the (1+eps) reconstruction guarantee.

    Evaluates ``floor(p * eps / (k * mu^2 * (2 eps + 1)))``.

    :raises InvalidInput: unless ``p >= 1``, ``1 <= k <= p``, ``0 < eps < 1``,
        and ``mu >= 1``.
    """
    if p < 1 or k < 1 or k > p:
        raise InvalidInput(f"need 1 <= k <= p, got p={p}, k={k}")
    if not 0.0 < eps < 1.0:
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    if not mu >= 1.0:
        raise InvalidInput(f"mu must be >= 1, got {mu}")
    return int(np.floor(p * eps / (k * mu * mu * (2.0 * eps + 1.0))))


def ols_subset_stability_check(x, r, removal, eps: float):
    """Compare subset-OLS reconstruction against the full-data projection.

    Computes ``ratio = ||x - l_sub R.T||^2 / ||x - x R R.T||^2`` where
    ``l_sub`` solves the OLS problem with the coordinates in ``removal``
    dropped, and reports ``bound_ok = ratio <= 1 + eps``. The frame ``r``
    must have orthonormal columns (the full-data solution is then ``x R``).
    An empty removal set gives ratio 1 exactly, as does the convention for a
    consistent system (both residuals at or below 1e-14).

    :raises InvalidInput: if ``x`` or ``r`` is not finite, if ``r`` is empty or
        not orthonormal to within 1e-8 (max |R.T R - I|), or if they disagree on p.
    :raises NoObservations: if the removal set covers every coordinate.
    """
    row = np.asarray(x, dtype=np.float64).ravel()
    factor = orthonormal_frame(r)
    if factor.shape[0] != row.shape[0]:
        raise InvalidInput("x and r disagree on the ambient dimension")
    if not np.isfinite(row).all():
        raise InvalidInput("x must be finite")
    if not eps > 0.0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    removal = sorted(int(i) for i in removal)
    if any(i < 0 or i >= row.shape[0] for i in removal):
        raise InvalidInput("removal indices out of range")
    if not removal:
        return 1.0, True
    keep = np.ones(row.shape[0], dtype=bool)
    keep[removal] = False
    if not keep.any():
        raise NoObservations("removal set covers every coordinate")
    coef_full = row @ factor
    resid_full = row - factor @ coef_full
    den = float(resid_full @ resid_full)
    coef_sub = _solve_masked(row[None], keep[None], factor)[0]
    resid_sub = row - factor @ coef_sub
    num = float(resid_sub @ resid_sub)
    if num <= 1e-14 and den <= 1e-14:
        ratio = 1.0
    elif den <= 0.0:
        ratio = float("inf")
    else:
        ratio = num / den
    return float(ratio), bool(ratio <= 1.0 + eps)
