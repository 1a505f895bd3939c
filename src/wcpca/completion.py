"""Matrix completion across domains with a shared orthonormal right factor.

Two alternating-minimization fits are provided. Both factor each domain's
partially observed matrix as ``X_e ~ L_e R.T`` with one shared p x k right
factor ``R`` constrained to orthonormal columns:

* :func:`fit_pool_mc` minimizes the pooled squared error over all observed
  entries; the R-update is an exact per-column least squares.
* :func:`fit_max_mc` minimizes the maximum across domains of the per-domain
  mean squared error on observed entries; the R-update runs the worst-case
  PCA driver ``solvers.stiefel_adam`` (annealed Adam step through the active
  domain, then retraction to orthonormal columns).

After the pooled R-update the raw solution is re-orthonormalized through its
polar factor and the compensating transform is absorbed into every ``L_e``,
which preserves the products ``L_e R.T`` exactly. New rows are reconstructed
with :func:`inductive_ols`, and the incoherence machinery
(:func:`incoherence`, :func:`missingness_budget`,
:func:`ols_subset_stability_check`) quantifies how much masking a learned
factor tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidRank, NoObservations
from .linalg import stiefel_project  # noqa: F401 -- benchmarks/spans.py wraps this name
from .solvers import stiefel_adam

__all__ = [
    "McConfig",
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


@dataclass(frozen=True)
class McConfig:
    """Alternation budget and the inner Stiefel-Adam settings of maxMC.

    :param max_rounds: outer alternation rounds (R-update then L-update).
    :param tol_objective: stop when a round improves the objective by less
        than this (absolute).
    :param inner_iters: Stiefel-Adam iterations per maxMC R-update.
    :param inner_tol: plateau tolerance of the inner loop.
    :param inner_step: initial Adam step size of the inner loop; it anneals
        geometrically to one hundredth of this over the inner budget.
    """

    max_rounds: int = 100
    tol_objective: float = 1e-4
    inner_iters: int = 500
    inner_tol: float = 1e-6
    inner_step: float = 1e-2

    def __post_init__(self):
        if self.max_rounds < 1:
            raise InvalidInput(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.inner_iters < 1:
            raise InvalidInput(f"inner_iters must be >= 1, got {self.inner_iters}")
        if not self.inner_step > 0.0:
            raise InvalidInput(f"inner_step must be positive, got {self.inner_step}")


@dataclass(frozen=True)
class MaskedDomain:
    """One domain's data matrix and binary observation mask (1 = observed).

    ``x`` must be finite everywhere; positions with ``mask == 0`` are simply
    ignored by the fits (loaders fill unobserved cells with 0, while
    evaluation datasets may carry ground truth there). Every row needs at
    least one observed entry.
    """

    id: str
    x: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64, copy=True)
        mask = np.array(self.mask, dtype=np.float64, copy=True)
        if x.ndim != 2 or mask.shape != x.shape:
            raise InvalidInput(
                f"domain {self.id!r}: data {x.shape} and mask {mask.shape} must be equal 2-D shapes"
            )
        if not np.all(np.isfinite(x)):
            raise InvalidInput(f"domain {self.id!r} has non-finite data entries")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise InvalidInput(f"domain {self.id!r} mask must be binary")
        if x.shape[0] == 0:
            raise InvalidInput(f"domain {self.id!r} has no rows")
        rows_without = np.flatnonzero(mask.sum(axis=1) == 0)
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
    """Fitted factors plus the per-round objective trace.

    ``unidentifiable_columns`` lists columns never observed in any domain;
    their rows of ``right_factor`` were excluded from every data-driven
    update (they keep their initialization up to re-orthonormalization), and
    reconstructions in those columns carry no information.
    """

    right_factor: np.ndarray
    left_factors: tuple[np.ndarray, ...]
    objective_trace: tuple[float, ...]
    unidentifiable_columns: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.objective_trace) - 1


@dataclass(frozen=True)
class IncoherenceReport:
    """Row-norm incoherence of a frame; ``s_max`` is filled by budget checks."""

    mu: float
    max_row_norm: float
    s_max: int | None = None


def inductive_ols(x, omega, r):
    """Reconstruct one partially observed row from a learned right factor.

    Solves ``min_c sum_{i: omega_i=1} (x_i - [c R.T]_i)^2`` and returns
    ``(coefficients, reconstruction)`` where the reconstruction covers all p
    coordinates. A rank-deficient observed design falls back to the
    minimum-norm solution (pseudoinverse with singular values below
    ``1e-10 * s_max`` treated as zero).

    :param x: length-p data row.
    :param omega: length-p binary mask, 1 = observed.
    :param r: p x k right factor.
    :raises NoObservations: if the mask is all zero.
    """
    row = np.asarray(x, dtype=np.float64).ravel()
    mask = np.asarray(omega, dtype=np.float64).ravel()
    factor = np.asarray(r, dtype=np.float64)
    if factor.ndim != 2:
        raise InvalidInput(f"right factor must be 2-D, got shape {factor.shape}")
    if row.shape[0] != factor.shape[0] or mask.shape[0] != factor.shape[0]:
        raise InvalidInput(
            f"row length {row.shape[0]} and mask length {mask.shape[0]} "
            f"must match factor rows {factor.shape[0]}"
        )
    obs = mask != 0.0
    if not obs.any():
        raise NoObservations("row has no observed entries")
    coef, *_ = np.linalg.lstsq(factor[obs], row[obs], rcond=_LSTSQ_RCOND)
    return coef, factor @ coef


def _ensure_dataset(data) -> MaskedDataset:
    if isinstance(data, MaskedDataset):
        return data
    return MaskedDataset(tuple(data))


def _init_factors(data: MaskedDataset, k: int):
    """Rank-k SVD of the zero-filled stacked data; split U*S into the L_e."""
    stacked = np.vstack([d.x * d.mask for d in data])
    if not 1 <= k <= min(stacked.shape):
        raise InvalidRank(f"k must be in 1..{min(stacked.shape)}, got {k}")
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    r0 = vt[:k].T.copy()
    l_all = u[:, :k] * s[:k]
    ls = []
    start = 0
    for d in data:
        ls.append(l_all[start : start + d.n].copy())
        start += d.n
    observed_per_col = np.zeros(data.p)
    for d in data:
        observed_per_col += d.mask.sum(axis=0)
    unident = tuple(int(j) for j in np.flatnonzero(observed_per_col == 0))
    return ls, r0, unident


def _l_update(data: MaskedDataset, r: np.ndarray):
    """Exact per-row OLS against the current right factor."""
    k = r.shape[1]
    ls = []
    for d in data:
        l = np.empty((d.n, k))
        for i in range(d.n):
            obs = d.mask[i] != 0.0
            coef, *_ = np.linalg.lstsq(r[obs], d.x[i, obs], rcond=_LSTSQ_RCOND)
            l[i] = coef
        ls.append(l)
    return ls


def _domain_objectives(data: MaskedDataset, ls, r: np.ndarray) -> np.ndarray:
    """Per-domain mean squared error over observed entries, normalized by n_e."""
    vals = np.empty(len(ls))
    for e, (d, l) in enumerate(zip(data, ls)):
        resid = (d.x - l @ r.T) * d.mask
        vals[e] = float(np.sum(resid * resid)) / d.n
    return vals


def _pooled_objective(data: MaskedDataset, ls, r: np.ndarray) -> float:
    total = 0.0
    rows = 0
    for d, l in zip(data, ls):
        resid = (d.x - l @ r.T) * d.mask
        total += float(np.sum(resid * resid))
        rows += d.n
    return total / rows


def _pool_r_update(data: MaskedDataset, ls, r: np.ndarray, unident) -> np.ndarray:
    x_all = np.vstack([d.x for d in data])
    m_all = np.vstack([d.mask for d in data])
    l_all = np.vstack(ls)
    r_new = r.copy()
    skip = set(unident)
    for j in range(r.shape[0]):
        if j in skip:
            continue
        rows = m_all[:, j] != 0.0
        coef, *_ = np.linalg.lstsq(l_all[rows], x_all[rows, j], rcond=_LSTSQ_RCOND)
        r_new[j] = coef
    return r_new


def _polar_absorb(r_raw: np.ndarray, ls):
    """Orthonormalize R through its polar factor, moving the stretch into L.

    With thin SVD R = U S W.T, the orthonormal part is U W.T and
    L <- L (W S W.T) keeps every product L R.T bitwise-equal in exact
    arithmetic.
    """
    u, s, wt = np.linalg.svd(r_raw, full_matrices=False)
    r = u @ wt
    pmat = (wt.T * s) @ wt
    return r, [l @ pmat for l in ls]


def fit_pool_mc(data, k: int, cfg: McConfig | None = None) -> CompletionModel:
    """Alternating minimization of the pooled observed-entry squared error.

    The objective is ``sum_e ||(X_e - L_e R.T) * mask_e||_F^2 / sum_e n_e``.
    Alternation stops after ``cfg.max_rounds`` rounds or when a round
    improves the objective by less than ``cfg.tol_objective``; the trace of
    objective values (initialization first) is kept on the model.
    """
    data = _ensure_dataset(data)
    cfg = cfg or McConfig()
    ls, r, unident = _init_factors(data, k)
    trace = [_pooled_objective(data, ls, r)]
    for _ in range(cfg.max_rounds):
        r_raw = _pool_r_update(data, ls, r, unident)
        r, ls = _polar_absorb(r_raw, ls)
        ls = _l_update(data, r)
        trace.append(_pooled_objective(data, ls, r))
        if trace[-2] - trace[-1] < cfg.tol_objective:
            break
    return CompletionModel(r, tuple(ls), tuple(trace), unident)


def _max_r_update(data: MaskedDataset, ls, r0: np.ndarray, unident, cfg: McConfig) -> np.ndarray:
    """Minimize max_e (1/n_e)||(X_e - L_e R.T) * mask_e||^2 over orthonormal R.

    Runs :func:`stiefel_adam` from the incoming R with the active domain's
    gradient; the best iterate seen (possibly R itself) is returned, so the
    outer objective cannot increase. Rows of unidentifiable columns are
    frozen: they receive no gradient.
    """

    def cost_and_grad(r):
        vals = _domain_objectives(data, ls, r)
        a = int(np.argmax(vals))
        d = data[a]
        resid = (ls[a] @ r.T - d.x) * d.mask
        return float(vals[a]), (2.0 / d.n) * (resid.T @ ls[a])

    frozen = np.zeros(r0.shape[0], dtype=bool)
    frozen[list(unident)] = True
    r, _, _ = stiefel_adam(r0, cost_and_grad, cfg.inner_iters, cfg.inner_step, cfg.inner_tol, frozen)
    return r


def fit_max_mc(data, k: int, cfg: McConfig | None = None) -> CompletionModel:
    """Alternating minimization of the worst per-domain observed-entry error.

    The objective is ``max_e (1/n_e) ||(X_e - L_e R.T) * mask_e||_F^2``. The
    L-update is the exact per-row OLS (it can only shrink every domain's
    error); the R-update is one :func:`stiefel_adam` run (see
    :func:`_max_r_update`). Stopping mirrors :func:`fit_pool_mc`.
    """
    data = _ensure_dataset(data)
    cfg = cfg or McConfig()
    ls, r, unident = _init_factors(data, k)
    trace = [float(_domain_objectives(data, ls, r).max())]
    for _ in range(cfg.max_rounds):
        r = _max_r_update(data, ls, r, unident, cfg)
        ls = _l_update(data, r)
        trace.append(float(_domain_objectives(data, ls, r).max()))
        if trace[-2] - trace[-1] < cfg.tol_objective:
            break
    return CompletionModel(r, tuple(ls), tuple(trace), unident)


def incoherence(r) -> IncoherenceReport:
    """Row-norm incoherence mu = max_i ||r_i|| * sqrt(p/k) of a frame."""
    factor = np.asarray(r, dtype=np.float64)
    if factor.ndim != 2:
        raise InvalidInput(f"expected a 2-D frame, got shape {factor.shape}")
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

    :raises NoObservations: if the removal set covers every coordinate.
    """
    row = np.asarray(x, dtype=np.float64).ravel()
    factor = np.asarray(r, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != row.shape[0]:
        raise InvalidInput("x and r disagree on the ambient dimension")
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
    coef_sub, *_ = np.linalg.lstsq(factor[keep], row[keep], rcond=_LSTSQ_RCOND)
    resid_sub = row - factor @ coef_sub
    num = float(resid_sub @ resid_sub)
    if num <= 1e-14 and den <= 1e-14:
        ratio = 1.0
    elif den <= 0.0:
        ratio = float("inf")
    else:
        ratio = num / den
    return float(ratio), bool(ratio <= 1.0 + eps)
