"""The six loss functionals and their worst-case aggregation over domains.

All losses are expressed in covariance form. For a frame V and covariance S
with trace t and top-k eigenvalue sum s_k:

    Var      Tr(V.T S V)          explained variance (higher is better)
    NormVar  Var / t              scale-free explained variance
    RCS      t - Var              reconstruction error
    NormRCS  RCS / t              scale-free reconstruction error
    Reg      s_k - Var            regret against the domain-optimal subspace
    NormReg  Reg / t              scale-free regret

Var and NormVar are "min over domains" objectives (the worst case is the
least-explained domain); the other four take the max.

:class:`Domains` is the one container of named domains: its checks and
sequence methods serve :class:`DomainCollection` (covariances) and
``completion.MaskedDataset`` (masked data) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInput, InvalidKind, InvalidWeights, ZeroTrace
from .linalg import as_covariance, as_frame, orthonormal_frame, sym_eigenvalues

__all__ = [
    "LossKind",
    "as_kind",
    "MIN_KINDS",
    "NORMALIZED_KINDS",
    "REGRET_KINDS",
    "DomainSpec",
    "Domains",
    "DomainCollection",
    "make_collection",
    "as_collection",
    "top_k_eigensum",
    "loss",
    "domain_losses",
    "worst_index",
    "worst_case",
    "mixture",
    "pooled_covariance",
    "average_covariance",
]


class LossKind(str, Enum):
    """Enumeration of the six supported loss functionals."""

    VAR = "var"
    NORM_VAR = "norm-var"
    RCS = "rcs"
    NORM_RCS = "norm-rcs"
    REG = "reg"
    NORM_REG = "norm-reg"


# Worst case = min over domains for these; max for everything else.
MIN_KINDS = frozenset({LossKind.VAR, LossKind.NORM_VAR})
NORMALIZED_KINDS = frozenset({LossKind.NORM_VAR, LossKind.NORM_RCS, LossKind.NORM_REG})
REGRET_KINDS = frozenset({LossKind.REG, LossKind.NORM_REG})

# A covariance with an eigenvalue below -_PSD_RTOL * trace is not PSD: the
# allowance absorbs rounding in PSD inputs but not a real negative direction.
_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class DomainSpec:
    """One data source: a covariance plus sampling weight and sample count.

    The covariance is symmetrized on construction, must have strictly
    positive trace, and no eigenvalue below ``-1e-10 * trace`` (generated
    covariances carry eigenvalues near -1e-17); the weight must be positive
    and finite. ``eigenvalues`` keeps that check's descending spectrum,
    read-only, for every eigensum. ``n`` is optional and only informational
    here (preprocessing fills it from data).
    """

    id: str
    covariance: np.ndarray
    weight: float = 1.0
    n: int | None = None
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = as_covariance(self.covariance)
        trace = float(np.trace(cov))
        if trace <= 0.0:
            raise ZeroTrace(f"domain {self.id!r} has nonpositive trace")
        # cov is already finite and exactly symmetric: sym_eigenvalues would
        # check and symmetrize it again, in two more p x p arrays
        eigenvalues = np.linalg.eigvalsh(cov)[::-1].copy()
        if eigenvalues[-1] < -_PSD_RTOL * trace:
            raise InvalidInput(f"domain {self.id!r} covariance is not positive semidefinite")
        if not 0.0 < self.weight < np.inf:
            raise InvalidWeights(f"domain {self.id!r} needs a positive finite weight, got {self.weight}")
        if self.n is not None and self.n < 1:
            raise InvalidInput(f"domain {self.id!r} has nonpositive sample count {self.n}")
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def p(self) -> int:
        return self.covariance.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.covariance))


@dataclass(frozen=True)
class Domains:
    """Nonempty ordered tuple of uniquely named domains sharing one width p.

    The one container of both models: :class:`DomainCollection` holds
    :class:`DomainSpec` covariances and ``completion.MaskedDataset`` holds
    masked data matrices. Any iterable of domains (a container too) is
    stored as a tuple. Ids must be unique because they label the rows of
    both reports: a fit's per-domain losses and ``active_domains``, and a
    completion's ``per_domain_objective``.

    :raises InvalidInput: if there are no domains, their widths differ or
        an id repeats.
    """

    domains: tuple

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.domains:
            raise InvalidInput(f"{type(self).__name__} needs at least one domain")
        widths = {d.p for d in self.domains}
        if len(widths) != 1:
            raise InvalidInput(f"domains disagree on width p: {sorted(widths)}")
        ids = [d.id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise InvalidInput(f"domain ids must be unique, got {ids}")

    @property
    def p(self) -> int:
        return self.domains[0].p

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    def __getitem__(self, idx):
        return self.domains[idx]


class DomainCollection(Domains):
    """:class:`Domains` of DomainSpecs, with the terms every loss needs.

    ``covariances``, ``traces`` and ``top_k_eigensums(k)`` are read from the
    specs; the eigensums sum the spectra they keep, so none decomposes again.
    """

    @property
    def covariances(self) -> list[np.ndarray]:
        return [d.covariance for d in self.domains]

    @property
    def traces(self) -> np.ndarray:
        return np.array([d.trace for d in self.domains])

    def top_k_eigensums(self, k: int) -> np.ndarray:
        """Each domain's :func:`top_k_eigensum` (the regret baseline), from its kept spectrum."""
        return np.array([float(d.eigenvalues[:k].sum()) for d in self.domains])


def make_collection(covariances, ids=None, weights=None, ns=None) -> DomainCollection:
    """Build a DomainCollection from raw covariance matrices.

    Ids default to d0, d1, ...; weights default to 1/E each.
    """
    covs = list(covariances)
    count = len(covs)
    if ids is None:
        ids = [f"d{i}" for i in range(count)]
    if weights is None:
        weights = [1.0 / count] * count
    if ns is None:
        ns = [None] * count
    if not (len(ids) == len(weights) == len(ns) == count):
        raise InvalidInput("covariances, ids, weights, and ns must have equal length")
    return DomainCollection(
        tuple(
            DomainSpec(id=str(i), covariance=c, weight=float(w), n=n)
            for i, c, w, n in zip(ids, covs, weights, ns)
        )
    )


def as_collection(domains) -> DomainCollection:
    """Return ``domains`` as a DomainCollection, wrapping an iterable of specs."""
    return domains if isinstance(domains, DomainCollection) else DomainCollection(domains)


def as_kind(kind) -> LossKind:
    """Coerce a LossKind or its string value, mapping bad names to InvalidKind."""
    try:
        return LossKind(kind)
    except ValueError:
        known = ", ".join(m.value for m in LossKind)
        raise InvalidKind(f"unknown loss kind {kind!r}; known kinds: {known}") from None


def top_k_eigensum(sigma, k: int) -> float:
    """Sum of the k largest eigenvalues of ``sigma``, from one ``eigvalsh`` call.

    For a domain's covariance, :meth:`DomainCollection.top_k_eigensums` gives
    the same value from the spectrum its spec keeps, without decomposing.
    """
    return float(sym_eigenvalues(sigma)[:k].sum())


def loss(kind, v, sigma) -> float:
    """One loss functional at frame ``v``: :func:`worst_case` over the one domain
    ``sigma``. So ``sigma`` gets :class:`DomainSpec`'s checks, before the frame's
    row check, and the regret baseline (k = frame width) sums the kept spectrum.

    :raises InvalidInput: if ``sigma`` is not square, not finite, asymmetric
        beyond 1e-6 relative or not PSD within 1e-10 * trace, or if ``v`` is
        not an orthonormal frame (:func:`linalg.orthonormal_frame`) or its
        rows do not match it.
    :raises ZeroTrace: if ``sigma`` has nonpositive trace.
    """
    return worst_case(kind, v, [DomainSpec("sigma", sigma)])


def domain_losses(kind: LossKind, v, covs, traces, eigsums):
    """Every domain's loss of a frame ``v``, plus the products ``covs[e] @ v``.

    This is the one loss kernel: both minimax solves of ``solvers`` read
    their losses from it. ``v`` is a p x k frame (1-D input is one column)
    or an ``(R, p, k)`` stack of frames. ``covs`` is a sequence of p x p
    covariances (a stacked array reads as its slices), each taking one
    ``c @ v``, so none is copied; ``traces`` (and, for the regret kinds,
    ``eigsums``, the top-k eigenvalue sums at k = frame width) are arrays
    aligned with it. Returns ``(values, products)``: E values and the
    ``(E, p, k)`` products, which solvers reuse as gradients; a stack of
    frames gives ``(R, E)`` values and ``(R, E, p, k)`` products, each
    frame's bitwise equal to its own call's.
    """
    frame = np.asarray(v, dtype=np.float64) if np.ndim(v) == 3 else as_frame(v)
    if covs[0].shape[0] != frame.shape[-2]:
        raise InvalidInput(
            f"frame rows {frame.shape[-2]} do not match covariance dim {covs[0].shape[0]}"
        )
    products = np.stack([c @ frame for c in covs], axis=-3)
    # a stack of frames meets its products: (R, 1, p, k) against (R, E, p, k)
    right = frame[:, None] if frame.ndim == 3 else frame
    var = np.sum(right * products, axis=(-2, -1))
    if kind in MIN_KINDS:
        values = var
    elif kind in REGRET_KINDS:
        values = eigsums - var
    else:
        values = traces - var
    if kind in NORMALIZED_KINDS:
        values = values / traces
    return values, products


def worst_index(kind: LossKind, values) -> int:
    """Index of the worst of the domain ``values``: argmin for Var/NormVar,
    argmax otherwise; ties go to the smallest index."""
    return int(np.argmin(values) if kind in MIN_KINDS else np.argmax(values))


def worst_case(kind, v, domains):
    """Worst-case loss of ``v`` over a domain collection (or iterable of specs).

    Min over domains for Var/NormVar, max for the other kinds; the domain
    that attains it is :func:`worst_index`. Every loss is linear in the
    covariance, so this is also the extremum over the convex hull of the
    sources, exact for Var and RCS; for the regret kinds it is a certified
    upper bound. The normalized kinds are taken over the hull of the
    trace-normalized sources: they are scale invariant, so a normalized
    vertex has the loss of its source. ``evaluation.hull_supremum`` is this
    function under its hull name. ``v`` must pass
    :func:`linalg.orthonormal_frame`, else InvalidInput.
    """
    kind = as_kind(kind)
    domains = as_collection(domains)
    frame = orthonormal_frame(v)
    eigsums = domains.top_k_eigensums(frame.shape[1]) if kind in REGRET_KINDS else None
    values, _ = domain_losses(kind, frame, domains.covariances, domains.traces, eigsums)
    return float(values[worst_index(kind, values)])


def mixture(domains, weights) -> np.ndarray:
    """The mixture Sigma_w = sum_e w_e Sigma_e, summed in domain order.

    The one weighted sum of all three minimax searches: every Sigma_w and
    the maxMC R-step's Grams and right-hand sides. ``domains`` holds
    DomainSpecs or plain arrays of one shape (an ``(E, ...)`` stack reads
    as its slices). ``weights`` is one weight per domain or an ``(R, E)``
    stack of weight vectors, which gives the ``(R, ...)`` stack of their
    mixtures, each bitwise equal to its own row's call. Terms pass through
    one reused scratch array the size of the output.

    :raises InvalidInput: if there are no domains or not one weight per domain.
    """
    covs = [d.covariance if isinstance(d, DomainSpec) else d for d in domains]
    w = np.asarray(weights, dtype=np.float64)
    if not covs or w.ndim not in (1, 2) or w.shape[-1] != len(covs):
        raise InvalidInput(f"need domains and one weight each, got {w.shape} for {len(covs)}")
    out = np.zeros(w.shape[:-1] + covs[0].shape)
    scratch = np.empty_like(out)
    for e, c in enumerate(covs):
        # w[..., e] broadcast over every axis of the term, however many
        out += np.multiply(c, w[(..., e) + (None,) * c.ndim], out=scratch)
    return out


def pooled_covariance(domains) -> np.ndarray:
    """Weighted combination sum_e w_e Sigma_e; weights must sum to 1."""
    specs = list(domains)
    if not specs:
        raise InvalidInput("pooled_covariance needs at least one domain")
    total = sum(d.weight for d in specs)
    if abs(total - 1.0) > 1e-8:
        raise InvalidWeights(f"domain weights sum to {total!r}, expected 1")
    return mixture(specs, [d.weight for d in specs])


def average_covariance(domains) -> np.ndarray:
    """Unweighted mean covariance (1/E) sum_e Sigma_e."""
    specs = list(domains)
    return mixture(specs, [1.0] * len(specs)) / len(specs)
