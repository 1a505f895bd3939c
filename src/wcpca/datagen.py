"""Synthetic covariance and data samplers for the simulation studies.

Each source covariance is a trace-one sum of two low-rank pieces: a shared
component (eigenvalues uniform on [0.1, 1], Haar-random frame, identical
across domains within a draw) and a domain-specific component whose
eigenvalues come from U[alpha, beta] and whose frame is drawn orthogonal to
the shared one. With ``per_domain_gammas`` the specific eigenvalues are
redrawn per domain and each domain is normalized by its own eigenvalue sum.

All samplers are pure functions of their seed; replicate loops split seeds
with :func:`wcpca.rng.spawn_seed` so draws never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import haar_frame, orthocomplement_frame, sym_eigen
from .losses import _PSD_RTOL, DomainCollection, DomainSpec, mixture
from .rng import as_rng

__all__ = [
    "GenConfig",
    "SourceComponents",
    "sample_source_components",
    "sample_source_covariances",
    "sample_target_covariance",
    "sample_gaussian_rows",
    "second_moment_collection",
    "add_heterogeneous_noise",
    "hidden_per_row",
    "sample_masks",
]

# The shared component's eigenvalue range is fixed; only the specific range
# (alpha, beta) varies across experiments.
_SHARED_EIG_LOW = 0.1
_SHARED_EIG_HIGH = 1.0


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the source-covariance sampler."""

    p: int = 20
    n_domains: int = 5
    shared_rank: int = 5
    specific_rank: int = 5
    alpha: float = 0.1
    beta: float = 1.0
    per_domain_gammas: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.p < 1 or self.n_domains < 1:
            raise InvalidInput(f"p and n_domains must be >= 1, got p={self.p}, E={self.n_domains}")
        if self.shared_rank < 1 or self.specific_rank < 1:
            raise InvalidInput("shared_rank and specific_rank must be >= 1")
        if self.shared_rank + self.specific_rank > self.p:
            raise InvalidInput(
                f"shared_rank + specific_rank = {self.shared_rank + self.specific_rank} exceeds p={self.p}"
            )
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise InvalidInput(f"alpha and beta must be finite, got [{self.alpha}, {self.beta}]")
        if not self.alpha < self.beta:
            raise InvalidInput(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if self.alpha < 0.0:
            raise InvalidInput(f"alpha must be nonnegative, got {self.alpha}")


@dataclass(frozen=True)
class SourceComponents:
    """Raw draws behind one source collection.

    ``shared_term`` is the matrix V diag(lambda) V.T built once; every
    domain's covariance reuses this exact array, which is what makes the
    shared-component identity across domains testable. ``gammas`` holds one
    vector per domain (the same object repeated when gammas are shared).
    """

    shared_eigenvalues: np.ndarray
    shared_frame: np.ndarray
    shared_term: np.ndarray
    gammas: tuple[np.ndarray, ...]
    specific_frames: tuple[np.ndarray, ...]


def sample_source_components(cfg: GenConfig) -> SourceComponents:
    """Draw the shared and per-domain pieces of a source collection."""
    rng = as_rng(cfg.seed)
    lam = rng.uniform(_SHARED_EIG_LOW, _SHARED_EIG_HIGH, cfg.shared_rank)
    v = haar_frame(cfg.p, cfg.shared_rank, rng)
    shared_term = (v * lam) @ v.T
    gamma_shared = None
    if not cfg.per_domain_gammas:
        gamma_shared = rng.uniform(cfg.alpha, cfg.beta, cfg.specific_rank)
    gammas = []
    frames = []
    for _ in range(cfg.n_domains):
        if cfg.per_domain_gammas:
            gamma = rng.uniform(cfg.alpha, cfg.beta, cfg.specific_rank)
        else:
            gamma = gamma_shared
        gammas.append(gamma)
        frames.append(orthocomplement_frame(v, cfg.specific_rank, rng))
    return SourceComponents(lam, v, shared_term, tuple(gammas), tuple(frames))


def sample_source_covariances(cfg: GenConfig) -> DomainCollection:
    """Draw E trace-one source covariances of rank shared_rank + specific_rank.

    Domain e is ``(V diag(lam) V.T + V_e diag(gamma_e) V_e.T) / (sum(lam) +
    sum(gamma_e))``; the normalizer is per-domain whenever the gammas are.
    Domains get ids d0..d{E-1} and equal weights.
    """
    comp = sample_source_components(cfg)
    lam_sum = float(comp.shared_eigenvalues.sum())
    specs = []
    for e in range(cfg.n_domains):
        gamma = comp.gammas[e]
        ve = comp.specific_frames[e]
        sigma = (comp.shared_term + (ve * gamma) @ ve.T) / (lam_sum + float(gamma.sum()))
        specs.append(DomainSpec(id=f"d{e}", covariance=sigma, weight=1.0 / cfg.n_domains))
    return DomainCollection(tuple(specs))


def sample_target_covariance(sources, seed) -> np.ndarray:
    """Convex combination of the sources with simplex-uniform weights.

    Weights are normalized i.i.d. standard exponentials, which is exactly the
    flat Dirichlet distribution on the simplex.

    :raises InvalidInput: if there are no sources.
    """
    specs = list(sources)
    w = as_rng(seed).standard_exponential(len(specs))
    return mixture(specs, w / w.sum())


def sample_gaussian_rows(sigma, n: int, seed) -> np.ndarray:
    """Draw n rows from N(0, sigma) via the symmetric square root.

    Eigenvalues in [-1e-10 * trace, 0) are clipped to zero; anything more
    negative means the input is not a covariance.
    """
    if n < 0:
        raise InvalidInput(f"n must be nonnegative, got {n}")
    spec = sym_eigen(sigma)
    vals = spec.eigenvalues
    tr = float(vals.sum())
    if float(vals.min()) < -_PSD_RTOL * max(tr, 0.0):
        raise InvalidInput(f"matrix is not PSD: smallest eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    root = (spec.eigenvectors * np.sqrt(vals)) @ spec.eigenvectors.T
    rng = as_rng(seed)
    return rng.standard_normal((n, vals.shape[0])) @ root


def second_moment_collection(sources, blocks) -> DomainCollection:
    """Empirical domains from row blocks drawn for each source.

    ``blocks`` yields one n_e x p array per source, in order (a generator
    keeps only one block alive at a time). Domain e gets the uncentered
    second moment ``X.T X / n_e`` as its covariance and keeps the source's id
    and weight.
    """
    return DomainCollection(
        tuple(
            DomainSpec(id=d.id, covariance=x.T @ x / x.shape[0], weight=d.weight, n=x.shape[0])
            for d, x in zip(sources, blocks)
        )
    )


def add_heterogeneous_noise(rows, sigma_noise: float, seed) -> np.ndarray:
    """Add i.i.d. N(0, sigma_noise^2) noise to every entry; ``sigma_noise`` must be finite and >= 0."""
    data = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(sigma_noise):
        raise InvalidInput(f"noise level must be finite, got {sigma_noise}")
    if sigma_noise < 0.0:
        raise InvalidInput(f"noise level must be nonnegative, got {sigma_noise}")
    if sigma_noise == 0.0:
        return data.copy()
    rng = as_rng(seed)
    return data + sigma_noise * rng.standard_normal(data.shape)


def hidden_per_row(p: int, missing_frac: float) -> int:
    """How many of a row's ``p`` entries :func:`sample_masks` hides: round(missing_frac * p).

    :raises InvalidInput: if ``missing_frac`` lies outside [0, 1) or would
        hide every entry of a row.
    """
    if not 0.0 <= missing_frac < 1.0:
        raise InvalidInput(f"missing_frac must lie in [0, 1), got {missing_frac}")
    hidden = int(np.rint(missing_frac * p))
    if hidden >= p:
        raise InvalidInput(f"missing_frac={missing_frac} would mask all {p} entries of a row")
    return hidden


def sample_masks(n: int, p: int, missing_frac: float, seed) -> np.ndarray:
    """Per-row masks hiding exactly :func:`hidden_per_row` uniform entries.

    Returns an n x p ``bool`` array, True = observed, as the loaders and
    :class:`completion.MaskedDomain` use. The count is exact per row, not
    Bernoulli.
    """
    if n < 1 or p < 1:
        raise InvalidInput(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    hidden = hidden_per_row(p, missing_frac)
    mask = np.ones((n, p), dtype=bool)
    if hidden > 0:
        rng = as_rng(seed)
        order = np.argsort(rng.random((n, p)), axis=1)
        np.put_along_axis(mask, order[:, :hidden], False, axis=1)
    return mask
