"""Dense symmetric and orthogonal linear-algebra kernels.

Everything downstream (losses, solvers, completion, data generation) is built
on the handful of primitives in this module: eigendecomposition of symmetric
matrices, projection onto the set of matrices with orthonormal columns, a
span-level distance, and two random-frame samplers. All arithmetic is double
precision; worst-case objectives amplify small eigen-gaps, so no
single-precision path exists.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidRank, RankDeficient
from .rng import as_rng

__all__ = [
    "Spectrum",
    "as_frame",
    "orthonormal_frame",
    "as_covariance",
    "sym_eigen",
    "sym_eigenvalues",
    "top_k_frame",
    "stiefel_project",
    "projection_distance",
    "haar_frame",
    "orthocomplement_frame",
]

# Relative asymmetry beyond this is rejected rather than silently averaged.
_ASYMMETRY_RTOL = 1e-6
# A Gram eigenvalue (a squared singular value) at or below mu_max * this
# ratio counts as numerically zero.
_RANK_RTOL = 1e-12


class Spectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``; the matrix is
    orthogonal, so ``Q @ diag(w) @ Q.T`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_frame(v) -> np.ndarray:
    """Return ``v`` as a float64 p x k frame; 1-D input becomes one column.

    Raises
    ------
    InvalidInput
        If ``v`` has neither one nor two dimensions.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInput(f"frame must be 2-D, got shape {a.shape}")
    return a


def orthonormal_frame(v) -> np.ndarray:
    """:func:`as_frame` of ``v``, which must be nonempty, finite and orthonormal
    (max |V.T V - I| <= 1e-8), else InvalidInput."""
    a = as_frame(v)
    if 0 in a.shape or not np.isfinite(a).all():
        raise InvalidInput(f"frame must be nonempty and finite, got shape {a.shape}")
    if np.max(np.abs(a.T @ a - np.eye(a.shape[1]))) > 1e-8:
        raise InvalidInput("frame columns must be orthonormal to within 1e-8")
    return a


def as_covariance(a) -> np.ndarray:
    """Validate a square matrix and return its symmetrized copy (A + A.T)/2.

    Parameters
    ----------
    a : array_like
        Square real matrix.

    Returns
    -------
    numpy.ndarray
        Symmetric float64 copy of ``a``.

    Raises
    ------
    InvalidInput
        If ``a`` is not square, has non-finite entries, or its asymmetry
        exceeds 1e-6 relative to the largest entry magnitude.
    """
    m = np.array(a, dtype=np.float64, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"covariance must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("covariance has non-finite entries")
    # m is reused for |m - sym| once its scale is read: two p x p arrays
    scale = max(float(m.max()), -float(m.min())) if m.size else 0.0
    sym = m + m.T
    sym /= 2.0
    if scale > 0.0:
        # m - sym is half the antisymmetric part m - m.T
        asym = 2.0 * float(np.abs(np.subtract(m, sym, out=m), out=m).max())
        if asym > _ASYMMETRY_RTOL * scale:
            raise InvalidInput(
                f"matrix asymmetry {asym:.3e} exceeds {_ASYMMETRY_RTOL:g} relative tolerance"
            )
    return sym


def sym_eigen(sigma) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    sigma : array_like
        Square p x p matrix, checked by :func:`as_covariance`: asymmetry
        beyond its tolerance is rejected, and rounding-level asymmetry is
        averaged away, so the decomposition is that of
        ``(sigma + sigma.T) / 2``.

    Returns
    -------
    Spectrum
        Descending eigenvalues and the matching orthogonal eigenvector matrix.

    Raises
    ------
    InvalidInput
        On non-finite entries, a non-square input or asymmetry beyond 1e-6
        relative to the largest entry magnitude.
    """
    w, q = np.linalg.eigh(as_covariance(sigma))
    # eigh returns ascending order; reverse for the descending convention.
    return Spectrum(w[::-1].copy(), q[:, ::-1].copy())


def sym_eigenvalues(sigma) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors.

    Takes the same input as :func:`sym_eigen` and raises the same errors;
    ``eigvalsh`` skips the eigenvector work, which more than halves the cost
    at p = 400.
    """
    return np.linalg.eigvalsh(as_covariance(sigma))[::-1].copy()


def top_k_frame(sigma, k: int) -> np.ndarray:
    """Return the p x k frame of eigenvectors for the k largest eigenvalues.

    Ties produce an arbitrary but deterministic basis of the tied eigenspace,
    so callers should assert spans or objective values, never specific
    vectors.

    Raises
    ------
    InvalidRank
        If ``k`` is outside ``1..p``.
    """
    spec = sym_eigen(sigma)
    p = spec.eigenvalues.shape[0]
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    return spec.eigenvectors[:, :k].copy()


def stiefel_project(m) -> np.ndarray:
    """Project a full-column-rank p x k matrix onto the orthonormal frames.

    ``m`` is one p x k matrix or an ``(R, p, k)`` stack of them; a stack is
    projected slice by slice in one call of each kind, with the bits of the
    per-slice calls. Returns the polar factor ``A (A.T A)^{-1/2}`` of
    ``A = m``, the closest orthonormal frame in Frobenius norm (``U @ W.T``
    of the thin SVD ``A = U S W.T``). It is computed from the k x k Gram
    matrix: with ``A.T A = W diag(mu) W.T`` from ``eigh``, the factor is
    ``A @ (W / sqrt(mu)) @ W.T``, so no SVD of the p x k matrix is taken.
    Forming the Gram squares the condition number kappa = s_max / s_min,
    so the result is accurate to about kappa**2 times machine epsilon: at
    the rounding level for the near-orthonormal iterates of a retraction,
    looser than an SVD for ill-conditioned input. Matrices that already
    have orthonormal columns map to themselves within 1e-10.

    Raises
    ------
    InvalidInput
        If ``m`` is neither 2-D nor 3-D or has more columns than rows.
    RankDeficient
        If, in any slice, the smallest Gram eigenvalue is at or below 1e-12
        times the largest, i.e. the smallest singular value is at or below
        1e-6 times the largest (no accurate polar factor from the Gram).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise InvalidInput(f"expected a 2-D array or a stack of them, got shape {a.shape}")
    if a.shape[-1] > a.shape[-2]:
        raise InvalidInput(f"cannot orthonormalize {a.shape[-1]} columns in {a.shape[-2]} rows")
    mu, w = np.linalg.eigh(a.swapaxes(-1, -2) @ a)
    # eigh sorts ascending; the comparison also rejects an all-zero or NaN Gram.
    if not np.all(mu[..., 0] > mu[..., -1] * _RANK_RTOL):
        raise RankDeficient("matrix is numerically rank-deficient")
    return a @ (w / np.sqrt(mu)[..., None, :]) @ w.swapaxes(-1, -2)


def projection_distance(v, w) -> float:
    """Span distance ``||V V.T - W W.T||_F`` between two frames.

    Symmetric, zero iff the spans coincide, and invariant to
    right-multiplication of either frame by a k x k orthogonal matrix.
    One-dimensional inputs are treated as single-column frames.

    Raises
    ------
    InvalidInput
        If either frame is not 1-D or 2-D, or the frames differ in shape.
    """
    a = as_frame(v)
    b = as_frame(w)
    if a.shape != b.shape:
        raise InvalidInput(f"frame shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a @ a.T - b @ b.T, "fro"))


def haar_frame(p: int, k: int, seed) -> np.ndarray:
    """Draw a p x k frame whose span is Haar-distributed.

    QR-decomposes a p x p standard Gaussian matrix and normalizes the signs of
    R's diagonal to positive, which makes the Q factor exactly Haar; the first
    k columns are returned as an array that owns its data, so a kept frame
    does not hold the whole p x p factor alive. Deterministic given ``seed``
    (an int or a ``numpy.random.Generator``).

    Raises
    ------
    InvalidRank
        If ``k`` is outside ``1..p``.
    """
    if not 1 <= k <= p:
        raise InvalidRank(f"k must be in 1..{p}, got {k}")
    rng = as_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return (q * d)[:, :k].copy()


def orthocomplement_frame(v, k2: int, seed) -> np.ndarray:
    """Draw a random p x k2 frame orthogonal to the span of ``v``.

    A Gaussian p x k2 matrix is projected by ``I - v v.T`` and orthonormalized
    by QR; a second projection-and-QR pass tightens the orthogonality to
    ``v`` against rounding. One Gaussian matrix is drawn; its projection is
    rank-deficient with probability zero.

    Raises
    ------
    InvalidInput
        If ``v`` is not 1-D or 2-D.
    InvalidRank
        If ``k + k2 > p`` or ``k2 < 1``.
    RankDeficient
        If the projected draw is numerically rank-deficient.
    """
    base = as_frame(v)
    p, k = base.shape
    if k2 < 1 or k + k2 > p:
        raise InvalidRank(f"cannot fit {k2} complement columns: k={k}, p={p}")
    g = as_rng(seed).standard_normal((p, k2))
    q, r = np.linalg.qr(g - base @ (base.T @ g))
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * diag.max():
        raise RankDeficient("projected Gaussian draw is rank-deficient")
    q, r2 = np.linalg.qr(q - base @ (base.T @ q))
    d = np.sign(np.diag(r2))
    d[d == 0] = 1.0
    return q * d
