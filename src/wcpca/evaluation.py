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

from .datagen import sample_target_covariance
from .completion import CompletionModel, MaskedDataset, inductive_ols
from .errors import DegenerateBaseline
from .losses import LossKind, as_collection, average_covariance, loss, worst_case
from .rng import as_rng

__all__ = [
    "hull_supremum",
    "sample_hull_members",
    "relative_deltas",
    "mc_domain_losses",
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
    vm = getattr(method, "frame", method)
    vb = getattr(baseline, "frame", baseline)
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
    test = MaskedDataset(test)
    out = np.empty(len(test))
    for e, d in enumerate(test):
        _, recon = inductive_ols(d.x, d.mask, model.right_factor)
        diff = d.x - recon
        out[e] = float(np.sum(diff * diff)) / (d.n * d.p)
    return out
