"""Seeded input generators for the benchmark, in plain numpy.

Nothing here imports ``wcpca``: a change to the package's own data
generators cannot change the bytes the benchmark feeds it. Every input is a
pure function of ``(seed, variant)``; :func:`digest` hashes the files so a
run records that the parent and the change read identical bytes.

Three structures are fixed by ``BASE_SEED`` and never depend on the workload
seed:

* the five ``fit-wide`` covariances. A workload seed only rotates all of them
  by one Haar-random orthogonal matrix, which leaves every worst-case
  objective value unchanged, so the stored references in ``references.json``
  hold for every seed;
* the rank-5 right factor and the per-domain scales of ``complete-predict``.
  A workload seed draws the rows, the noise and the missingness masks;
* the pool of ``STUDY_POOL`` study seeds of ``pca-study``. A workload seed
  draws its variants from the pool, whose het-noise results have stored
  references in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

BASE_SEED = 20260311

STUDY_POOL = 24

WIDE_P = 400
WIDE_DOMAINS = 5
WIDE_K = 5

MC_P = 100
MC_DOMAINS = 5
MC_RANK = 5
MC_TRAIN_ROWS = 500
MC_HELD_ROWS = 500
MC_MISSING = 0.8
# Every row keeps at least this many observed cells (three times the rank),
# so no row's least-squares problem is near-singular. Without it one
# five-cell row in 25,000 could carry 40% of a run's hidden-cell error.
MC_MIN_OBSERVED = 15

_FMT = "%.17g"


def variant_rng(seed: int, variant: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(variant), int(stream)])


def haar(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed p x k orthonormal frame (QR with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((p, k)))
    return q * np.sign(np.diag(r))


def study_pool() -> list[int]:
    """The fixed study seeds that pca-study variants are drawn from."""
    rng = np.random.default_rng(BASE_SEED + 2)
    return [int(s) for s in rng.choice(2**31 - 1, STUDY_POOL, replace=False)]


def study_seed(seed: int, variant: int) -> int:
    """The ``--seed`` passed to ``wcpca simulate`` for one pca-study variant.

    The workload seed draws distinct pool members, in a seeded order.
    """
    order = np.random.default_rng([int(seed), STUDY_POOL]).permutation(STUDY_POOL)
    return study_pool()[int(order[variant])]


# --- fit-wide --------------------------------------------------------------


def wide_base_covariances() -> np.ndarray:
    """The fixed (E, p, p) stack: shared rank-5 part, own rank-5 part, noise."""
    rng = np.random.default_rng(BASE_SEED)
    shared = haar(WIDE_P, 5, rng)
    covs = np.empty((WIDE_DOMAINS, WIDE_P, WIDE_P))
    for e in range(WIDE_DOMAINS):
        own = haar(WIDE_P, 5, rng)
        a = np.sort(rng.uniform(0.5, 3.0, 5))[::-1]
        b = np.sort(rng.uniform(0.5, 3.0, 5))[::-1]
        noise = rng.uniform(0.002, 0.01)
        scale = rng.uniform(0.5, 2.0)
        sigma = (shared * a) @ shared.T + (own * b) @ own.T + noise * np.eye(WIDE_P)
        covs[e] = scale * (sigma + sigma.T) / 2.0
    return covs


def wide_covariances(seed: int, variant: int, base: np.ndarray) -> np.ndarray:
    """The base stack rotated by one Haar matrix drawn from (seed, variant)."""
    q = haar(WIDE_P, WIDE_P, variant_rng(seed, variant, 1))
    rotated = q @ base @ q.T
    return (rotated + rotated.transpose(0, 2, 1)) / 2.0


def write_manifest(covs: np.ndarray, out_dir: str) -> str:
    """Write covariances in the ``wcpca fit --from-cov`` manifest format."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for e, c in enumerate(covs):
        name = f"cov_{e:02d}_d{e}.csv"
        np.savetxt(os.path.join(out_dir, name), c, delimiter=",", fmt=_FMT)
        entries.append({"id": f"d{e}", "n": 1000, "weight": 1.0 / len(covs), "file": name})
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": None, "domains": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --- complete-predict ------------------------------------------------------


@dataclass(frozen=True)
class MaskedInputs:
    """Held-out truth the benchmark keeps back from the program."""

    labels: tuple[str, ...]
    held_x: np.ndarray  # (E, n_held, p), every cell, including hidden ones
    held_mask: np.ndarray  # (E, n_held, p), 1 = written to the held-out CSV
    factor: np.ndarray  # true p x rank right factor


def _mc_structure():
    rng = np.random.default_rng(BASE_SEED + 1)
    factor = haar(MC_P, MC_RANK, rng)
    scales = rng.uniform(0.5, 2.0, (MC_DOMAINS, MC_RANK))
    noise = rng.uniform(0.05, 0.2, MC_DOMAINS)
    return factor, scales, noise


def _mc_rows(rng, n, factor, scales, noise):
    z = rng.standard_normal((n, MC_RANK)) * scales
    x = z @ factor.T + noise * rng.standard_normal((n, MC_P))
    mask = (rng.random((n, MC_P)) >= MC_MISSING).astype(np.float64)
    for i in np.flatnonzero(mask.sum(axis=1) < MC_MIN_OBSERVED):
        hidden = np.flatnonzero(mask[i] == 0.0)
        extra = MC_MIN_OBSERVED - int(mask[i].sum())
        mask[i, rng.choice(hidden, extra, replace=False)] = 1.0
    return x, mask


def _write_masked_csv(path: str, labels, xs, masks) -> None:
    header = ["domain"] + [f"f{j:03d}" for j in range(MC_P)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for label, x, mask in zip(labels, xs, masks):
            for row, obs in zip(x, mask):
                cells = [(_FMT % v) if o else "" for v, o in zip(row.tolist(), obs.tolist())]
                fh.write(label + "," + ",".join(cells) + "\n")


def write_masked(seed: int, variant: int, out_dir: str) -> MaskedInputs:
    """Write ``train.csv`` and ``held.csv``; return the hidden truth."""
    factor, scales, noise = _mc_structure()
    labels = tuple(f"d{e}" for e in range(MC_DOMAINS))
    train_rng = variant_rng(seed, variant, 2)
    held_rng = variant_rng(seed, variant, 3)
    train = [_mc_rows(train_rng, MC_TRAIN_ROWS, factor, scales[e], noise[e]) for e in range(MC_DOMAINS)]
    held = [_mc_rows(held_rng, MC_HELD_ROWS, factor, scales[e], noise[e]) for e in range(MC_DOMAINS)]
    os.makedirs(out_dir, exist_ok=True)
    _write_masked_csv(os.path.join(out_dir, "train.csv"), labels, *zip(*train))
    _write_masked_csv(os.path.join(out_dir, "held.csv"), labels, *zip(*held))
    return MaskedInputs(
        labels=labels,
        held_x=np.stack([x for x, _ in held]),
        held_mask=np.stack([m for _, m in held]),
        factor=factor,
    )


# --- provenance ------------------------------------------------------------


def digest(paths) -> dict:
    """Total size and one sha256 over the given files, in sorted order."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(path).encode())
        h.update(data)
        size += len(data)
    return {"files": len(paths), "bytes": size, "sha256": h.hexdigest()}
