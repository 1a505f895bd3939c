"""CSV ingestion, the centering/standardization pipeline, and covariance IO.

The pipeline is: drop rows with non-finite features, remove each domain's
column means, divide every column by its pooled (across-domain) standard
deviation, and form uncentered second moments Sigma_e = X_e.T X_e / n_e with
weights w_e = n_e / n. Covariance collections round-trip through CSV at 17
significant digits, which is lossless for float64; ``write_matrix`` and
``write_json`` are the package's one matrix and one JSON writer. Masked
CSVs (:func:`load_masked_csv`) load as float64 rows with zeros in the
missing cells plus boolean masks, True = observed.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .completion import MaskedDataset, MaskedDomain
from .errors import ConstantColumn, EmptyData, InvalidInput, SchemaError
from .linalg import orthonormal_frame
from .losses import DomainCollection, DomainSpec, LossKind, as_collection, domain_losses

__all__ = [
    "RawTable",
    "PreprocessedCollection",
    "load_csv",
    "preprocess",
    "explained_variance_table",
    "write_matrix",
    "write_json",
    "save_covariances",
    "load_covariances",
    "load_masked_csv",
    "masked_dataset_from_blocks",
]

_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class RawTable:
    """Parsed CSV: per-domain numeric blocks in first-appearance order."""

    feature_names: tuple[str, ...]
    domain_col: str
    blocks: dict[str, np.ndarray]
    dropped_rows: int


@dataclass(frozen=True)
class PreprocessedCollection:
    """Standardized per-domain data plus the derived domain collection.

    ``blocks`` hold the centered and pooled-standardized data; the
    collection's covariances are (1/n_e) X_e.T X_e of those blocks with
    weights n_e / n.
    """

    collection: DomainCollection
    blocks: dict[str, np.ndarray]
    domain_means: dict[str, np.ndarray]
    pooled_stds: np.ndarray
    feature_names: tuple[str, ...]


def _open_csv(path: str):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _resolve_features(fieldnames, domain_col: str, feature_cols):
    if domain_col not in fieldnames:
        raise SchemaError(f"domain column {domain_col!r} not found in header {list(fieldnames)}")
    if feature_cols is not None:
        missing = [c for c in feature_cols if c not in fieldnames]
        if missing:
            raise SchemaError(f"feature columns not in header: {missing}")
        features = [c for c in feature_cols if c != domain_col]
    else:
        features = [c for c in fieldnames if c != domain_col]
    if len(features) < 2:
        raise SchemaError(f"need at least 2 feature columns, found {len(features)}")
    return features


def _cell(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _read_rows(path: str, domain_col: str, feature_cols=None, keep=None):
    """Parse a labelled CSV into one float64 block per label.

    Empty, unparseable and absent (short-row) cells read as nan, an absent
    label as ``""``; blank lines are skipped and extra cells ignored. A
    duplicated header name refers to its last column. Rows for which
    ``keep(label, values)`` is false are counted and left out. Each kept
    row is packed straight onto its label's growing buffer of float64
    bytes, so no Python float objects outlive their row. Returns ``(features, blocks,
    left_out)``: ``blocks`` maps each label, in the order of its first kept
    row, to its rows as an n x len(features) array over that buffer.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyData(f"{path} has no header row")
        features = _resolve_features(header, domain_col, feature_cols)
        index = {name: i for i, name in enumerate(header)}
        label_at = index[domain_col]
        cols = [index[c] for c in features]
        width = max(label_at, *cols) + 1
        cells_of = operator.itemgetter(*cols)
        pack = struct.Struct(f"{len(cols)}d").pack
        buffers: dict[str, bytearray] = {}
        left_out = 0
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            label, cells = row[label_at], cells_of(row)
            try:
                values = [float(c) if c else math.nan for c in cells]
            except ValueError:
                values = [_cell(c) for c in cells]
            if keep is not None and not keep(label, values):
                left_out += 1
                continue
            buf = buffers.get(label)
            if buf is None:
                buf = buffers[label] = bytearray()
            buf += pack(*values)
    p = len(features)
    blocks = {label: np.frombuffer(buf).reshape(-1, p) for label, buf in buffers.items()}
    return features, blocks, left_out


def _complete_row(label: str, values) -> bool:
    return label != "" and all(map(math.isfinite, values))


def load_csv(path: str, domain_col: str, feature_cols=None) -> RawTable:
    """Read a delimited file with a header and one domain-label column.

    Rows with an empty label or any non-finite or unparseable feature are
    dropped and counted; a domain left with fewer than 2 rows is an error,
    and a file left with no rows at all is EmptyData.
    """
    features, blocks, dropped = _read_rows(path, domain_col, feature_cols, _complete_row)
    if not blocks:
        raise EmptyData(f"{path} has no usable data rows ({dropped} dropped)")
    for label, x in blocks.items():
        if x.shape[0] < 2:
            raise SchemaError(f"domain {label!r} has fewer than 2 usable rows")
    return RawTable(tuple(features), domain_col, blocks, dropped)


def preprocess(raw: RawTable) -> PreprocessedCollection:
    """Center per domain, standardize by pooled stds, build covariances."""
    centered = {}
    means = {}
    total_rows = 0
    for label, x in raw.blocks.items():
        mu = x.mean(axis=0)
        centered[label] = x - mu
        means[label] = mu
        total_rows += x.shape[0]
    pooled_var = np.zeros(len(raw.feature_names))
    for x in centered.values():
        pooled_var += np.sum(x * x, axis=0)
    pooled_var /= total_rows
    flat = np.flatnonzero(pooled_var < 1e-30)
    if flat.size:
        raise ConstantColumn(f"column {raw.feature_names[int(flat[0])]!r} is constant")
    stds = np.sqrt(pooled_var)
    blocks = {}
    specs = []
    for label, x in centered.items():
        z = x / stds
        blocks[label] = z
        n_e = z.shape[0]
        specs.append(
            DomainSpec(
                id=label,
                covariance=z.T @ z / n_e,
                weight=n_e / total_rows,
                n=n_e,
            )
        )
    return PreprocessedCollection(
        DomainCollection(tuple(specs)), blocks, means, stds, raw.feature_names
    )


def explained_variance_table(frame, collection) -> list[dict]:
    """Per-domain explained-variance proportions of each column prefix.

    The frame's columns are taken in order; row j of the output gives the
    proportion of domain variance captured by columns 1..j, from the products
    ``Sigma_e V`` of one :func:`losses.domain_losses` call. Pass an ordered
    frame (see the solvers' order_basis) for prefix-optimal semantics. The
    frame must pass :func:`linalg.orthonormal_frame`, else InvalidInput.
    """
    domains = collection.collection if isinstance(collection, PreprocessedCollection) else collection
    domains = as_collection(domains)
    b = orthonormal_frame(frame)
    if b.shape[0] != domains.p:
        raise InvalidInput(f"frame rows {b.shape[0]} do not match dimension {domains.p}")
    _, products = domain_losses(LossKind.VAR, b, domains.covariances, domains.traces, None)
    cumulative = np.cumsum(np.sum(b * products, axis=1), axis=1) / domains.traces[:, None]
    return [
        {"domain": d.id, "components": j + 1, "explained_variance": float(share)}
        for d, shares in zip(domains, cumulative)
        for j, share in enumerate(shares)
    ]


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def write_matrix(path: str, matrix) -> None:
    """Write a matrix (a vector as one row) as CSV at 17 significant digits."""
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt=_FLOAT_FMT)


def write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_covariances(collection, out_dir: str, feature_names=None) -> str:
    """Write one p x p CSV per domain plus a JSON manifest; returns its path.

    Entries are formatted at 17 significant digits, so reloading recovers
    the exact float64 values.

    :raises InvalidInput: if ``feature_names`` does not name every column.
    """
    domains = as_collection(collection)
    if feature_names is not None and len(feature_names) != domains.p:
        raise InvalidInput(f"{len(feature_names)} feature names for dimension {domains.p}")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, d in enumerate(domains):
        fname = f"cov_{i:02d}_{_safe_name(d.id)}.csv"
        write_matrix(os.path.join(out_dir, fname), d.covariance)
        entries.append({"id": d.id, "n": d.n, "weight": d.weight, "file": fname})
    manifest = {
        "columns": list(feature_names) if feature_names is not None else None,
        "domains": entries,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


def _is_json_number(value, types) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, types) and not isinstance(value, bool)


def load_covariances(path: str):
    """Load a covariance collection saved by :func:`save_covariances`.

    ``path`` may be the manifest file or the directory holding it. Returns
    ``(collection, feature_names_or_None)``; the names, when present, must
    number one per covariance column.
    """
    manifest_path = os.path.join(path, "manifest.json") if os.path.isdir(path) else path
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SchemaError(f"{manifest_path} is not a JSON object")
    entries = manifest.get("domains")
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{manifest_path} lists no domains")
    base = os.path.dirname(manifest_path)
    specs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or not isinstance(entry.get("file"), str):
            raise SchemaError(f"manifest domain {i} must be an object with 'id' and a 'file' name")
        weight, n = entry.get("weight"), entry.get("n")
        if not (weight is None or _is_json_number(weight, (int, float))):
            raise SchemaError(f"manifest domain {i} weight must be a number, got {weight!r}")
        if not (n is None or _is_json_number(n, int)):
            raise SchemaError(f"manifest domain {i} n must be an integer, got {n!r}")
        cov_path = os.path.join(base, entry["file"])
        try:
            cov = np.loadtxt(cov_path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise SchemaError(f"cannot read {cov_path}: {exc}") from exc
        except ValueError as exc:
            raise SchemaError(f"{cov_path} is not a numeric matrix: {exc}") from exc
        specs.append(
            DomainSpec(
                id=str(entry["id"]),
                covariance=cov,
                weight=float(weight) if weight is not None else 1.0 / len(entries),
                n=n,
            )
        )
    columns = manifest.get("columns")
    if not (columns is None or isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
        raise SchemaError(f"{manifest_path} columns must be a list of names, got {columns!r}")
    collection = DomainCollection(tuple(specs))
    if columns is not None and len(columns) != collection.p:
        raise SchemaError(f"{manifest_path} names {len(columns)} columns for dimension {collection.p}")
    return collection, tuple(columns) if columns else None


def load_masked_csv(path: str, domain_col: str, feature_cols=None):
    """Read a CSV where empty or non-finite cells mean "missing".

    Returns ``(feature_names, blocks)`` with ``blocks`` mapping domain label
    to ``(x, mask)``: ``x`` is float64 with 0 in masked cells, and ``mask``
    is boolean, True where the cell is observed. No row-count or
    all-observed constraints are applied here, so callers decide whether an
    all-masked row is an error.
    """
    features, by_domain, _ = _read_rows(path, domain_col, feature_cols)
    if not by_domain:
        raise EmptyData(f"{path} has no data rows")
    blocks = {}
    for label, x in by_domain.items():
        observed = np.isfinite(x)
        x[~observed] = 0.0
        blocks[label] = (x, observed)
    return tuple(features), blocks


def masked_dataset_from_blocks(blocks) -> MaskedDataset:
    """Build a MaskedDataset from ``{label: (x, mask)}`` blocks."""
    return MaskedDataset(
        tuple(MaskedDomain(id=label, x=x, mask=mask) for label, (x, mask) in blocks.items())
    )
