"""File formats: MatrixMarket sparse, headerless CSV and EDR1 binary dense,
one-integer-per-line labels, 4-column temporal edge CSV, tidy result tables."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import scipy.io as spio
import scipy.sparse as sp

from .errors import ValidationError
from .matstore import as_csr, as_dense

_MAGIC = b"EDR1"


def save_dense_csv(path, X) -> None:
    X = as_dense(X)
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


def load_dense_csv(path) -> np.ndarray:
    try:
        X = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read dense CSV {path}: {exc}") from exc
    return as_dense(X, name=str(path))


def save_dense_binary(path, X) -> None:
    """Write the raw binary format: magic "EDR1", two little-endian
    64-bit counts (rows, cols), then row-major little-endian float64."""
    X = as_dense(X)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(X.shape, dtype="<u8").tobytes())
        fh.write(X.astype("<f8").tobytes(order="C"))


def load_dense_binary(path) -> np.ndarray:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _MAGIC:
        raise ValidationError(f"{path} is not an EDR1 file (bad magic bytes)")
    rows, cols = np.frombuffer(blob, dtype="<u8", count=2, offset=4)
    data = np.frombuffer(blob, dtype="<f8", offset=4 + 16)
    if data.size != rows * cols:
        raise ValidationError(
            f"{path} declares {rows}x{cols} values but holds {data.size}"
        )
    return as_dense(data.reshape(int(rows), int(cols)), name=str(path))


def load_dense(path) -> np.ndarray:
    """Dispatch on extension: .edr1 binary, anything else headerless CSV."""
    if str(path).endswith(".edr1"):
        return load_dense_binary(path)
    return load_dense_csv(path)


def save_sparse_mm(path, A) -> None:
    spio.mmwrite(str(path), as_csr(A))


def load_sparse_mm(path) -> sp.csr_matrix:
    try:
        M = spio.mmread(str(path))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read MatrixMarket file {path}: {exc}") from exc
    return as_csr(M, name=str(path))


def save_labels(path, labels) -> None:
    """One integer label per line."""
    arr = np.asarray(getattr(labels, "labels", labels), dtype=np.int64)
    np.savetxt(path, arr, fmt="%d")


def load_labels(path) -> np.ndarray:
    try:
        arr = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except OSError as exc:
        raise ValidationError(f"cannot read label file {path}: {exc}") from exc
    return arr


def load_temporal_csv(path):
    """Read weighted temporal edges from a 4-column CSV (i, j, t, w)."""
    from .graphs import TemporalEdgeList

    rows = []
    try:
        with open(path, newline="") as fh:
            for k, rec in enumerate(csv.reader(fh)):
                if not rec or rec[0].lstrip().startswith("#"):
                    continue
                if len(rec) != 4:
                    raise ValidationError(
                        f"record {k} of {path} has {len(rec)} fields, expected 4"
                    )
                rows.append((int(rec[0]), int(rec[1]), int(rec[2]), float(rec[3])))
    except OSError as exc:
        raise ValidationError(f"cannot read temporal CSV {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"temporal CSV {path} holds no records")
    i, j, t, w = (np.array(col) for col in zip(*rows))
    return TemporalEdgeList(i=i, j=j, t=t, w=w)


def save_table_csv(path, rows, header: list[str]) -> None:
    """Write a tidy table with a one-line header; floats use repr precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return np.format_float_scientific(v, unique=True)
    return v
