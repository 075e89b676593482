"""File formats: MatrixMarket sparse, headerless CSV and EDR1 binary dense,
one-integer-per-line labels, 4-column temporal edge CSV, JSON operator
manifests, tidy result tables.  A file that a reader cannot parse, or
that holds no values, raises ValidationError naming the file."""

from __future__ import annotations

import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import scipy.io as spio
import scipy.sparse as sp

from .errors import ValidationError
from .matstore import ProductChain, as_csr, as_dense

_MAGIC = b"EDR1"
#: The magic and the two counts.
_HEADER_BYTES = 20


def save_dense_csv(path, X) -> None:
    X = as_dense(X)
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


def _loadtxt(path, kind: str, **kwargs) -> np.ndarray:
    """``np.loadtxt``, with a file it cannot parse or that holds no
    values reported as a ValidationError naming the file."""
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, not as numpy's warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, **kwargs)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {kind} {path}: {exc}") from exc
    if values.size == 0:
        raise ValidationError(f"{kind} {path} holds no records")
    return values


def load_dense_csv(path) -> np.ndarray:
    X = _loadtxt(path, "dense CSV", delimiter=",", dtype=np.float64, ndmin=2)
    return as_dense(X, name=str(path))


def save_dense_binary(path, X) -> None:
    """Write the raw binary format: magic "EDR1", two little-endian
    64-bit counts (rows, cols), then row-major little-endian float64.

    The values are written straight from the array's own buffer; only a
    big-endian host makes a little-endian copy first.
    """
    X = as_dense(X).astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(X.shape, dtype="<u8").tobytes())
        fh.write(X.data)


def load_dense_binary(path) -> np.ndarray:
    """Read an EDR1 file into a new aligned, writable float64 array.

    The declared shape is checked against the file size before the
    values are read, and the values are read straight into the array.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER_BYTES)
            if header[:4] != _MAGIC or len(header) < _HEADER_BYTES:
                raise ValidationError(
                    f"{path} is not an EDR1 file (bad magic bytes or short header)"
                )
            rows, cols = (int(v) for v in np.frombuffer(header, dtype="<u8", offset=4))
            if rows * cols == 0:
                raise ValidationError(f"{path} declares {rows}x{cols}, no values")
            size = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
            if size != 8 * rows * cols:
                raise ValidationError(
                    f"{path} declares {rows}x{cols} values but holds {size} data bytes"
                )
            X = np.empty((rows, cols), dtype="<f8")
            got = fh.readinto(X)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if got != size:
        raise ValidationError(f"{path} ended after {got} of its {size} data bytes")
    return as_dense(X, name=str(path))


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


def load_operator(path) -> ProductChain:
    """A checked row-stochastic chain from a MatrixMarket file, or from a JSON
    manifest ``{"factors": [...], "weights": [...]}`` naming files beside it."""
    if not str(path).endswith(".json"):
        chain = ProductChain([load_sparse_mm(path)])
        chain.validate_stochastic()
        return chain
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValidationError(f"cannot read chain manifest {path}: {exc}") from exc
    names = manifest.get("factors") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or not all(isinstance(f, str) for f in names):
        raise ValidationError(f'chain manifest {path} needs a "factors" list of file names')
    factors = [load_sparse_mm(Path(path).parent / f) for f in names]
    try:
        chain = ProductChain(factors, weights=manifest.get("weights"))
        chain.validate_stochastic()
    except ValidationError as exc:
        raise ValidationError(f"chain manifest {path}: {exc}") from exc
    return chain


def save_labels(path, labels) -> None:
    """One integer label per line."""
    arr = np.asarray(getattr(labels, "labels", labels), dtype=np.int64)
    np.savetxt(path, arr, fmt="%d")


def load_labels(path) -> np.ndarray:
    return _loadtxt(path, "label file", dtype=np.int64, ndmin=1)


_TEMPORAL_DTYPE = [("i", "<i8"), ("j", "<i8"), ("t", "<i8"), ("w", "<f8")]


def load_temporal_csv(path):
    """Read weighted temporal edges from a 4-column CSV (i, j, t, w).

    Blank lines and text from a '#' to the end of its line are skipped.
    """
    from .graphs import TemporalEdgeList

    rec = _loadtxt(
        path, "temporal CSV (fields i, j, t, w)",
        delimiter=",", comments="#", dtype=_TEMPORAL_DTYPE, ndmin=1,
    )
    return TemporalEdgeList(i=rec["i"], j=rec["j"], t=rec["t"], w=rec["w"])


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
