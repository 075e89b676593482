"""Round trips for every declared file format."""

import csv
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from edrep import io as eio
from edrep.errors import ValidationError
from edrep.graphs import TemporalEdgeList


def test_dense_csv_round_trip(tmp_path):
    X = np.random.default_rng(1).standard_normal((7, 3))
    path = tmp_path / "m.csv"
    eio.save_dense_csv(path, X)
    np.testing.assert_allclose(eio.load_dense_csv(path), X, atol=0, rtol=0)


def test_dense_binary_round_trip(tmp_path):
    X = np.random.default_rng(2).standard_normal((5, 4))
    path = tmp_path / "m.edr1"
    eio.save_dense_binary(path, X)
    np.testing.assert_array_equal(eio.load_dense_binary(path), X)


def test_binary_layout_is_magic_counts_then_floats(tmp_path):
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "m.edr1"
    eio.save_dense_binary(path, X)
    blob = path.read_bytes()
    assert blob[:4] == b"EDR1"
    rows, cols = np.frombuffer(blob, dtype="<u8", count=2, offset=4)
    assert (rows, cols) == (3, 2)
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype="<f8", offset=20), [1, 2, 3, 4, 5, 6]
    )


def _old_edr1_bytes(X):
    """The EDR1 writer's bytes as built with two full-size temporaries."""
    return b"EDR1" + np.array(X.shape, dtype="<u8").tobytes() + X.astype("<f8").tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (257, 33)])
def test_binary_writer_bytes_unchanged(shape, tmp_path):
    X = np.random.default_rng(sum(shape)).standard_normal(shape)
    path = tmp_path / "m.edr1"
    eio.save_dense_binary(path, X)
    assert path.read_bytes() == _old_edr1_bytes(X)


def test_binary_reader_reports_a_file_that_ends_early(tmp_path, monkeypatch):
    """A file that shrinks after its size was read ends the read early."""
    path = tmp_path / "shrunk.edr1"
    path.write_bytes(_old_edr1_bytes(np.ones((2, 2)))[:-20])
    real_fstat = eio.os.fstat

    class Stat:
        def __init__(self, fd):
            self.st_size = real_fstat(fd).st_size + 20

    monkeypatch.setattr(eio.os, "fstat", Stat)
    with pytest.raises(ValidationError, match="shrunk.edr1 ended after 12 of its 32"):
        eio.load_dense_binary(path)


def _assert_aligned_c(arr):
    assert arr.flags.aligned and arr.flags.c_contiguous


def test_loaders_return_aligned_contiguous_arrays(tmp_path):
    X = np.random.default_rng(6).standard_normal((9, 5))
    eio.save_dense_binary(tmp_path / "m.edr1", X)
    eio.save_dense_csv(tmp_path / "m.csv", X)
    eio.save_sparse_mm(tmp_path / "a.mtx", sp.random(9, 9, density=0.3, random_state=6))
    eio.save_labels(tmp_path / "labels.txt", [1, 2, 2])
    (tmp_path / "edges.csv").write_text("1,2,1,1.5\n2,3,2,2.0\n")

    binary = eio.load_dense_binary(tmp_path / "m.edr1")
    _assert_aligned_c(binary)
    assert binary.flags.writeable and binary.flags.owndata
    _assert_aligned_c(eio.load_dense_csv(tmp_path / "m.csv"))
    _assert_aligned_c(eio.load_labels(tmp_path / "labels.txt"))
    edges = eio.load_temporal_csv(tmp_path / "edges.csv")
    for arr in (edges.i, edges.j, edges.t, edges.w):
        _assert_aligned_c(arr)
    A = eio.load_sparse_mm(tmp_path / "a.mtx")
    for arr in (A.data, A.indices, A.indptr):
        _assert_aligned_c(arr)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.edr1"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValidationError, match="magic"):
        eio.load_dense_binary(path)


def test_load_dense_dispatches_on_extension(tmp_path):
    X = np.random.default_rng(3).standard_normal((4, 2))
    eio.save_dense_binary(tmp_path / "a.edr1", X)
    eio.save_dense_csv(tmp_path / "a.csv", X)
    np.testing.assert_array_equal(eio.load_dense(tmp_path / "a.edr1"), X)
    np.testing.assert_allclose(eio.load_dense(tmp_path / "a.csv"), X)


def test_sparse_matrix_market_round_trip(tmp_path):
    A = sp.random(9, 9, density=0.3, random_state=4, format="csr")
    path = tmp_path / "a.mtx"
    eio.save_sparse_mm(path, A)
    B = eio.load_sparse_mm(path)
    assert (A != B).nnz == 0


def test_manifest_reads_a_repeated_factor_once(tmp_path, monkeypatch):
    """A walk manifest names one file per step; each distinct file is read
    once, so the chain holds, and transposes, one matrix."""
    A = sp.random(9, 9, density=0.3, random_state=4, format="csr") + sp.eye(9)
    eio.save_sparse_mm(tmp_path / "P.mtx", sp.diags(1 / A.sum(axis=1).A1) @ A)
    (tmp_path / "walk.json").write_text(
        '{"factors": ["P.mtx", "./P.mtx", "P.mtx"], "weights": [0.5, 0.25, 0.25]}'
    )
    read = []
    load = eio.load_sparse_mm
    monkeypatch.setattr(eio, "load_sparse_mm", lambda path: read.append(path) or load(path))
    chain = eio.load_operator(tmp_path / "walk.json")
    assert len(read) == 1
    assert chain.factors[0] is chain.factors[1] is chain.factors[2]
    assert len({id(t) for t in chain._transposes()}) == 1


def test_labels_round_trip(tmp_path):
    labels = np.array([1, 2, 2, 3, 1])
    path = tmp_path / "labels.txt"
    eio.save_labels(path, labels)
    np.testing.assert_array_equal(eio.load_labels(path), labels)
    assert path.read_text().splitlines() == ["1", "2", "2", "3", "1"]


@pytest.mark.parametrize(
    "labels, match",
    [
        ([1.5, 2.7], r"labels must hold whole numbers, offending records \[0, 1\]"),
        ([True, False], "labels must hold real numbers, got dtype bool"),
        ([1.0, 2.0**70], r"labels must hold whole numbers, offending records \[1\]"),
    ],
    ids=["fractional", "bools", "past-int64"],
)
def test_labels_that_are_not_whole_are_refused(tmp_path, labels, match):
    """Not written as 1, 2, as 1, 0, or as -2**63 after a RuntimeWarning."""
    path = tmp_path / "labels.txt"
    with pytest.raises(ValidationError, match=match):
        eio.save_labels(path, labels)
    assert not path.exists()


def test_temporal_csv_reader(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# i,j,t,w\n1,2,1,1.5\n2,3,2,2.0\n")
    edges = eio.load_temporal_csv(path)
    assert isinstance(edges, TemporalEdgeList)
    np.testing.assert_array_equal(edges.i, [1, 2])
    np.testing.assert_array_equal(edges.t, [1, 2])
    np.testing.assert_allclose(edges.w, [1.5, 2.0])


def test_temporal_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("1,2,1\n")
    with pytest.raises(ValidationError, match="fields"):
        eio.load_temporal_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="no records"):
        eio.load_temporal_csv(empty)


def test_temporal_csv_checks_every_row_and_skips_header(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1,2,1,1.0\n2,3,2\n")
    with pytest.raises(ValidationError, match="fields"):
        eio.load_temporal_csv(short)
    header = tmp_path / "header.csv"
    header.write_text("# i,j,t,w\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no records"):
            eio.load_temporal_csv(header)


def test_temporal_csv_matches_row_by_row_reference(tmp_path):
    """The one-call reader returns bitwise the arrays of a csv-module loop."""
    rng = np.random.default_rng(5)
    n = 500
    i = rng.integers(0, 40, n)
    rows = list(zip(i, i + 1 + rng.integers(0, 9, n), rng.integers(1, 300, n), rng.random(n) + 1e-3))
    path = tmp_path / "edges.csv"
    eio.save_table_csv(path, rows, header=["# i", "j", "t", "w"])
    with open(path, newline="") as fh:
        records = [rec for rec in csv.reader(fh) if not rec[0].startswith("#")]
    reference = [np.array([conv(rec[k]) for rec in records]) for k, conv in
                 enumerate((int, int, int, float))]
    edges = eio.load_temporal_csv(path)
    for got, want in zip((edges.i, edges.j, edges.t, edges.w), reference):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_missing_files_raise_validation_errors(tmp_path):
    for loader in (
        eio.load_dense_csv,
        eio.load_dense_binary,
        eio.load_sparse_mm,
        eio.load_labels,
        eio.load_temporal_csv,
    ):
        with pytest.raises(ValidationError):
            loader(tmp_path / "missing.file")


@pytest.mark.parametrize(
    "loader, content",
    [
        (eio.load_dense_csv, b"1.0,five\n"),
        (eio.load_dense_binary, b"EDR1" + bytes(8)),
        (eio.load_dense_binary, b"EDR1" + np.array([2, 2], dtype="<u8").tobytes() + bytes(12)),
        (eio.load_labels, b"1\ntwo\n"),
        (eio.load_temporal_csv, b"x,3,1,1.0\n"),
        (eio.load_temporal_csv, b"1,3,1,heavy\n"),
        (eio.load_dense_csv, b""),
        (eio.load_dense_binary, b"EDR1" + np.array([0, 5], dtype="<u8").tobytes()),
        (eio.load_labels, b""),
        (eio.load_temporal_csv, b"# i,j,t,w\n"),
        (eio.load_labels, b"1 2\n3 4\n"),
        (eio.load_labels, b"1 2\n"),
    ],
    ids=["csv-word", "edr1-short-header", "edr1-partial-value", "labels-word",
         "temporal-node", "temporal-weight", "csv-empty", "edr1-no-rows", "labels-empty",
         "temporal-empty", "labels-two-per-line", "labels-one-line-of-two"],
)
def test_malformed_files_raise_validation_errors_naming_the_file(loader, content, tmp_path):
    path = tmp_path / "input.file"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match="input.file"):
        loader(path)


def test_table_csv_is_deterministic(tmp_path):
    rows = [(1, 0.1234567890123456789, 3.0)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    eio.save_table_csv(a, rows, header=["i", "x", "y"])
    eio.save_table_csv(b, rows, header=["i", "x", "y"])
    assert a.read_bytes() == b.read_bytes()
