"""Round trips for every declared file format."""

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


def test_labels_round_trip(tmp_path):
    labels = np.array([1, 2, 2, 3, 1])
    path = tmp_path / "labels.txt"
    eio.save_labels(path, labels)
    np.testing.assert_array_equal(eio.load_labels(path), labels)
    assert path.read_text().splitlines() == ["1", "2", "2", "3", "1"]


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


def test_table_csv_is_deterministic(tmp_path):
    rows = [(1, 0.1234567890123456789, 3.0)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    eio.save_table_csv(a, rows, header=["i", "x", "y"])
    eio.save_table_csv(b, rows, header=["i", "x", "y"])
    assert a.read_bytes() == b.read_bytes()
