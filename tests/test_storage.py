"""Tests for repro.storage (memory + SQLite stores, sketch roundtrips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx.sketch import build_approx_sketch
from repro.core.sketch import build_sketch
from repro.exceptions import StorageError
from repro.storage.base import StoreMetadata, WindowRecord
from repro.storage.memory import MemorySketchStore
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import (
    load_approx_sketch,
    load_sketch,
    save_approx_sketch,
    save_sketch,
)
from repro.storage.sqlite_store import SqliteSketchStore


@pytest.fixture(params=["memory", "sqlite-file", "sqlite-memory", "mmap"])
def store(request, tmp_path):
    """Every store implementation behind the same interface."""
    if request.param == "memory":
        yield MemorySketchStore()
    elif request.param == "sqlite-memory":
        with SqliteSketchStore(":memory:") as s:
            yield s
    elif request.param == "mmap":
        with MmapStore(tmp_path / "sketch.mm") as s:
            yield s
    else:
        with SqliteSketchStore(tmp_path / "sketch.db") as s:
            yield s


def _record(index, n=4, size=10, seed=0):
    rng = np.random.default_rng(seed + index)
    pairs = rng.normal(size=(n, n))
    pairs = 0.5 * (pairs + pairs.T)
    return WindowRecord(
        index=index,
        means=rng.normal(size=n),
        stds=np.abs(rng.normal(size=n)),
        pairs=pairs,
        size=size,
    )


class TestStoreContract:
    def test_metadata_roundtrip(self, store):
        metadata = StoreMetadata(
            names=("a", "b"), window_size=50, kind="approx", n_coeffs=12
        )
        store.write_metadata(metadata)
        assert store.read_metadata() == metadata

    def test_metadata_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.read_metadata()

    def test_window_roundtrip(self, store):
        records = [_record(i) for i in range(5)]
        store.write_windows(records)
        assert store.window_count() == 5
        loaded = store.read_windows([3, 1])
        assert [r.index for r in loaded] == [3, 1]
        np.testing.assert_allclose(loaded[0].means, records[3].means)
        np.testing.assert_allclose(loaded[0].pairs, records[3].pairs)
        assert loaded[0].size == records[3].size

    def test_missing_window_raises(self, store):
        store.write_windows([_record(0)])
        with pytest.raises(StorageError):
            store.read_windows([7])

    def test_overwrite_window(self, store):
        store.write_windows([_record(0, seed=1)])
        replacement = _record(0, seed=2)
        store.write_windows([replacement])
        assert store.window_count() == 1
        loaded = store.read_windows([0])[0]
        np.testing.assert_allclose(loaded.means, replacement.means)

    def test_size_bytes_grows(self, store):
        store.write_metadata(
            StoreMetadata(names=("a", "b", "c", "d"), window_size=10)
        )
        store.write_windows([_record(0)])
        first = store.size_bytes()
        store.write_windows([_record(i) for i in range(1, 40)])
        assert store.size_bytes() >= first


class TestSqliteBatchedReads:
    """read_windows issues WHERE idx IN (...) chunks, preserving order."""

    def test_requested_order_preserved(self, tmp_path):
        with SqliteSketchStore(tmp_path / "order.db") as store:
            store.write_windows([_record(i) for i in range(10)])
            wanted = [7, 0, 3, 9, 1]
            loaded = store.read_windows(wanted)
            assert [r.index for r in loaded] == wanted

    def test_duplicate_indices_served(self, tmp_path):
        with SqliteSketchStore(tmp_path / "dup.db") as store:
            store.write_windows([_record(i) for i in range(4)])
            loaded = store.read_windows([2, 2, 0, 2])
            assert [r.index for r in loaded] == [2, 2, 0, 2]
            np.testing.assert_array_equal(loaded[0].pairs, loaded[1].pairs)

    def test_reads_span_in_clause_chunks(self, tmp_path, monkeypatch):
        """Selections larger than one IN (...) chunk stay ordered and complete."""
        from repro.storage import sqlite_store as module

        monkeypatch.setattr(module, "_IN_CLAUSE_LIMIT", 3)
        with SqliteSketchStore(tmp_path / "chunk.db") as store:
            records = [_record(i) for i in range(11)]
            store.write_windows(records)
            wanted = [10, 4, 9, 0, 8, 1, 7, 2, 6, 3, 5]
            loaded = store.read_windows(wanted)
            assert [r.index for r in loaded] == wanted
            for got in loaded:
                np.testing.assert_array_equal(got.pairs, records[got.index].pairs)
                assert got.size == records[got.index].size

    def test_missing_index_raises_across_chunks(self, tmp_path, monkeypatch):
        from repro.storage import sqlite_store as module

        monkeypatch.setattr(module, "_IN_CLAUSE_LIMIT", 2)
        with SqliteSketchStore(tmp_path / "miss.db") as store:
            store.write_windows([_record(i) for i in range(5)])
            with pytest.raises(StorageError, match="99"):
                store.read_windows([0, 1, 2, 99, 3])

    def test_batched_read_matches_single_reads(self, tmp_path):
        with SqliteSketchStore(tmp_path / "eq.db") as store:
            store.write_windows([_record(i, n=6) for i in range(8)])
            batched = store.read_windows(list(range(8)))
            for i, record in enumerate(batched):
                single = store.read_windows([i])[0]
                np.testing.assert_array_equal(record.pairs, single.pairs)
                np.testing.assert_array_equal(record.means, single.means)
                np.testing.assert_array_equal(record.stds, single.stds)


class TestSqliteSpecifics:
    def test_file_persists_across_connections(self, tmp_path):
        path = tmp_path / "persist.db"
        with SqliteSketchStore(path) as store:
            store.write_metadata(StoreMetadata(names=("x",), window_size=5))
            store.write_windows([_record(0, n=1)])
        with SqliteSketchStore(path) as store:
            assert store.window_count() == 1
            assert store.read_metadata().names == ("x",)

    def test_size_reflects_file(self, tmp_path):
        path = tmp_path / "size.db"
        with SqliteSketchStore(path) as store:
            store.write_windows([_record(i, n=16) for i in range(20)])
            assert store.size_bytes() == path.stat().st_size

    def test_symmetry_preserved(self, tmp_path):
        with SqliteSketchStore(tmp_path / "sym.db") as store:
            record = _record(0, n=7)
            store.write_windows([record])
            loaded = store.read_windows([0])[0]
            np.testing.assert_allclose(loaded.pairs, loaded.pairs.T)
            np.testing.assert_allclose(loaded.pairs, record.pairs)

    def test_rejects_asymmetric_pairs(self, tmp_path):
        asymmetric = _record(2)
        asymmetric.pairs[0, 3] = np.nextafter(asymmetric.pairs[0, 3], np.inf)
        with SqliteSketchStore(tmp_path / "sym.db") as store:
            store.write_windows([_record(0)])
            with pytest.raises(StorageError, match="not symmetric"):
                store.write_windows([_record(1), asymmetric])
            # The batch is refused whole: no record of it was written.
            assert store.window_count() == 1


class TestSketchSerialization:
    def test_exact_roundtrip(self, small_matrix, tmp_path):
        sketch = build_sketch(small_matrix, window_size=50)
        with SqliteSketchStore(tmp_path / "exact.db") as store:
            save_sketch(store, sketch, batch_size=5)
            loaded = load_sketch(store)
        assert loaded.names == sketch.names
        assert loaded.window_size == sketch.window_size
        np.testing.assert_allclose(loaded.means, sketch.means)
        np.testing.assert_allclose(loaded.stds, sketch.stds)
        np.testing.assert_allclose(loaded.covs, sketch.covs)
        np.testing.assert_array_equal(loaded.sizes, sketch.sizes)

    def test_partial_window_load(self, small_matrix, tmp_path):
        sketch = build_sketch(small_matrix, window_size=50)
        with SqliteSketchStore(tmp_path / "part.db") as store:
            save_sketch(store, sketch)
            loaded = load_sketch(store, indices=[2, 5, 7])
        np.testing.assert_allclose(loaded.means, sketch.means[:, [2, 5, 7]])

    def test_approx_roundtrip(self, small_matrix, tmp_path):
        sketch = build_approx_sketch(small_matrix, 50, n_coeffs=20)
        with SqliteSketchStore(tmp_path / "approx.db") as store:
            save_approx_sketch(store, sketch)
            loaded = load_approx_sketch(store)
        assert loaded.n_coeffs == 20
        np.testing.assert_allclose(loaded.dists_sq, sketch.dists_sq)

    def test_kind_mismatch_raises(self, small_matrix, tmp_path):
        sketch = build_sketch(small_matrix, window_size=50)
        with SqliteSketchStore(tmp_path / "kind.db") as store:
            save_sketch(store, sketch)
            with pytest.raises(StorageError):
                load_approx_sketch(store)

    def test_loaded_sketch_answers_queries(self, small_matrix, tmp_path):
        """End-to-end: sketch -> disk -> load -> exact correlation."""
        from repro.core.lemma1 import combine_matrix

        sketch = build_sketch(small_matrix, window_size=50)
        with SqliteSketchStore(tmp_path / "query.db") as store:
            save_sketch(store, sketch)
            loaded = load_sketch(store)
        corr = combine_matrix(
            loaded.means, loaded.stds, loaded.covs, loaded.sizes
        )
        np.testing.assert_allclose(corr, np.corrcoef(small_matrix), atol=1e-10)
