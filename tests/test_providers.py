"""Tests for repro.engine.providers (pluggable sketch backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import TsubasaHistorical
from repro.core.packing import pack_symmetric
from repro.core.realtime import TsubasaRealtime
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
    SketchProvider,
)
from repro.exceptions import DataError, SketchError, StorageError
from repro.parallel.executor import parallel_query
from repro.storage.memory import MemorySketchStore
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore
from repro.streams.ingestion import StreamIngestor


@pytest.fixture()
def sqlite_store(small_sketch, tmp_path):
    """An on-disk SQLite store holding the small sketch (12 windows, B=50)."""
    store = SqliteSketchStore(tmp_path / "prov.db")
    save_sketch(store, small_sketch)
    yield store
    store.close()


@pytest.fixture()
def mmap_dir(small_sketch, tmp_path):
    """An mmap store directory holding the small sketch (12 windows, B=50)."""
    path = tmp_path / "prov.mm"
    with MmapStore(path) as store:
        save_sketch(store, small_sketch)
    return path


def _forbid_materialize(provider):
    """Make any materialize() call fail the test (fan-out must not do it)."""

    def boom(indices=None):
        raise AssertionError("provider.materialize() called before fan-out")

    provider.materialize = boom
    return provider


class TestInMemoryProvider:
    def test_metadata(self, small_sketch):
        provider = InMemoryProvider(small_sketch)
        assert provider.n_series == 20
        assert provider.n_windows == 12
        assert provider.window_size == 50
        assert provider.length == 600
        assert not provider.has_raw_data

    def test_window_stats_and_covs(self, small_sketch):
        provider = InMemoryProvider(small_sketch)
        idx = np.array([2, 5, 7])
        means, stds, sizes = provider.window_stats(idx)
        np.testing.assert_array_equal(means, small_sketch.means[:, idx])
        np.testing.assert_array_equal(stds, small_sketch.stds[:, idx])
        np.testing.assert_array_equal(sizes, small_sketch.sizes[idx])
        np.testing.assert_array_equal(provider.covs(idx), small_sketch.covs[idx])

    def test_cov_chunking_covers_selection(self, small_sketch):
        provider = InMemoryProvider(small_sketch)
        idx = np.arange(12)
        chunks = list(provider.iter_cov_chunks(idx, chunk_windows=5))
        assert [c.shape[0] for c in chunks] == [5, 5, 2]
        np.testing.assert_array_equal(
            np.concatenate(chunks, axis=0), small_sketch.covs
        )

    def test_rejects_mismatched_raw_data(self, small_sketch, rng):
        with pytest.raises(DataError):
            InMemoryProvider(small_sketch, data=rng.normal(size=(20, 599)))

    def test_rejects_out_of_range_windows(self, small_sketch):
        provider = InMemoryProvider(small_sketch)
        with pytest.raises(SketchError):
            provider.window_stats(np.array([12]))

    def test_materialize_returns_wrapped_sketch(self, small_sketch):
        provider = InMemoryProvider(small_sketch)
        assert provider.materialize() is small_sketch
        subset = provider.materialize(np.array([0, 3]))
        np.testing.assert_array_equal(subset.covs, small_sketch.covs[[0, 3]])


class TestStoreBackedEngine:
    """A SQLite store loaded whole serves the engine like the in-memory sketch."""

    def test_aligned_query_matches_in_memory_engine(
        self, sqlite_store, small_matrix
    ):
        engine = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store)), chunk_windows=3
        )
        reference = TsubasaHistorical(small_matrix, window_size=50)
        got = engine.correlation_matrix((599, 300))
        want = reference.correlation_matrix((599, 300))
        np.testing.assert_allclose(got.values, want.values, atol=1e-10)

    @pytest.mark.parametrize(
        "end,length",
        [(599, 73), (523, 317), (101, 51), (570, 491), (49, 30)],
    )
    def test_arbitrary_query_with_raw_data(self, sqlite_store, small_matrix, end, length):
        """SQLite-loaded arbitrary windows: head/tail fragments from raw data."""
        provider = InMemoryProvider(load_sketch(sqlite_store), data=small_matrix)
        engine = TsubasaHistorical(provider=provider, chunk_windows=4)
        reference = TsubasaHistorical(small_matrix, window_size=50)
        got = engine.correlation_matrix((end, length))
        want = reference.correlation_matrix((end, length))
        np.testing.assert_allclose(got.values, want.values, atol=1e-10)
        expected = np.corrcoef(small_matrix[:, end - length + 1 : end + 1])
        np.testing.assert_allclose(got.values, expected, atol=1e-9)

    def test_arbitrary_query_without_raw_data_raises(self, sqlite_store):
        """The keep_raw=False contract: sketch-only stores are aligned-only."""
        engine = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store))
        )
        with pytest.raises(SketchError, match="not aligned"):
            engine.correlation_matrix((599, 123))

    def test_pruned_network_off_store(self, sqlite_store, small_matrix):
        engine = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store))
        )
        reference = TsubasaHistorical(small_matrix, window_size=50)
        theta = 0.4
        result = engine.network_pruned((599, 600), theta)
        exact = reference.correlation_matrix((599, 600)).values > theta
        np.fill_diagonal(exact, False)
        np.testing.assert_array_equal(result.matrix, exact)

    def test_network_construction(self, sqlite_store, small_matrix):
        engine = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store))
        )
        reference = TsubasaHistorical(small_matrix, window_size=50)
        got = engine.network((599, 400), theta=0.5)
        want = reference.network((599, 400), theta=0.5)
        assert got.edge_set() == want.edge_set()


class TestMmapProvider:
    def test_metadata(self, mmap_dir, small_sketch):
        provider = MmapProvider(mmap_dir)
        assert provider.names == small_sketch.names
        assert provider.n_series == 20
        assert provider.n_windows == 12
        assert provider.window_size == 50
        assert provider.length == 600
        assert not provider.has_raw_data
        assert provider.path == str(mmap_dir)

    def test_window_stats_and_covs_bit_equal(self, mmap_dir, small_sketch):
        provider = MmapProvider(mmap_dir)
        idx = np.array([2, 5, 7])
        means, stds, sizes = provider.window_stats(idx)
        np.testing.assert_array_equal(means, small_sketch.means[:, idx])
        np.testing.assert_array_equal(stds, small_sketch.stds[:, idx])
        np.testing.assert_array_equal(sizes, small_sketch.sizes[idx])
        np.testing.assert_array_equal(provider.covs(idx), small_sketch.covs[idx])

    def test_contiguous_selection_is_zero_copy(self, mmap_dir):
        provider = MmapProvider(mmap_dir)
        (_, _, _, covs), = provider.iter_window_chunks(
            np.arange(3, 9), chunk_windows=6
        )
        # A contiguous selection's packed rows are a view over the mapping:
        # no copy at all.
        assert covs.shape == (6, 20 * 21 // 2)
        assert not covs.flags.owndata
        assert not covs.flags.writeable
        assert np.shares_memory(covs, provider.store.arrays()[2])
        means, stds, _ = provider.window_stats(np.arange(3, 9))
        assert not means.flags.owndata
        assert not stds.flags.owndata

    def test_chunks_share_store_memory(self, mmap_dir, small_sketch):
        provider = MmapProvider(mmap_dir)
        chunks = list(provider.iter_window_chunks(np.arange(12), chunk_windows=5))
        assert [c[3].shape[0] for c in chunks] == [5, 5, 2]
        pairs = provider.store.arrays()[2]
        for start, (_, _, _, covs) in zip((0, 5, 10), chunks):
            assert np.shares_memory(covs, pairs)
            np.testing.assert_array_equal(
                covs, pack_symmetric(small_sketch.covs[start : start + 5])
            )

    def test_non_contiguous_selection(self, mmap_dir, small_sketch):
        provider = MmapProvider(mmap_dir)
        idx = np.array([9, 1, 4])  # out of order: fancy-index fallback
        np.testing.assert_array_equal(provider.covs(idx), small_sketch.covs[idx])
        means, _, sizes = provider.window_stats(idx)
        np.testing.assert_array_equal(means, small_sketch.means[:, idx])
        np.testing.assert_array_equal(sizes, small_sketch.sizes[idx])

    def test_cov_rows(self, mmap_dir, small_sketch):
        provider = MmapProvider(mmap_dir)
        idx = np.arange(6)
        rows = np.array([0, 7, 19])
        np.testing.assert_array_equal(
            provider.cov_rows(idx, rows), small_sketch.covs[idx][:, rows, :]
        )

    def test_rejects_out_of_range_windows(self, mmap_dir):
        provider = MmapProvider(mmap_dir)
        with pytest.raises(SketchError):
            provider.window_stats(np.array([12]))

    def test_rejects_incomplete_store(self, tmp_path):
        from repro.storage.base import WindowRecord

        with MmapStore(tmp_path / "holes") as store:
            from repro.storage.base import StoreMetadata

            store.write_metadata(
                StoreMetadata(names=("a", "b"), window_size=10)
            )
            store.write_windows(
                [WindowRecord(index=3, means=np.zeros(2), stds=np.ones(2),
                              pairs=np.eye(2), size=10)]
            )
            with pytest.raises(StorageError, match="incomplete"):
                MmapProvider(store)

    def test_rejects_approx_store(self, small_matrix, tmp_path):
        from repro.approx.sketch import build_approx_sketch
        from repro.storage.serialize import save_approx_sketch

        approx = build_approx_sketch(small_matrix, 50, coeff_fraction=0.5)
        with MmapStore(tmp_path / "approx.mm") as store:
            save_approx_sketch(store, approx)
        with pytest.raises(StorageError, match="approx"):
            MmapProvider(tmp_path / "approx.mm")

    def test_rejects_mismatched_raw_data(self, mmap_dir, rng):
        with pytest.raises(DataError):
            MmapProvider(mmap_dir, data=rng.normal(size=(20, 599)))

    def test_engine_aligned_query_bit_identical(self, mmap_dir, small_sketch):
        engine = TsubasaHistorical(provider=MmapProvider(mmap_dir))
        reference = TsubasaHistorical(provider=InMemoryProvider(small_sketch))
        got = engine.correlation_matrix((599, 300))
        want = reference.correlation_matrix((599, 300))
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "end,length",
        [(599, 73), (523, 317), (101, 51), (570, 491), (49, 30)],
    )
    def test_fragment_queries_bit_identical(
        self, mmap_dir, small_sketch, small_matrix, end, length
    ):
        """Arbitrary windows (head/tail fragments) match InMemoryProvider
        bit-for-bit, not just to tolerance."""
        provider = MmapProvider(mmap_dir, data=small_matrix)
        engine = TsubasaHistorical(provider=provider)
        reference = TsubasaHistorical(
            provider=InMemoryProvider(small_sketch, data=small_matrix)
        )
        got = engine.correlation_matrix((end, length))
        want = reference.correlation_matrix((end, length))
        np.testing.assert_array_equal(got.values, want.values)

    def test_fragment_without_raw_data_raises(self, mmap_dir):
        engine = TsubasaHistorical(provider=MmapProvider(mmap_dir))
        with pytest.raises(SketchError, match="not aligned"):
            engine.correlation_matrix((599, 123))


class TestProvidersBitIdentical:
    """Acceptance: memory / sqlite / mmap agree bit-for-bit, not approximately."""

    @pytest.mark.parametrize("query", [(599, 600), (599, 300), (549, 250)])
    def test_aligned_queries(
        self, small_sketch, sqlite_store, mmap_dir, query
    ):
        reference = TsubasaHistorical(
            provider=InMemoryProvider(small_sketch)
        ).correlation_matrix(query).values
        via_sqlite = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store))
        ).correlation_matrix(query).values
        via_mmap = TsubasaHistorical(
            provider=MmapProvider(mmap_dir)
        ).correlation_matrix(query).values
        np.testing.assert_array_equal(via_sqlite, reference)
        np.testing.assert_array_equal(via_mmap, reference)

    def test_arbitrary_window(
        self, small_sketch, small_matrix, sqlite_store, mmap_dir
    ):
        query = (523, 317)
        reference = TsubasaHistorical(
            provider=InMemoryProvider(small_sketch, data=small_matrix)
        ).correlation_matrix(query).values
        via_sqlite = TsubasaHistorical(
            provider=InMemoryProvider(load_sketch(sqlite_store), data=small_matrix)
        ).correlation_matrix(query).values
        via_mmap = TsubasaHistorical(
            provider=MmapProvider(mmap_dir, data=small_matrix)
        ).correlation_matrix(query).values
        np.testing.assert_array_equal(via_sqlite, reference)
        np.testing.assert_array_equal(via_mmap, reference)


class TestPackedChunkContract:
    """Every backend feeds the direct kernel the same packed, C-ordered rows."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "mmap", "chunked"])
    @pytest.mark.parametrize("indices", [np.arange(2, 9), np.array([9, 1, 4])])
    def test_chunks_are_packed_c_contiguous(
        self, backend, indices, small_sketch, small_matrix, sqlite_store, mmap_dir
    ):
        provider = {
            "memory": lambda: InMemoryProvider(small_sketch),
            "sqlite": lambda: InMemoryProvider(load_sketch(sqlite_store)),
            "mmap": lambda: MmapProvider(mmap_dir),
            "chunked": lambda: ChunkedBuildProvider(small_matrix, 50),
        }[backend]()
        chunks = list(provider.iter_window_chunks(indices, chunk_windows=3))
        for offset, (_, _, _, covs) in zip(range(0, indices.size, 3), chunks):
            # Fancy-indexed packing comes back Fortran-ordered, and BLAS
            # sums that layout in another order: the contract is C order.
            assert covs.flags.c_contiguous
            np.testing.assert_array_equal(
                covs, pack_symmetric(provider.covs(indices[offset : offset + 3]))
            )


class TestChunkedBuildProvider:
    def test_covs_match_full_build(self, small_matrix, small_sketch):
        provider = ChunkedBuildProvider(small_matrix, 50, chunk_rows=7)
        idx = np.arange(12)
        np.testing.assert_allclose(
            provider.covs(idx), small_sketch.covs, atol=1e-12
        )
        means, stds, sizes = provider.window_stats(idx)
        np.testing.assert_allclose(means, small_sketch.means)
        np.testing.assert_allclose(stds, small_sketch.stds)

    def test_engine_queries_match(self, small_matrix):
        provider = ChunkedBuildProvider(small_matrix, 50, chunk_rows=6)
        engine = TsubasaHistorical(provider=provider)
        reference = TsubasaHistorical(small_matrix, window_size=50)
        for query in [(599, 600), (599, 200), (523, 317)]:
            got = engine.correlation_matrix(query)
            want = reference.correlation_matrix(query)
            np.testing.assert_allclose(got.values, want.values, atol=1e-10)

    def test_save_to_matches_save_sketch(self, small_matrix, small_sketch):
        provider = ChunkedBuildProvider(small_matrix, 50, chunk_rows=9)
        streamed = MemorySketchStore()
        provider.save_to(streamed, batch_size=5)
        loaded = load_sketch(streamed)
        np.testing.assert_allclose(loaded.means, small_sketch.means)
        np.testing.assert_allclose(loaded.covs, small_sketch.covs, atol=1e-12)
        np.testing.assert_array_equal(loaded.sizes, small_sketch.sizes)

    def test_rejects_bad_args(self, small_matrix, rng):
        with pytest.raises(DataError):
            ChunkedBuildProvider(rng.normal(size=100), 10)
        with pytest.raises(DataError):
            ChunkedBuildProvider(small_matrix, 50, chunk_rows=0)
        with pytest.raises(DataError):
            ChunkedBuildProvider(small_matrix, 50, names=["too", "few"])


class TestProviderParallelQuery:
    def test_in_memory_provider_fans_out_via_shared_memory(
        self, small_sketch, small_matrix
    ):
        """No pre-fan-out materialize(): the selection's covariances travel
        through one shared-memory block, never a pickled Sketch."""
        provider = _forbid_materialize(InMemoryProvider(small_sketch))
        result = parallel_query(np.arange(6, 12), n_workers=2, provider=provider)
        np.testing.assert_allclose(
            result.matrix, np.corrcoef(small_matrix[:, 300:]), atol=1e-10
        )
        assert result.worker_read_seconds == [0.0] * result.n_partitions

    def test_mmap_provider_fans_out_via_path(self, small_matrix, mmap_dir):
        provider = _forbid_materialize(MmapProvider(mmap_dir))
        result = parallel_query(np.arange(12), n_workers=3, provider=provider)
        np.testing.assert_allclose(
            result.matrix, np.corrcoef(small_matrix), atol=1e-10
        )
        # Workers re-mmap and read in their own processes.
        assert result.read_seconds > 0.0

    def test_mmap_provider_serial(self, small_matrix, mmap_dir):
        provider = _forbid_materialize(MmapProvider(mmap_dir))
        result = parallel_query(np.arange(12), n_workers=1, provider=provider)
        np.testing.assert_allclose(
            result.matrix, np.corrcoef(small_matrix), atol=1e-10
        )
        assert result.n_partitions == 1

    def test_chunked_build_provider_fans_out(self, small_matrix):
        provider = _forbid_materialize(
            ChunkedBuildProvider(small_matrix, 50, chunk_rows=8)
        )
        result = parallel_query(np.arange(12), n_workers=2, provider=provider)
        np.testing.assert_allclose(
            result.matrix, np.corrcoef(small_matrix), atol=1e-10
        )

    def test_parallel_matches_all_backends(
        self, small_sketch, small_matrix, sqlite_store, mmap_dir
    ):
        window_indices = np.arange(4, 10)
        expected = parallel_query(
            window_indices, n_workers=2, provider=InMemoryProvider(small_sketch)
        ).matrix
        via_sqlite = parallel_query(
            window_indices, n_workers=2, store_path=sqlite_store.path
        ).matrix
        via_mmap = parallel_query(
            window_indices, n_workers=2, provider=MmapProvider(mmap_dir)
        ).matrix
        np.testing.assert_allclose(via_sqlite, expected, atol=1e-12)
        np.testing.assert_allclose(via_mmap, expected, atol=1e-12)

    def test_rejects_provider_plus_sketch(self, small_sketch):
        with pytest.raises(DataError):
            parallel_query(
                np.arange(12),
                n_workers=1,
                sketch=small_sketch,
                provider=InMemoryProvider(small_sketch),
            )


class TestRealtimeFromProvider:
    def test_warm_start_equals_streamed_engine(self, small_matrix):
        streamed = TsubasaRealtime(small_matrix[:, :400], window_size=50)
        sketch = build_sketch(small_matrix[:, :400], window_size=50)
        warm = TsubasaRealtime.from_provider(InMemoryProvider(sketch))
        np.testing.assert_allclose(
            warm.correlation_matrix().values,
            streamed.correlation_matrix().values,
            atol=1e-10,
        )
        assert warm.now == streamed.now

    def test_trailing_window_selection(self, small_matrix, sqlite_store):
        provider = InMemoryProvider(load_sketch(sqlite_store))
        warm = TsubasaRealtime.from_provider(provider, query_windows=4)
        np.testing.assert_allclose(
            warm.correlation_matrix().values,
            np.corrcoef(small_matrix[:, 400:600]),
            atol=1e-10,
        )
        assert warm.now == 600

    def test_continues_streaming(self, small_matrix, tmp_path):
        sketch = build_sketch(small_matrix[:, :400], window_size=50)
        warm = TsubasaRealtime.from_provider(InMemoryProvider(sketch), 8)
        warm.ingest(small_matrix[:, 400:500])
        reference = TsubasaRealtime(small_matrix[:, :400], window_size=50)
        reference.ingest(small_matrix[:, 400:500])
        np.testing.assert_allclose(
            warm.correlation_matrix().values,
            reference.correlation_matrix().values,
            atol=1e-10,
        )

    def test_rejects_partial_trailing_window(self, rng, tmp_path):
        data = rng.normal(size=(4, 130))
        sketch = build_sketch(data, window_size=50)  # trailing window of 30
        from repro.exceptions import StreamError

        with pytest.raises(StreamError):
            TsubasaRealtime.from_provider(InMemoryProvider(sketch))

    def test_ingestor_from_provider(self, small_matrix, sqlite_store):
        ingestor = StreamIngestor.from_provider(
            InMemoryProvider(load_sketch(sqlite_store)), query_windows=6,
            theta=0.4,
        )
        assert ingestor.engine.now == 600
        extra = np.tile(small_matrix[:, -50:], (1, 2))
        snapshots = ingestor.push(extra)
        assert len(snapshots) == 2


class TestProviderAbstraction:
    def test_engine_rejects_provider_plus_data(self, small_matrix, small_sketch):
        with pytest.raises(DataError):
            TsubasaHistorical(
                small_matrix, 50, provider=InMemoryProvider(small_sketch)
            )

    def test_engine_rejects_provider_plus_keep_raw(self, small_sketch):
        with pytest.raises(DataError):
            TsubasaHistorical(
                provider=InMemoryProvider(small_sketch), keep_raw=False
            )

    def test_engine_requires_some_source(self):
        with pytest.raises(DataError):
            TsubasaHistorical()

    def test_providers_share_interface(
        self, small_matrix, small_sketch, sqlite_store, mmap_dir
    ):
        providers: list[SketchProvider] = [
            InMemoryProvider(small_sketch),
            InMemoryProvider(load_sketch(sqlite_store)),
            ChunkedBuildProvider(small_matrix, 50),
            MmapProvider(mmap_dir),
        ]
        idx = np.array([3, 8])
        reference = small_sketch.covs[idx]
        for provider in providers:
            assert provider.plan.n_windows == 12
            np.testing.assert_allclose(provider.covs(idx), reference, atol=1e-12)

    def test_materialize_roundtrip(self, sqlite_store, small_sketch):
        materialized = InMemoryProvider(load_sketch(sqlite_store)).materialize()
        np.testing.assert_allclose(materialized.covs, small_sketch.covs)
        np.testing.assert_array_equal(materialized.sizes, small_sketch.sizes)
        assert materialized.names == small_sketch.names
