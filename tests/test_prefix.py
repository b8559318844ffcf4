"""Prefix-aggregate sketches: kernels, providers, persistence, and routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.exact import TsubasaHistorical, fragment_points
from repro.core.lemma1 import combine_matrix, combine_row
from repro.core.matrix import threshold_adjacency
from repro.core.packing import pack_symmetric
from repro.core.prefix import (
    PREFIX_ATOL,
    PrefixAggregates,
    build_prefix_aggregates,
    combine_matrix_prefix,
    combine_row_prefix,
)
from repro.core.segmentation import WindowSelection
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
    PrefixProvider,
)
from repro.exceptions import SketchError, StorageError
from repro.storage.base import WindowRecord
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore


@pytest.fixture()
def data():
    rng = np.random.default_rng(42)
    base = rng.standard_normal((1, 900))
    noise = rng.standard_normal((9, 900))
    return 0.6 * base + 0.8 * noise + rng.normal(0, 5, (9, 1))


@pytest.fixture()
def sketch(data):
    return build_sketch(data, 15)  # 60 basic windows


def direct_matrix(sketch, lo, hi):
    idx = np.arange(lo, hi)
    return combine_matrix(
        sketch.means[:, idx],
        sketch.stds[:, idx],
        sketch.covs[idx],
        sketch.sizes[idx].astype(np.float64),
    )


class TestKernel:
    def test_matches_direct_kernel_over_ranges(self, sketch):
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        for lo, hi in [(0, 60), (0, 1), (59, 60), (10, 42), (3, 7)]:
            np.testing.assert_allclose(
                combine_matrix_prefix(aggregates, lo, hi),
                direct_matrix(sketch, lo, hi),
                rtol=0.0,
                atol=PREFIX_ATOL,
            )

    def test_row_kernel_matches_direct(self, sketch):
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        idx = np.arange(12, 47)
        for row in (0, 4, 8):
            expected = combine_row(
                sketch.means[:, idx],
                sketch.stds[:, idx],
                sketch.covs[idx][:, row, :],
                sketch.sizes[idx].astype(np.float64),
                row,
            )
            got = combine_row_prefix(aggregates, 12, 47, row)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=PREFIX_ATOL)
            assert got[row] == 1.0

    def test_matrix_properties(self, sketch):
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        corr = combine_matrix_prefix(aggregates, 5, 55)
        assert np.all(np.diag(corr) == 1.0)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)

    def test_constant_series_reports_zero(self):
        data = np.vstack([
            np.full(300, 3.25),
            np.random.default_rng(0).standard_normal(300),
        ])
        sketch = build_sketch(data, 10)
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        corr = combine_matrix_prefix(aggregates, 4, 26)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[0, 0] == 1.0

    def test_incremental_extension_matches_full_build(self, sketch):
        full = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        chunked = PrefixAggregates.allocate(full.offsets, sketch.n_windows)
        for start in range(0, sketch.n_windows, 7):
            stop = min(start + 7, sketch.n_windows)
            chunked.extend(
                sketch.means[:, start:stop],
                sketch.stds[:, start:stop],
                pack_symmetric(sketch.covs[start:stop]),
                sketch.sizes[start:stop].astype(np.float64),
            )
        assert chunked.rows == full.rows == sketch.n_windows + 1
        np.testing.assert_allclose(
            combine_matrix_prefix(chunked, 2, 58),
            combine_matrix_prefix(full, 2, 58),
            rtol=0.0,
            atol=PREFIX_ATOL,
        )

    def test_range_validation(self, sketch):
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        for lo, hi in [(-1, 5), (5, 5), (7, 3), (0, 61)]:
            with pytest.raises(SketchError):
                combine_matrix_prefix(aggregates, lo, hi)
        with pytest.raises(SketchError):
            combine_row_prefix(aggregates, 0, 10, 99)

    def test_folds_raw_fragment_points(self, sketch, data):
        """Head/tail points side by side: matrix and row kernels agree with
        each other and with np.corrcoef of the raw window."""
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
        points = fragment_points(data, [(8, 15), (885, 896)])
        assert points.shape == (sketch.n_series, 18)
        corr = combine_matrix_prefix(aggregates, 1, 59, points)
        assert np.array_equal(corr, corr.T)
        np.testing.assert_allclose(
            corr, np.corrcoef(data[:, 8:896]), rtol=0.0, atol=PREFIX_ATOL
        )
        for row in (0, 4, 8):
            np.testing.assert_allclose(
                combine_row_prefix(aggregates, 1, 59, row, points),
                corr[row],
                rtol=0.0,
                atol=1e-12,
            )
        # No points and an empty block fold nothing: the aligned bits.
        aligned = combine_matrix_prefix(aggregates, 1, 59)
        empty = np.empty((sketch.n_series, 0))
        assert combine_matrix_prefix(aggregates, 1, 59, empty).tobytes() == (
            aligned.tobytes()
        )
        with pytest.raises(SketchError, match="incompatible"):
            combine_matrix_prefix(aggregates, 1, 59, points[:-1])
        with pytest.raises(SketchError, match="incompatible"):
            combine_row_prefix(aggregates, 1, 59, 0, points[0])

    def test_extend_rejects_overflow_and_shape_mismatch(self, sketch):
        aggregates = PrefixAggregates.allocate(np.zeros(sketch.n_series), 10)
        with pytest.raises(SketchError):
            aggregates.extend(
                sketch.means[:, :11],
                sketch.stds[:, :11],
                pack_symmetric(sketch.covs[:11]),
                sketch.sizes[:11].astype(np.float64),
            )
        with pytest.raises(SketchError):
            aggregates.extend(
                sketch.means[:, :4],
                sketch.stds[:, :4],
                pack_symmetric(sketch.covs[:3]),
                sketch.sizes[:4].astype(np.float64),
            )

    def test_read_only_tables_refuse_extension(self, sketch, tmp_path):
        with MmapStore(tmp_path / "ro.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
            aggregates = store.read_prefix()
        assert not aggregates.writable
        with pytest.raises(SketchError, match="read-only"):
            aggregates.extend(
                sketch.means[:, :1],
                sketch.stds[:, :1],
                pack_symmetric(sketch.covs[:1]),
                sketch.sizes[:1].astype(np.float64),
            )


class TestPrefixProvider:
    @pytest.fixture()
    def stores(self, sketch, tmp_path):
        sqlite_path = tmp_path / "p.db"
        mmap_path = tmp_path / "p.mm"
        with SqliteSketchStore(sqlite_path) as store:
            save_sketch(store, sketch)
        with MmapStore(mmap_path) as store:
            save_sketch(store, sketch)
            store.build_prefix()
        return sqlite_path, mmap_path

    def spec(self, first=5, count=40):
        return QuerySpec(
            op="matrix", window=WindowSpec(first_window=first, n_windows=count)
        )

    def test_prefix_path_equal_across_backends(self, sketch, data, stores):
        sqlite_path, mmap_path = stores
        reference = TsubasaClient(provider=InMemoryProvider(sketch)).execute(
            self.spec()
        )
        assert reference.provenance.path == "direct"
        with SqliteSketchStore(sqlite_path) as store:
            loaded = load_sketch(store)
        providers = {
            "memory": PrefixProvider(InMemoryProvider(sketch)),
            "store": PrefixProvider(InMemoryProvider(loaded)),
            "mmap": MmapProvider(mmap_path),
            "mmap-wrapped": PrefixProvider(MmapProvider(mmap_path, prefix=False)),
        }
        for label, provider in providers.items():
            result = TsubasaClient(provider=provider).execute(self.spec())
            assert result.provenance.path == "prefix", label
            assert result.provenance.execution == "serial"
            np.testing.assert_allclose(
                result.value.values,
                reference.value.values,
                rtol=0.0,
                atol=PREFIX_ATOL,
                err_msg=label,
            )

    def test_backend_name_reports_wrapped_backend(self, sketch, stores):
        _, mmap_path = stores
        assert PrefixProvider(InMemoryProvider(sketch)).backend_name == "memory"
        provider = PrefixProvider(MmapProvider(mmap_path, prefix=False))
        assert provider.backend_name == "mmap"

    def test_build_at_construction_covers_every_window(self, sketch):
        provider = PrefixProvider(InMemoryProvider(sketch), chunk_windows=8)
        tables = provider.aggregates
        assert tables.covered == sketch.n_windows  # before any query
        provider.prefix_matrix(0, 20)
        assert provider.aggregates is tables  # queries never rebuild

    def test_fragmented_and_noncontiguous_selections_delegate(
        self, sketch, data
    ):
        provider = PrefixProvider(InMemoryProvider(sketch, data=data))
        client = TsubasaClient(provider=provider)
        fragmented = client.execute(
            QuerySpec(op="matrix", window=WindowSpec(end=899, length=500))
        )
        # Head/tail fragments ride the prefix path as two more terms.
        assert fragmented.provenance.path == "prefix"
        engine_values = TsubasaClient(
            provider=InMemoryProvider(sketch, data=data)
        ).execute(
            QuerySpec(op="matrix", window=WindowSpec(end=899, length=500))
        )
        assert engine_values.provenance.path == "direct"
        np.testing.assert_allclose(
            fragmented.value.values,
            engine_values.value.values,
            rtol=0.0,
            atol=PREFIX_ATOL,
        )
        # A genuinely non-contiguous selection has no prefix range.
        gappy = WindowSelection(
            full_windows=np.array([3, 5, 6]), head=None, tail=None
        )
        assert provider.prefix_range(gappy) is None

    def test_persisted_tables_adopted_zero_copy(self, stores):
        _, mmap_path = stores
        provider = PrefixProvider(MmapProvider(mmap_path))
        assert provider.aggregates is not None
        assert not provider.aggregates.writable  # mapped views, not a rebuild

    def test_delegates_backend_surface(self, sketch, stores):
        sqlite_path, _ = stores
        with SqliteSketchStore(sqlite_path) as store:
            base = InMemoryProvider(load_sketch(store))
        provider = PrefixProvider(base)
        assert provider.sketch is base.sketch  # passes through to the base
        assert provider.n_windows == sketch.n_windows
        stats = provider.window_stats(np.arange(3))
        assert stats[0].shape == (sketch.n_series, 3)

    def test_network_ops_ride_the_prefix_path(self, sketch, stores):
        _, mmap_path = stores
        client = TsubasaClient(provider=MmapProvider(mmap_path))
        serial = TsubasaClient(provider=InMemoryProvider(sketch))
        spec = QuerySpec(
            op="network",
            window=WindowSpec(first_window=0, n_windows=60),
            theta=0.5,
        )
        result = client.execute(spec)
        assert result.provenance.path == "prefix"
        assert result.value.edge_set() == serial.execute(spec).value.edge_set()


class TestNonAlignedRouting:
    """Non-aligned windows: prefix tables plus head/tail fragment terms."""

    #: 7 points of window 0, windows 1..58 whole, 11 points of window 59.
    WINDOW = WindowSpec(start=8, stop=896)

    @pytest.fixture()
    def mmap_path(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
        return tmp_path / "s.mm"

    def matrix(self, provider, window=WINDOW):
        return TsubasaClient(provider=provider).execute(
            QuerySpec(op="matrix", window=window)
        )

    def test_fragments_ride_the_prefix_path(self, sketch, data, mmap_path):
        direct = self.matrix(MmapProvider(mmap_path, data=data, prefix=False))
        assert direct.provenance.path == "direct"
        exact = np.corrcoef(data[:, 8:896])
        providers = {
            "mmap": MmapProvider(mmap_path, data=data),
            "prefix-memory": PrefixProvider(InMemoryProvider(sketch, data=data)),
            "prefix-chunked": PrefixProvider(ChunkedBuildProvider(data, 15)),
        }
        for label, provider in providers.items():
            result = self.matrix(provider)
            assert result.provenance.path == "prefix", label
            for reference in (direct.value.values, exact):
                np.testing.assert_allclose(
                    result.value.values, reference, rtol=0.0,
                    atol=PREFIX_ATOL, err_msg=label,
                )

    def test_prefix_path_sketches_no_fragment(self, data, mmap_path, monkeypatch):
        """Served prefix answers fold raw points; ``fragment`` (the direct
        kernel's sketch) is never called."""

        def sketch_fragment(*_args):
            raise AssertionError("a fragment was sketched on the prefix path")

        monkeypatch.setattr(MmapProvider, "fragment", sketch_fragment)
        result = self.matrix(MmapProvider(mmap_path, data=data))
        assert result.provenance.path == "prefix"
        np.testing.assert_allclose(
            result.value.values, np.corrcoef(data[:, 8:896]),
            rtol=0.0, atol=PREFIX_ATOL,
        )

    def test_client_data_override_supplies_fragments(self, data, mmap_path):
        client = TsubasaClient(provider=MmapProvider(mmap_path), data=data)
        result = client.execute(QuerySpec(op="matrix", window=self.WINDOW))
        assert result.provenance.path == "prefix"
        np.testing.assert_allclose(
            result.value.values, np.corrcoef(data[:, 8:896]),
            rtol=0.0, atol=PREFIX_ATOL,
        )

    def test_no_full_window_stays_direct(self, data, mmap_path):
        # [20, 44) lies inside windows 1 and 2 without covering either.
        result = self.matrix(
            MmapProvider(mmap_path, data=data), WindowSpec(start=20, stop=44)
        )
        assert result.provenance.path == "direct"

    def test_prefix_disabled_stays_direct(self, data, mmap_path):
        result = self.matrix(MmapProvider(mmap_path, data=data, prefix=False))
        assert result.provenance.path == "direct"

    def test_interior_past_stale_rows_stays_direct(self, sketch, data, mmap_path):
        with MmapStore(mmap_path) as store:
            record = WindowRecord(
                index=30,
                means=sketch.means[:, 30].copy(),
                stds=sketch.stds[:, 30].copy(),
                pairs=sketch.covs[30].copy(),
                size=int(sketch.sizes[30]),
            )
            store.write_windows([record])
            assert store.read_prefix().covered == 30
        provider = MmapProvider(mmap_path, data=data)
        assert self.matrix(provider).provenance.path == "direct"
        within = self.matrix(provider, WindowSpec(start=8, stop=440))
        assert within.provenance.path == "prefix"

    def test_without_raw_data_raises_before_table_reads(self, sketch, mmap_path):
        wrapped = PrefixProvider(InMemoryProvider(sketch))
        for provider in (MmapProvider(mmap_path), wrapped):
            with pytest.raises(SketchError, match="not aligned"):
                self.matrix(provider)

    def test_pruned_network_on_non_aligned_window(self, data, mmap_path):
        theta = 0.36  # splits this fixture's pairs into edges and non-edges
        engine = TsubasaHistorical(provider=MmapProvider(mmap_path, data=data))
        result = engine.network_pruned((895, 888), theta)
        exact = np.corrcoef(data[:, 8:896])
        # Pairs within PREFIX_ATOL of theta may legitimately flip.
        clear = np.abs(exact - theta) > PREFIX_ATOL
        assert clear.sum() > 0
        want = threshold_adjacency(exact, theta)
        np.testing.assert_array_equal(result.matrix[clear], want[clear])
        assert 0 < want.sum() < want.size - len(want)
        # Without prefix tables, pruning still accepts aligned windows only.
        plain = TsubasaHistorical(
            provider=MmapProvider(mmap_path, data=data, prefix=False)
        )
        with pytest.raises(SketchError, match="aligned"):
            plain.network_pruned((895, 888), theta)


class TestMmapPersistence:
    def test_build_read_roundtrip(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            generation = store.read_generation()
            covered = store.build_prefix(chunk_windows=17)
            assert covered == sketch.n_windows
            assert store.prefix_rows == sketch.n_windows + 1
            assert store.read_generation() > generation
            assert store.read_generation() % 2 == 0
            aggregates = store.read_prefix()
        np.testing.assert_allclose(
            combine_matrix_prefix(aggregates, 8, 52),
            direct_matrix(sketch, 8, 52),
            rtol=0.0,
            atol=PREFIX_ATOL,
        )

    def test_build_is_idempotent(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            assert store.build_prefix() == sketch.n_windows
            generation = store.read_generation()
            assert store.build_prefix() == sketch.n_windows
            assert store.read_generation() == generation  # no-op, no commit

    def test_read_prefix_absent_returns_none(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            assert store.read_prefix() is None
        provider = MmapProvider(tmp_path / "s.mm")
        assert provider.persisted_prefix() is None

    def test_mmap_provider_ignores_tables_when_disabled(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
        provider = MmapProvider(tmp_path / "s.mm", prefix=False)
        client = TsubasaClient(provider=provider)
        spec = QuerySpec(
            op="matrix", window=WindowSpec(first_window=0, n_windows=60)
        )
        assert client.execute(spec).provenance.path == "direct"

    def append_records(self, sketch_like, indices):
        return [
            WindowRecord(
                index=j,
                means=sketch_like.means[:, j].copy(),
                stds=sketch_like.stds[:, j].copy(),
                pairs=sketch_like.covs[j].copy(),
                size=int(sketch_like.sizes[j]),
            )
            for j in indices
        ]

    def test_append_after_prefix_extends_incrementally(self, data, tmp_path):
        grown = build_sketch(
            np.concatenate(
                [data, np.random.default_rng(9).standard_normal((9, 90))],
                axis=1,
            ),
            15,
        )  # 66 windows; the first 60 match `sketch`
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, build_sketch(data, 15))
            store.build_prefix()
            rows_before = store.prefix_rows
            store.write_windows(self.append_records(grown, range(60, 66)))
            # A pure append leaves the committed rows valid (they cover the
            # old windows only) …
            assert store.prefix_rows == rows_before
            # … and the incremental rebuild extends from the last committed
            # row to cover the appended windows.
            assert store.build_prefix() == 66
            aggregates = store.read_prefix()
        np.testing.assert_allclose(
            combine_matrix_prefix(aggregates, 30, 66),
            direct_matrix(grown, 30, 66),
            rtol=0.0,
            atol=PREFIX_ATOL,
        )

    def test_overwrite_after_prefix_truncates_and_bumps_generation(
        self, sketch, data, tmp_path
    ):
        """Regression: append/overwrite after prefix materialization must
        bump the generation *and* truncate stale prefix rows — a reader
        combining old cumulative sums with rewritten records would silently
        return corrupt correlations."""
        modified = build_sketch(np.ascontiguousarray(data[:, ::-1]), 15)
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
            generation = store.read_generation()
            store.write_windows(self.append_records(modified, [20]))
            assert store.read_generation() > generation
            assert store.prefix_rows == 21  # rows past the rewrite are stale
            # Ranges ending beyond the truncation are no longer servable …
            aggregates = store.read_prefix()
            assert aggregates.covered == 20
            with pytest.raises(SketchError):
                combine_matrix_prefix(aggregates, 0, 30)
            # … and a fresh provider falls back to the direct path there.
            provider = MmapProvider(store)
            client = TsubasaClient(provider=provider)
            beyond = client.execute(
                QuerySpec(
                    op="matrix", window=WindowSpec(first_window=0, n_windows=40)
                )
            )
            assert beyond.provenance.path == "direct"
            within = client.execute(
                QuerySpec(
                    op="matrix", window=WindowSpec(first_window=0, n_windows=15)
                )
            )
            assert within.provenance.path == "prefix"
            # Rebuild re-covers everything, with the rewritten record.
            assert store.build_prefix() == 60
        fresh = MmapProvider(tmp_path / "s.mm")
        rebuilt = TsubasaClient(provider=fresh).execute(
            QuerySpec(
                op="matrix", window=WindowSpec(first_window=0, n_windows=40)
            )
        )
        assert rebuilt.provenance.path == "prefix"
        # Sanity: the rewrite really changed window 20, so a stale prefix
        # row would have produced a different matrix.
        assert not np.allclose(modified.covs[20], sketch.covs[20])
        direct = TsubasaClient(
            provider=MmapProvider(tmp_path / "s.mm", prefix=False)
        ).execute(
            QuerySpec(
                op="matrix", window=WindowSpec(first_window=0, n_windows=40)
            )
        )
        np.testing.assert_allclose(
            rebuilt.value.values,
            direct.value.values,
            rtol=0.0,
            atol=PREFIX_ATOL,
        )

    def test_prefix_survives_metadata_rewrite(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
            store.write_metadata(store.read_metadata())
            assert store.prefix_rows == sketch.n_windows + 1
        with MmapStore(tmp_path / "s.mm", mode="r") as reopened:
            assert reopened.prefix_rows == sketch.n_windows + 1
            assert reopened.read_prefix() is not None

    def test_build_prefix_requires_writable_store(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
        with MmapStore(tmp_path / "s.mm", mode="r") as readonly:
            with pytest.raises(StorageError, match="read-only"):
                readonly.build_prefix()

    def test_size_bytes_counts_prefix_tables(self, sketch, tmp_path):
        with MmapStore(tmp_path / "s.mm") as store:
            save_sketch(store, sketch)
            before = store.size_bytes()
            store.build_prefix()
            assert store.size_bytes() > before
