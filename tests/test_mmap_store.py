"""Tests for repro.storage.mmap_store (zero-copy memory-mapped store)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.exact import TsubasaHistorical
from repro.core.prefix import PREFIX_ATOL
from repro.core.sketch import build_sketch
from repro.data.synthetic import generate_station_dataset
from repro.engine.providers import MmapProvider
from repro.exceptions import StorageError
from repro.storage.base import StoreMetadata, WindowRecord
from repro.storage.mmap_store import MmapStore, is_mmap_store
from repro.storage.serialize import convert_store, load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore


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


class TestLayout:
    def test_directory_files(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            save_sketch(store, build_sketch(np.random.default_rng(0).normal(
                size=(3, 100)), 20))
        names = {p.name for p in (tmp_path / "st").iterdir()}
        assert names == {"meta.json", "means.f64", "stds.f64",
                         "pairs.f64", "sizes.i64"}
        payload = json.loads((tmp_path / "st" / "meta.json").read_text())
        assert payload["n_series"] == 3
        assert payload["collection"]["window_size"] == 20

    def test_array_sizes_match_records(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i, n=5) for i in range(7)])
        # Pairs are packed upper triangles: P = 5 * 6 / 2 = 15 values each.
        assert (tmp_path / "st" / "pairs.f64").stat().st_size == 7 * 15 * 8
        assert (tmp_path / "st" / "means.f64").stat().st_size == 7 * 5 * 8
        assert (tmp_path / "st" / "sizes.i64").stat().st_size == 7 * 8

    def test_is_mmap_store_detection(self, tmp_path):
        assert not is_mmap_store(tmp_path / "nothing")
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=("a",), window_size=5))
        assert is_mmap_store(tmp_path / "st")


class TestPersistence:
    def test_records_survive_reopen(self, tmp_path):
        records = [_record(i) for i in range(6)]
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=tuple("abcd"), window_size=10))
            store.write_windows(records)
        with MmapStore(tmp_path / "st") as store:
            assert store.window_count() == 6
            loaded = store.read_windows([4, 1])
            assert [r.index for r in loaded] == [4, 1]
            np.testing.assert_array_equal(loaded[0].pairs, records[4].pairs)
            np.testing.assert_array_equal(loaded[1].means, records[1].means)

    def test_readonly_mode(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=tuple("abcd"), window_size=10))
            store.write_windows([_record(0)])
        with MmapStore(tmp_path / "st", mode="r") as store:
            assert store.window_count() == 1
            with pytest.raises(StorageError, match="read-only"):
                store.write_windows([_record(1)])
            with pytest.raises(StorageError, match="read-only"):
                store.write_metadata(
                    StoreMetadata(names=tuple("abcd"), window_size=10)
                )

    def test_readonly_requires_existing_store(self, tmp_path):
        with pytest.raises(StorageError, match="not an mmap sketch store"):
            MmapStore(tmp_path / "missing", mode="r")

    def test_out_of_order_writes_leave_holes(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(3)])
            assert store.window_count() == 1
            with pytest.raises(StorageError, match="missing"):
                store.read_windows([1])
            store.write_windows([_record(i) for i in range(3)])
            assert store.window_count() == 4
            assert [r.index for r in store.read_windows([0, 1, 2, 3])] == [0, 1, 2, 3]


class TestZeroCopy:
    def test_read_windows_returns_mapped_views(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(3)])
            record = store.read_windows([1])[0]
            # The per-series arrays are read-only views over the mapping,
            # not deserialized copies; pairs are unpacked into a fresh
            # (n, n) matrix from the stored upper triangle.
            for view in (record.means, record.stds):
                assert not view.flags.owndata
                assert not view.flags.writeable
            assert record.pairs.shape == (4, 4)
            np.testing.assert_array_equal(record.pairs, _record(1).pairs)

    def test_arrays_are_shared_across_reads(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(3)])
            a = store.read_windows([2])[0]
            b = store.read_windows([2])[0]
            assert np.shares_memory(a.means, b.means)
            assert np.shares_memory(a.stds, b.stds)
            pairs = store.arrays()[2]
            assert pairs.shape == (3, 10)
            assert not pairs.flags.writeable
            assert np.shares_memory(pairs[2], store.arrays()[2])


class TestInvalidInput:
    def test_rejects_bad_mode(self, tmp_path):
        with pytest.raises(StorageError):
            MmapStore(tmp_path / "st", mode="w")

    def test_rejects_mismatched_series_count(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0, n=4)])
            with pytest.raises(StorageError, match="4-series"):
                store.write_windows([_record(1, n=5)])

    def test_rejects_mismatched_stds_length(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            with pytest.raises(StorageError, match="stds shape"):
                store.write_windows(
                    [WindowRecord(index=0, means=np.zeros(4),
                                  stds=np.ones(3), pairs=np.eye(4), size=10)]
                )
            # The rejected record must not have been half-committed.
            assert store.window_count() == 0

    def test_rejects_mismatched_pairs_shape(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            with pytest.raises(StorageError, match="pairs shape"):
                store.write_windows(
                    [WindowRecord(index=0, means=np.zeros(4),
                                  stds=np.ones(4), pairs=np.eye(3), size=10)]
                )
            assert store.window_count() == 0

    def test_rejects_asymmetric_pairs(self, tmp_path):
        pairs = np.arange(16.0).reshape(4, 4)
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0)])
            generation = store.generation
            with pytest.raises(StorageError, match="not symmetric"):
                store.write_windows(
                    [_record(1),
                     WindowRecord(index=2, means=np.zeros(4),
                                  stds=np.ones(4), pairs=pairs, size=10)]
                )
            # Refused before any byte was written: no record of the batch
            # is committed and no commit was opened.
            assert store.window_count() == 1
            assert store.generation == generation
        assert (tmp_path / "st" / "sizes.i64").stat().st_size == 8

    def test_rejects_nonpositive_window_size(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            with pytest.raises(StorageError, match="non-positive"):
                store.write_windows(
                    [WindowRecord(index=0, means=np.zeros(2),
                                  stds=np.zeros(2), pairs=np.zeros((2, 2)),
                                  size=0)]
                )

    def test_rejects_corrupt_version(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=("a",), window_size=5))
        meta = tmp_path / "st" / "meta.json"
        payload = json.loads(meta.read_text())
        payload["version"] = 99
        meta.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="version"):
            MmapStore(tmp_path / "st")

    def test_rejects_version_1_store(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(3)])
        meta = tmp_path / "st" / "meta.json"
        payload = json.loads(meta.read_text())
        payload["version"] = 1
        meta.write_text(json.dumps(payload))
        for mode in ("r", "r+"):
            with pytest.raises(StorageError, match="version-1") as info:
                MmapStore(tmp_path / "st", mode=mode)
            message = str(info.value)
            assert "tsubasa sketch" in message
            assert "--store-backend mmap --prefix" in message
            assert "tsubasa convert" in message

    def test_rejects_truncated_array_file(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(4)])
        pairs = tmp_path / "st" / "pairs.f64"
        pairs.write_bytes(pairs.read_bytes()[:100])
        with MmapStore(tmp_path / "st") as store:
            with pytest.raises(StorageError, match="wrong size"):
                store.read_windows([0])


class TestConvert:
    def test_sqlite_to_mmap_roundtrip(self, small_sketch, tmp_path):
        with SqliteSketchStore(tmp_path / "src.db") as src:
            save_sketch(src, small_sketch)
            with MmapStore(tmp_path / "dst") as dst:
                count = convert_store(src, dst, batch_size=5)
                assert count == 12
                loaded = load_sketch(dst)
        np.testing.assert_array_equal(loaded.covs, small_sketch.covs)
        np.testing.assert_array_equal(loaded.means, small_sketch.means)
        np.testing.assert_array_equal(loaded.sizes, small_sketch.sizes)
        assert loaded.names == small_sketch.names

    def test_mmap_to_sqlite_roundtrip(self, small_sketch, tmp_path):
        with MmapStore(tmp_path / "src") as src:
            save_sketch(src, small_sketch)
            with SqliteSketchStore(tmp_path / "dst.db") as dst:
                convert_store(src, dst)
                loaded = load_sketch(dst)
        np.testing.assert_array_equal(loaded.covs, small_sketch.covs)

    def test_rejects_bad_batch_size(self, small_sketch, tmp_path):
        with MmapStore(tmp_path / "src") as src:
            save_sketch(src, small_sketch)
            with pytest.raises(StorageError):
                convert_store(src, MmapStore(tmp_path / "dst"), batch_size=0)

    def test_rejects_nonempty_destination(self, small_sketch, tmp_path):
        """Neither backend deletes records, so converting over an existing
        store would leave stale windows mixed with the new sketch."""
        with MmapStore(tmp_path / "dst") as dst:
            save_sketch(dst, small_sketch)
        with SqliteSketchStore(tmp_path / "src.db") as src:
            save_sketch(src, small_sketch)
            with MmapStore(tmp_path / "dst") as dst:
                with pytest.raises(StorageError, match="already holds"):
                    convert_store(src, dst)


class TestGenerationCounter:
    """Commit generation counter + fsync barrier (concurrent-reader support)."""

    def test_fresh_store_starts_at_zero(self, tmp_path):
        store = MmapStore(tmp_path / "st")
        assert store.generation == 0

    def test_metadata_write_bumps_generation(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=("a", "b"), window_size=5))
            assert store.generation == 2
            assert store.read_generation() == 2

    def test_each_batch_commit_bumps_generation(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(
                StoreMetadata(names=tuple("abcd"), window_size=10)
            )
            g0 = store.generation
            store.write_windows([_record(0), _record(1)])
            assert store.generation == g0 + 2
            store.write_windows([_record(2)])
            assert store.generation == g0 + 4

    def test_quiescent_generation_is_even(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_metadata(StoreMetadata(names=tuple("abcd"),
                                               window_size=10))
            store.write_windows([_record(0)])
            assert store.generation % 2 == 0
            assert store.read_generation() % 2 == 0

    def test_reader_handle_detects_concurrent_commit(self, tmp_path):
        """The documented reader pattern: sample read_generation() around
        reads; a change means a writer committed in between."""
        writer = MmapStore(tmp_path / "st")
        writer.write_windows([_record(i) for i in range(4)])
        reader = MmapStore(tmp_path / "st", mode="r")
        g0 = reader.read_generation()
        reader.read_windows([0, 1])
        assert reader.read_generation() == g0  # quiescent store: no retry
        writer.write_windows([_record(4)])
        assert reader.read_generation() == g0 + 2  # mid-read commit detected

    def test_in_progress_overwrite_reads_odd(self, tmp_path):
        """The seqlock half of the pattern: a reader sampling *during* a
        rewrite of an existing record sees an odd generation — the
        sizes-last sentinel cannot flag overwrites, the parity does."""
        writer = MmapStore(tmp_path / "st")
        writer.write_windows([_record(i) for i in range(3)])
        reader = MmapStore(tmp_path / "st", mode="r")
        quiescent = reader.read_generation()
        assert quiescent % 2 == 0
        observed = []
        original = MmapStore._flush_records

        class SpyStore(MmapStore):
            def _flush_records(self, mem, lo, hi):  # mid-write observation
                observed.append(reader.read_generation())
                original(mem, lo, hi)

        spy = SpyStore(tmp_path / "st")
        spy.write_windows([_record(0, seed=99)])  # overwrite record 0
        assert observed  # flushed at least once mid-write
        assert all(g == quiescent + 1 for g in observed)  # odd: in progress
        assert all(g % 2 == 1 for g in observed)
        assert reader.read_generation() == quiescent + 2  # committed, even

    def test_generation_persists_across_reopen(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0)])
            store.write_windows([_record(1)])
            expected = store.generation
        assert MmapStore(tmp_path / "st").generation == expected

    def test_pre_generation_store_reads_as_zero(self, tmp_path):
        """Stores written before the counter existed stay readable."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0)])
        meta_path = tmp_path / "st" / "meta.json"
        payload = json.loads(meta_path.read_text())
        del payload["generation"]
        meta_path.write_text(json.dumps(payload))
        reopened = MmapStore(tmp_path / "st", mode="r")
        assert reopened.generation == 0
        assert reopened.read_generation() == 0
        assert reopened.read_windows([0])[0].size == 10

    def test_meta_replace_is_atomic(self, tmp_path):
        """No temp sidecar survives a commit (write + fsync + rename)."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(3)])
        names = {p.name for p in (tmp_path / "st").iterdir()}
        assert "meta.json.tmp" not in names
        assert "meta.json" in names

    def test_sizes_still_committed_last(self, tmp_path):
        """The generation counter rides on, not instead of, the sizes-last
        commit: a record is visible only once its size is nonzero."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0), _record(2)])
            with pytest.raises(StorageError, match="missing"):
                store.read_windows([1])

    def test_failed_commit_does_not_invert_parity(self, tmp_path):
        """A commit that dies between begin and finish leaves the store
        flagged odd (possibly torn); the NEXT successful batch must still
        open odd and close even — the parity is computed, not accumulated."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i) for i in range(3)])
            quiescent = store.generation
        assert quiescent % 2 == 0

        class FailingStore(MmapStore):
            def _ensure_capacity(self, needed):  # simulate ENOSPC
                raise StorageError("disk full")

        broken = FailingStore(tmp_path / "st")
        with pytest.raises(StorageError, match="disk full"):
            broken.write_windows([_record(0, seed=1)])
        # Interrupted commit: odd at rest, correctly flagging suspect data.
        recovered = MmapStore(tmp_path / "st")
        assert recovered.read_generation() % 2 == 1

        reader = MmapStore(tmp_path / "st", mode="r")
        observed = []
        original = MmapStore._flush_records

        class SpyStore(MmapStore):
            def _flush_records(self, mem, lo, hi):
                observed.append(reader.read_generation())
                original(mem, lo, hi)

        SpyStore(tmp_path / "st").write_windows([_record(0, seed=2)])
        assert observed and all(g % 2 == 1 for g in observed)  # still odd mid-write
        assert reader.read_generation() % 2 == 0  # healed: even once durable

    def test_metadata_write_preserves_torn_flag(self, tmp_path):
        """Only a completed record batch may clear the odd torn-data flag."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(0)])

        class FailingStore(MmapStore):
            def _ensure_capacity(self, needed):
                raise StorageError("disk full")

        with pytest.raises(StorageError):
            FailingStore(tmp_path / "st").write_windows([_record(1)])
        store = MmapStore(tmp_path / "st")
        assert store.generation % 2 == 1
        store.write_metadata(StoreMetadata(names=tuple("abcd"), window_size=10))
        assert store.generation % 2 == 1  # metadata alone cannot declare clean
        store.write_windows([_record(1)])
        assert store.generation % 2 == 0

    def test_second_writer_handle_never_regresses_generation(self, tmp_path):
        """A writer handle opened before another writer's commits must fold
        the on-disk generation into its own before publishing, or its next
        commit would regress the counter and mask the interleaved writes
        from readers."""
        a = MmapStore(tmp_path / "st")
        a.write_windows([_record(0)])
        b = MmapStore(tmp_path / "st")  # loads generation now
        a.write_windows([_record(1)])
        a.write_windows([_record(2)])
        g_disk = b.read_generation()
        assert g_disk > b.generation  # b's in-memory view is stale
        b.write_windows([_record(0, seed=7)])  # overwrite through stale handle
        g_after = b.read_generation()
        assert g_after > g_disk  # advanced, never regressed
        assert g_after % 2 == 0

    def test_stale_handle_does_not_clobber_metadata(self, tmp_path):
        """A handle opened before another handle wrote collection metadata
        must fold the on-disk sidecar in before rewriting it — not publish
        its stale (collection-less, generation-0) view over it."""
        stale = MmapStore(tmp_path / "st")  # opened first: no metadata yet
        fresh = MmapStore(tmp_path / "st")
        fresh.write_metadata(StoreMetadata(names=tuple("abcd"), window_size=10))
        g_meta = fresh.read_generation()
        stale.write_windows([_record(0)])  # must not clobber the sidecar
        reader = MmapStore(tmp_path / "st", mode="r")
        meta = reader.read_metadata()
        assert meta.names == tuple("abcd")
        assert meta.window_size == 10
        assert reader.read_generation() > g_meta  # advanced, never regressed
        assert reader.read_generation() % 2 == 0

    def test_reader_remaps_after_writer_grows_store(self, tmp_path):
        """The documented retry pattern must work when the detected commit
        *grew* the store: the reader's cached maps are remapped to the new
        capacity instead of raising IndexError on a fresh index."""
        writer = MmapStore(tmp_path / "st")
        writer.write_windows([_record(i) for i in range(4)])
        reader = MmapStore(tmp_path / "st", mode="r")
        g0 = reader.read_generation()
        old = reader.read_windows([0, 1])  # maps cached at capacity 4
        writer.write_windows([_record(10)])  # grows files to capacity 11
        assert reader.read_generation() != g0  # pattern: change detected
        fresh = reader.read_windows([10])[0]  # retry must succeed
        assert fresh.index == 10
        np.testing.assert_array_equal(fresh.pairs, _record(10).pairs)
        # Views taken before the growth stay valid (old mapping kept alive).
        np.testing.assert_array_equal(old[0].pairs, _record(0).pairs)
        assert reader.window_count() == 5


class TestTrim:
    """Compaction of trailing capacity left by out-of-order writes."""

    def _sketch(self, n=6, points=300, window=50):
        rng = np.random.default_rng(42)
        return build_sketch(rng.normal(size=(n, points)), window)

    def test_compact_store_is_a_noop(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            save_sketch(store, self._sketch())
            generation = store.read_generation()
            assert store.trim() == 0
            assert store.read_generation() == generation

    def test_reclaims_trailing_unwritten_capacity(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i, n=5) for i in range(4)])
            # An out-of-order batch grew capacity, then never committed
            # (crash simulation: capacity exists, sizes stay zero).
            store._ensure_capacity(32)
            oversized = store.size_bytes()
            reclaimed = store.trim()
            assert reclaimed > 0
            assert store.size_bytes() == oversized - reclaimed
            assert store.window_count() == 4
            records = store.read_windows([0, 3])
            assert [r.index for r in records] == [0, 3]
            assert (tmp_path / "st" / "sizes.i64").stat().st_size == 4 * 8
            # Generation advanced to an even (committed) value.
            assert store.read_generation() % 2 == 0

    def test_interior_holes_are_preserved(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i, n=4) for i in (0, 1, 5)])
            store._ensure_capacity(20)
            store.trim()
            # Capacity shrank to the last committed record...
            assert (tmp_path / "st" / "sizes.i64").stat().st_size == 6 * 8
            # ... but the interior hole stays a hole (indices are semantic).
            with pytest.raises(StorageError, match="missing"):
                store.read_windows([3])
            assert store.read_windows([5])[0].index == 5

    def test_trim_preserves_prefix_tables(self, tmp_path):
        sketch = self._sketch()
        with MmapStore(tmp_path / "st") as store:
            save_sketch(store, sketch)
            covered = store.build_prefix()
            assert covered == sketch.n_windows
            store._ensure_capacity(sketch.n_windows + 16)
            assert store.trim() > 0
            assert store.prefix_rows == sketch.n_windows + 1
            aggregates = store.read_prefix()
            assert aggregates is not None
            assert aggregates.covered == sketch.n_windows
        # Reopen from disk: the sidecar and tables agree after the trim.
        with MmapStore(tmp_path / "st", mode="r") as reopened:
            assert reopened.read_prefix().covered == sketch.n_windows

    def test_trim_requires_writable_store_with_records(self, tmp_path):
        with MmapStore(tmp_path / "st") as store:
            save_sketch(store, self._sketch())
        with MmapStore(tmp_path / "st", mode="r") as readonly:
            with pytest.raises(StorageError, match="read-only"):
                readonly.trim()
        with MmapStore(tmp_path / "empty") as empty:
            with pytest.raises(StorageError, match="no window records"):
                empty.trim()

    def test_reader_detects_concurrent_trim(self, tmp_path):
        """trim runs behind the generation barrier like any commit."""
        with MmapStore(tmp_path / "st") as store:
            store.write_windows([_record(i, n=4) for i in range(3)])
            store._ensure_capacity(10)
        reader = MmapStore(tmp_path / "st", mode="r")
        g0 = reader.read_generation()
        with MmapStore(tmp_path / "st") as writer:
            writer.trim()
        assert reader.read_generation() != g0
        assert reader.read_generation() % 2 == 0
        reader.close()


class TestPackedAnswersMatchV1:
    """Prefix and direct answers over packed tables keep the v1 bits.

    A sketch of the benchmark's shape (64 series, B = 32, here 600 windows).
    The digests are the first 16 hex digits of the SHA-256 of each answer's
    float64 bytes, recorded from the version-1 layout (full ``n x n``
    tables). The prefix digests of the four non-aligned queries were
    re-recorded when the prefix kernels began folding raw fragment points
    instead of fragment sketches (different arithmetic by design); those
    answers are also checked against ``np.corrcoef`` within
    :data:`~repro.core.prefix.PREFIX_ATOL`. Those bits also depend on how
    the platform's BLAS rounds, so the check runs only where the sketch
    itself — which the layout does not touch — reproduces its recorded
    digest.
    """

    SKETCH_DIGEST = "576496dbec75b1f5"
    MATRICES = {
        (19199, 16000): ("f5f1786dc7dbaded", "2ad112e15d1598bf"),
        (12767, 6752): ("6ade81514d3b1bbc", "40a40b5b74ec6995"),
        (19194, 14417): ("49a15217f623a3ad", "baeba3a774700018"),
        (7000, 4003): ("f2f4be2ba3739d3d", "22b8830378d7ddaf"),
        (18000, 12345): ("5ea65bdd35cb7c79", "231fd47895a98958"),
        (19198, 19197): ("2201421ce41b76af", "f3ad9abb183ae34e"),
    }
    ROWS = {
        (0, 600, 0): "bf6dcec48ce8fede",
        (37, 411, 63): "5008d3456f8d9f45",
        (100, 101, 5): "7469447ba3259bb2",
    }

    @staticmethod
    def _digest(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]

    def test_prefix_and_direct_bits(self, tmp_path):
        values = generate_station_dataset(
            n_stations=64, n_points=600 * 32, seed=2
        ).values
        sketch = build_sketch(values, 32)
        if self._digest(sketch.covs) != self.SKETCH_DIGEST:
            pytest.skip("this platform's BLAS rounds the sketch differently")
        with MmapStore(tmp_path / "st") as store:
            save_sketch(store, sketch)
            store.build_prefix()
        for column, prefix in enumerate((True, False)):
            provider = MmapProvider(tmp_path / "st", data=values, prefix=prefix)
            engine = TsubasaHistorical(provider=provider)
            for query, digests in self.MATRICES.items():
                got = engine.correlation_matrix(query).values
                assert self._digest(got) == digests[column], (query, prefix)
                end, length = query
                start, stop = end - length + 1, end + 1
                if prefix and (start % 32 or stop % 32):  # re-recorded digest
                    exact = np.corrcoef(values[:, start:stop])
                    assert np.max(np.abs(got - exact)) <= PREFIX_ATOL, query
        provider = MmapProvider(tmp_path / "st")
        for (lo, hi, row), digest in self.ROWS.items():
            assert self._digest(provider.prefix_row(lo, hi, row)) == digest
