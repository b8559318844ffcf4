"""Tests for repro.storage.live (durable real-time operation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.realtime import TsubasaRealtime
from repro.exceptions import StreamError
from repro.storage.live import PersistentRealtime
from repro.storage.memory import MemorySketchStore
from repro.storage.serialize import load_sketch
from repro.storage.sqlite_store import SqliteSketchStore


@pytest.fixture()
def stream_data(rng):
    base = rng.normal(size=(2, 700))
    mix = rng.normal(size=(8, 2))
    return mix @ base + 0.4 * rng.normal(size=(8, 700))


class TestBootstrapAndIngest:
    def test_seed_windows_persisted(self, stream_data):
        store = MemorySketchStore()
        live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        assert live.windows_persisted == 6

    def test_streamed_windows_appended(self, stream_data):
        store = MemorySketchStore()
        live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        slides = live.ingest(stream_data[:, 300:470])
        assert slides == 3
        assert live.windows_persisted == 9  # 6 seed + 3 streamed

    def test_partial_batches_not_persisted_early(self, stream_data):
        store = MemorySketchStore()
        live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        live.ingest(stream_data[:, 300:330])  # 30 < B
        assert live.windows_persisted == 6
        live.ingest(stream_data[:, 330:350])  # completes one window
        assert live.windows_persisted == 7

    def test_persisted_records_match_offline_sketch(self, stream_data):
        from repro.core.sketch import build_sketch

        store = MemorySketchStore()
        live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        live.ingest(stream_data[:, 300:500])
        stored = load_sketch(store)
        offline = build_sketch(stream_data[:, :500], 50)
        np.testing.assert_allclose(stored.means, offline.means, atol=1e-12)
        np.testing.assert_allclose(stored.covs, offline.covs, atol=1e-12)

    def test_network_still_exact(self, stream_data):
        store = MemorySketchStore()
        live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        live.ingest(stream_data[:, 300:600])
        ref = np.corrcoef(stream_data[:, 300:600])
        np.testing.assert_allclose(
            live.correlation_matrix().values, ref, atol=1e-9
        )
        assert live.network(0.5).n_nodes == 8


class TestResume:
    def test_resume_matches_original_process(self, stream_data, tmp_path):
        path = tmp_path / "live.db"
        with SqliteSketchStore(path) as store:
            live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
            live.ingest(stream_data[:, 300:500])
            before_crash = live.correlation_matrix().values

        # "New process": resume purely from disk.
        with SqliteSketchStore(path) as store:
            resumed = PersistentRealtime.resume(store, query_windows=6)
            np.testing.assert_allclose(
                resumed.correlation_matrix().values, before_crash, atol=1e-12
            )
            # And keep streaming seamlessly.
            resumed.ingest(stream_data[:, 500:700])
            ref = np.corrcoef(stream_data[:, 400:700])
            np.testing.assert_allclose(
                resumed.correlation_matrix().values, ref, atol=1e-9
            )
            assert resumed.windows_persisted == 14

    def test_resume_rejects_short_store(self, stream_data, tmp_path):
        with SqliteSketchStore(tmp_path / "short.db") as store:
            PersistentRealtime.bootstrap(stream_data[:, :100], 50, store)
            with pytest.raises(StreamError):
                PersistentRealtime.resume(store, query_windows=10)

    def test_resume_keeps_the_stream_clock(self, stream_data, tmp_path):
        with SqliteSketchStore(tmp_path / "clock.db") as store:
            live = PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
            live.ingest(stream_data[:, 300:500])
            resumed = PersistentRealtime.resume(store, query_windows=6)
            assert resumed.engine.now == live.engine.now == 500
            resumed.ingest(stream_data[:, 500:550])
            assert resumed.engine.now == 550

    def test_resume_rejects_empty_query(self, stream_data, tmp_path):
        with SqliteSketchStore(tmp_path / "empty_query.db") as store:
            PersistentRealtime.bootstrap(stream_data[:, :100], 50, store)
            with pytest.raises(StreamError):
                PersistentRealtime.resume(store, query_windows=0)


class TestMetadataGuards:
    def test_mismatched_names_rejected(self, stream_data):
        store = MemorySketchStore()
        PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        other = TsubasaRealtime(
            stream_data[:, :300], 50,
            names=[f"other{i}" for i in range(8)],
        )
        with pytest.raises(StreamError):
            PersistentRealtime(other, store)

    def test_mismatched_window_size_rejected(self, stream_data):
        store = MemorySketchStore()
        PersistentRealtime.bootstrap(stream_data[:, :300], 50, store)
        other = TsubasaRealtime(stream_data[:, :300], 100)
        with pytest.raises(StreamError):
            PersistentRealtime(other, store)
