"""Tests for the async TsubasaService (repro.api.service).

Acceptance bar: ≥32 concurrent in-flight specs over one shared provider,
answers bit-identical to serial execution, and demonstrated coalescing of
duplicate window selections.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.service import TsubasaService, run_specs
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
    PrefixProvider,
)
from repro.exceptions import ServiceError, SketchError
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore

B = 50
N_POINTS = 600


@pytest.fixture(scope="module")
def data():
    from repro.data.synthetic import generate_station_dataset

    return generate_station_dataset(
        n_stations=14, n_points=N_POINTS, seed=7
    ).values


@pytest.fixture(scope="module")
def sketch(data):
    return build_sketch(data, B)


def overlapping_specs(n: int) -> list[QuerySpec]:
    """``n`` specs over a small pool of overlapping windows (duplicates
    guaranteed, so coalescing must trigger)."""
    windows = [
        WindowSpec(end=599, length=200),
        WindowSpec(end=599, length=400),
        WindowSpec(end=399, length=200),
        WindowSpec(start=200, stop=600),
        WindowSpec(first_window=0, n_windows=8),
    ]
    specs: list[QuerySpec] = []
    for i in range(n):
        window = windows[i % len(windows)]
        kind = i % 4
        if kind == 0:
            specs.append(QuerySpec(op="matrix", window=window))
        elif kind == 1:
            specs.append(QuerySpec(op="network", window=window, theta=0.4))
        elif kind == 2:
            specs.append(QuerySpec(op="top_k", window=window, k=5))
        else:
            specs.append(QuerySpec(op="degree", window=window, theta=0.3))
    return specs


def values_of(result) -> np.ndarray | object:
    """A comparable form of a QueryResult's value."""
    spec = result.spec
    if spec.op == "matrix":
        return result.value.values
    if spec.op == "network":
        return result.value.edge_set()
    return result.value


def assert_identical_to_serial(results, serial_client, specs):
    for result, spec in zip(results, specs):
        expected = serial_client.execute(spec)
        got = values_of(result)
        want = values_of(expected)
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want


def make_shared_provider(backend: str, sketch, data, tmp_path):
    if backend == "mmap":
        path = tmp_path / "svc.mm"
        if not path.exists():
            with MmapStore(path) as store:
                save_sketch(store, sketch)
        return MmapProvider(path)
    if backend == "memory":
        return InMemoryProvider(sketch)
    if backend == "chunked":
        return ChunkedBuildProvider(data, B)
    if backend == "prefix":
        return PrefixProvider(InMemoryProvider(sketch))
    raise AssertionError(backend)


class TestConcurrentMmapProvider:
    @pytest.mark.parametrize("backend", ["mmap", "memory", "chunked", "prefix"])
    def test_32_concurrent_specs_multithreaded(
        self, backend, sketch, data, tmp_path
    ):
        shared = make_shared_provider(backend, sketch, data, tmp_path)
        client = TsubasaClient(provider=shared)
        specs = overlapping_specs(48)

        # Every provider is read-only after construction — more executor
        # threads than cores compute matrices concurrently over the one
        # shared backend, switching as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, stats = run_specs(client, specs, max_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert stats.completed == 48
        assert stats.failed == 0
        assert stats.coalesced > 0
        latency = stats.backend_latency[shared.backend_name]
        assert latency.count == stats.matrices_computed
        assert latency.mean_seconds > 0.0
        serial = TsubasaClient(
            provider=make_shared_provider(backend, sketch, data, tmp_path)
        )
        assert_identical_to_serial(results, serial, specs)

    def test_duplicate_specs_coalesce_fully(self, sketch, tmp_path):
        with MmapStore(tmp_path / "dup.mm") as store:
            save_sketch(store, sketch)
        client = TsubasaClient(provider=MmapProvider(tmp_path / "dup.mm"))
        spec = QuerySpec(op="network", window=WindowSpec(end=599, length=400),
                         theta=0.4)
        results, stats = run_specs(client, [spec] * 32)
        assert stats.matrices_computed == 1
        assert stats.coalesced == 31
        edge_sets = {frozenset(r.value.edge_set()) for r in results}
        assert len(edge_sets) == 1
        assert sum(r.provenance.coalesced for r in results) == 31

    def test_duplicate_prefix_specs_coalesce_fully(self, sketch, tmp_path):
        with MmapStore(tmp_path / "dup.mm") as store:
            save_sketch(store, sketch)
            store.build_prefix()
        client = TsubasaClient(provider=MmapProvider(tmp_path / "dup.mm"))
        spec = QuerySpec(op="network", window=WindowSpec(end=599, length=400),
                         theta=0.4)
        results, stats = run_specs(client, [spec] * 32)
        # The inline prefix answer still runs in the coalescing task, so the
        # 31 duplicates submitted in the same loop tick join it.
        assert stats.matrices_computed == 1
        assert stats.coalesced == 31
        assert {r.provenance.path for r in results} == {"prefix"}
        edge_sets = {frozenset(r.value.edge_set()) for r in results}
        assert len(edge_sets) == 1
        assert sum(r.provenance.coalesced for r in results) == 31


class ThreadRecordingClient(TsubasaClient):
    """Records the thread every matrix computation runs on."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads: set[int] = set()

    def compute_matrix(self, spec, window):
        self.threads.add(threading.get_ident())
        return super().compute_matrix(spec, window)


def mmap_provider(sketch, data, tmp_path, tables: bool):
    path = tmp_path / ("tables.mm" if tables else "plain.mm")
    with MmapStore(path) as store:
        save_sketch(store, sketch)
        if tables:
            store.build_prefix()
    return MmapProvider(path, data=data)


def executor_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith("tsubasa-service")
    ]


class TestComputeThread:
    """Prefix answers run on the event loop; everything else off it."""

    def drive(self, client, specs):
        async def run():
            async with TsubasaService(client, max_workers=2) as service:
                results = await asyncio.gather(
                    *(service.submit(spec) for spec in specs)
                )
                return results, threading.get_ident(), executor_threads()

        return asyncio.run(run())

    def specs(self) -> list[QuerySpec]:
        # The last window is non-aligned: prefix rows plus raw fragments.
        return overlapping_specs(12) + [
            QuerySpec(op="matrix", window=WindowSpec(end=587, length=473))
        ]

    @pytest.mark.parametrize("backend", ["mmap", "prefix"])
    def test_prefix_backed_provider_computes_on_loop(
        self, backend, sketch, data, tmp_path
    ):
        if backend == "mmap":
            provider = mmap_provider(sketch, data, tmp_path, tables=True)
        else:
            provider = PrefixProvider(InMemoryProvider(sketch, data=data))
        client = ThreadRecordingClient(provider=provider)
        specs = self.specs()
        results, loop_thread, pool = self.drive(client, specs)
        assert client.threads == {loop_thread}
        assert pool == []  # the executor never started a thread
        assert {r.provenance.path for r in results} == {"prefix"}
        assert_identical_to_serial(
            results, TsubasaClient(provider=provider), specs
        )

    @pytest.mark.parametrize("backend", ["mmap", "memory"])
    def test_direct_path_provider_computes_off_loop(
        self, backend, sketch, data, tmp_path
    ):
        if backend == "mmap":
            provider = mmap_provider(sketch, data, tmp_path, tables=False)
        else:
            provider = InMemoryProvider(sketch, data=data)
        client = ThreadRecordingClient(provider=provider)
        specs = self.specs()
        results, loop_thread, pool = self.drive(client, specs)
        assert client.threads and loop_thread not in client.threads
        assert pool
        assert {r.provenance.path for r in results} == {"direct"}
        assert_identical_to_serial(
            results, TsubasaClient(provider=provider), specs
        )

    def test_probe_matches_compute_path(self, sketch, data, tmp_path):
        prefixed = TsubasaClient(
            provider=mmap_provider(sketch, data, tmp_path, tables=True)
        )
        plain = TsubasaClient(
            provider=mmap_provider(sketch, data, tmp_path, tables=False)
        )
        for spec in self.specs():
            for client in (prefixed, plain):
                probe = client.takes_prefix_path(spec, spec.window)
                path = client.compute_matrix(spec, spec.window).path
                assert probe == (path == "prefix")


class TestDiffNetworkCoalescing:
    def test_diff_shares_windows_with_plain_queries(self, sketch, tmp_path):
        with MmapStore(tmp_path / "diff.mm") as store:
            save_sketch(store, sketch)
        client = TsubasaClient(provider=MmapProvider(tmp_path / "diff.mm"))
        current = WindowSpec(end=599, length=200)
        previous = WindowSpec(end=399, length=200)
        specs = [
            QuerySpec(op="network", window=current, theta=0.4),
            QuerySpec(op="network", window=previous, theta=0.4),
            QuerySpec(op="diff_network", window=current, baseline=previous,
                      theta=0.4),
        ]
        results, stats = run_specs(client, specs)
        # Both of the diff's windows ride on the plain queries' matrices.
        assert stats.matrices_computed == 2
        assert stats.coalesced == 2
        appeared, disappeared = results[2].value
        assert appeared == (
            results[0].value.edge_set() - results[1].value.edge_set()
        )
        assert disappeared == (
            results[1].value.edge_set() - results[0].value.edge_set()
        )


class TestErrorsAndLifecycle:
    def test_invalid_window_raises_in_submitter(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        bad = QuerySpec(op="matrix", window=WindowSpec(end=587, length=173))

        async def drive():
            async with TsubasaService(client) as service:
                with pytest.raises(SketchError):
                    await service.submit(bad)
                # The service keeps serving after a failed request.
                ok = await service.submit(
                    QuerySpec(op="matrix", window=WindowSpec(end=599,
                                                             length=200))
                )
                return ok, service.stats()

        ok, stats = asyncio.run(drive())
        assert stats.failed == 1
        assert stats.completed == 1
        assert ok.value.values.shape == (sketch.n_series, sketch.n_series)

    def test_submit_requires_started_service(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        service = TsubasaService(client)

        async def drive():
            with pytest.raises(ServiceError, match="not started"):
                await service.submit(
                    QuerySpec(op="matrix", window=WindowSpec(end=599,
                                                             length=200))
                )

        asyncio.run(drive())

    def test_submit_after_close_raises(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))

        async def drive():
            service = TsubasaService(client)
            await service.start()
            await service.aclose()
            with pytest.raises(ServiceError, match="closed"):
                await service.submit(
                    QuerySpec(op="matrix", window=WindowSpec(end=599,
                                                             length=200))
                )

        asyncio.run(drive())

    def test_stats_snapshot_before_start(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        stats = TsubasaService(client).stats()
        assert stats.submitted == 0
        assert stats.coalesce_rate == 0.0

    def test_queue_drains_by_close(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        specs = overlapping_specs(16)

        async def drive():
            service = TsubasaService(client)
            await service.start()
            tasks = [
                asyncio.get_running_loop().create_task(service.submit(s))
                for s in specs
            ]
            await asyncio.sleep(0)  # let every submit reach the queue
            await service.aclose()  # must drain the accepted requests
            return await asyncio.gather(*tasks), service.stats()

        results, stats = asyncio.run(drive())
        assert len(results) == 16
        assert stats.completed == 16
        assert stats.in_flight == 0

    def test_cancelled_caller_leaves_coalesced_peer_its_matrix(self, sketch):
        class SlowClient(TsubasaClient):
            def compute_matrix(self, spec, window):
                time.sleep(0.2)
                return super().compute_matrix(spec, window)

        client = SlowClient(provider=InMemoryProvider(sketch))
        spec = QuerySpec(op="matrix", window=WindowSpec(end=599, length=200))

        async def drive():
            async with TsubasaService(client) as service:
                leader = asyncio.ensure_future(service.submit(spec))
                survivor = asyncio.ensure_future(service.submit(spec))
                await asyncio.sleep(0.05)  # both joined one computation
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                return await survivor, service.stats()

        result, stats = asyncio.run(drive())
        serial = TsubasaClient(provider=InMemoryProvider(sketch)).execute(spec)
        np.testing.assert_array_equal(result.value.values, serial.value.values)
        assert result.provenance.coalesced
        assert stats.matrices_computed == 1
        assert stats.coalesced == 1
        assert stats.completed == 1
        assert stats.failed == 1  # the cancelled caller


class TestResultCache:
    """The bounded LRU of finished matrices (result_cache > 0)."""

    def submit_sequentially(self, service, specs):
        async def drive():
            results = []
            for spec in specs:
                results.append(await service.submit(spec))
            return results

        return drive()

    def test_repeat_specs_served_from_cache(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        spec = QuerySpec(op="matrix", window=WindowSpec(end=599, length=200))

        async def drive():
            async with TsubasaService(client, result_cache=8) as service:
                first = await service.submit(spec)
                second = await service.submit(spec)
                third = await service.submit(spec)
                return first, second, third, service.stats()

        first, second, third, stats = asyncio.run(drive())
        assert not first.provenance.cache
        assert second.provenance.cache and third.provenance.cache
        np.testing.assert_array_equal(first.value.values, second.value.values)
        np.testing.assert_array_equal(first.value.values, third.value.values)
        assert stats.matrices_computed == 1
        assert stats.result_cache_hits == 2
        assert stats.result_cache_misses == 1
        assert stats.result_cache_hit_rate == pytest.approx(2 / 3)

    def test_cache_shared_across_ops_via_matrix_key(self, sketch):
        """Different ops over the same window reuse one cached matrix."""
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        window = WindowSpec(end=599, length=200)
        specs = [
            QuerySpec(op="matrix", window=window),
            QuerySpec(op="network", window=window, theta=0.4),
            QuerySpec(op="top_k", window=window, k=3),
        ]

        async def drive():
            async with TsubasaService(client, result_cache=8) as service:
                results = await self.submit_sequentially(service, specs)
                return results, service.stats()

        results, stats = asyncio.run(drive())
        assert stats.matrices_computed == 1
        assert stats.result_cache_hits == 2
        assert [r.provenance.cache for r in results] == [False, True, True]

    def test_disabled_cache_recomputes(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        spec = QuerySpec(op="matrix", window=WindowSpec(end=599, length=200))

        async def drive():
            async with TsubasaService(client) as service:  # default: off
                await service.submit(spec)
                result = await service.submit(spec)
                return result, service.stats()

        result, stats = asyncio.run(drive())
        assert not result.provenance.cache
        assert stats.matrices_computed == 2
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 0

    def test_lru_bound_evicts_oldest(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        windows = [
            WindowSpec(first_window=i, n_windows=2) for i in range(4)
        ]
        specs = [QuerySpec(op="matrix", window=w) for w in windows]

        async def drive():
            async with TsubasaService(client, result_cache=2) as service:
                for spec in specs:  # fill: 0, 1 evicted by 2, 3
                    await service.submit(spec)
                evicted = await service.submit(specs[0])
                kept = await service.submit(specs[3])
                return evicted, kept, service.stats()

        evicted, kept, stats = asyncio.run(drive())
        assert not evicted.provenance.cache  # recomputed after eviction
        assert kept.provenance.cache
        assert stats.matrices_computed == 5

    def test_cached_results_match_fresh_store_queries(self, sketch, tmp_path):
        with SqliteSketchStore(tmp_path / "cache.db") as store:
            save_sketch(store, sketch)
            client = TsubasaClient(provider=InMemoryProvider(load_sketch(store)))
        specs = overlapping_specs(24)

        async def drive():
            async with TsubasaService(client, result_cache=16) as service:
                results = await self.submit_sequentially(service, specs)
                return results, service.stats()

        results, stats = asyncio.run(drive())
        assert stats.result_cache_hits > 0
        with SqliteSketchStore(tmp_path / "cache.db") as store:
            serial = TsubasaClient(provider=InMemoryProvider(load_sketch(store)))
        assert_identical_to_serial(results, serial, specs)

    def test_cached_execution_reports_no_provider_reads(
        self, sketch, counting_provider
    ):
        provider = counting_provider(sketch)
        client = TsubasaClient(provider=provider)
        spec = QuerySpec(op="matrix", window=WindowSpec(end=599, length=400))

        async def drive():
            async with TsubasaService(client, result_cache=4) as service:
                await service.submit(spec)
                reads_after_first = provider.windows_read
                result = await service.submit(spec)
                return result, reads_after_first, provider.windows_read

        result, before, after = asyncio.run(drive())
        assert result.provenance.cache
        assert before > 0  # the first submit streamed the window records
        assert after == before  # replay touched no window records
        assert result.provenance.cache_hits == 0
        assert result.provenance.cache_misses == 0

    def test_rejects_negative_capacity(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        from repro.exceptions import DataError

        with pytest.raises(DataError):
            TsubasaService(client, result_cache=-1)
