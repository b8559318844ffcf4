"""Asynchronous TSUBASA query service: many specs, one shared backend.

:class:`TsubasaService` is the long-lived form of
:class:`~repro.api.client.TsubasaClient`: an :mod:`asyncio` component that
multiplexes many concurrent :class:`~repro.api.spec.QuerySpec` requests over
one shared sketch provider. Four things make it more than a thread wrapper:

* **In-flight coalescing** — requests whose specs need the same correlation
  matrix (same resolved window, engine, and method) share one computation;
  the duplicates just await the leader's future. Dashboards issuing
  ``network`` + ``top_k`` + ``degree`` over the same window pay for one
  Lemma 1 pass.
* **Result caching** — with ``result_cache > 0``, *finished* matrices stay
  in a bounded LRU keyed by the same identity coalescing uses
  (:meth:`~repro.api.client.TsubasaClient.matrix_key`), so repeat dashboards
  arriving after the original computation completed are served without
  recomputation (flagged ``cache=True`` in their provenance). Providers are
  immutable snapshots, so cached matrices never go stale within a service's
  lifetime.
* **Batched store reads** — before a drained batch of queued requests is
  dispatched, the union of every request's basic windows is prefetched
  through the provider's existing LRU in one batched read
  (:meth:`~repro.engine.providers.StoreProvider.prefetch`), so requests that
  arrive together share store round-trips instead of issuing N overlapping
  scans.
* **Observability** — :meth:`TsubasaService.stats` reports queue depth,
  in-flight count, coalesce rate, prefetched windows, and per-backend
  latency, the numbers a deployment watches.

Matrix computations run on a dedicated thread pool so the event loop stays
responsive. The default of one executor thread serializes backend access,
which is required for cache-bearing providers
(:class:`~repro.engine.providers.StoreProvider`'s LRU and sqlite3
connection are not thread-safe); asking for ``max_workers > 1`` over such a
backend is rejected at construction
(:attr:`~repro.engine.providers.SketchProvider.thread_safe_reads`).
Read-only backends (:class:`~repro.engine.providers.MmapProvider`,
:class:`~repro.engine.providers.InMemoryProvider`) run safely with
``max_workers > 1``.

Usage::

    client = TsubasaClient(provider=MmapProvider("sketch.mm"))
    async with TsubasaService(client, max_workers=4) as service:
        results = await asyncio.gather(
            *(service.submit(spec) for spec in specs)
        )
        print(service.stats().coalesce_rate)
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.api.client import MatrixExecution, TsubasaClient
from repro.api.spec import QueryResult, QuerySpec
from repro.engine.providers import SketchProvider
from repro.exceptions import (
    DataError,
    DeadlineExceeded,
    ServiceError,
    TsubasaError,
)

__all__ = ["TsubasaService", "ServiceStats", "BackendLatency", "run_specs"]


@dataclass(frozen=True)
class BackendLatency:
    """Latency aggregate of one backend's matrix computations.

    Attributes:
        count: Matrix computations measured.
        total_seconds: Summed wall time.
    """

    count: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        """Mean seconds per matrix computation (0.0 when unmeasured)."""
        return self.total_seconds / self.count if self.count else 0.0


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters (a consistent snapshot).

    Attributes:
        submitted: Specs accepted by :meth:`TsubasaService.submit`.
        completed: Specs answered successfully.
        failed: Specs that raised.
        coalesced: Requests that shared an in-flight matrix computation.
        matrices_computed: Matrix computations actually executed.
        prefetched_windows: Window records batch-read ahead of dispatch.
        queue_depth: Requests currently waiting for dispatch.
        max_queue_depth: High-water mark of the dispatch queue.
        in_flight: Matrix computations currently running or awaited.
        result_cache_hits: Matrix demands served from the finished-result
            LRU (0 when the cache is disabled).
        result_cache_misses: Matrix demands that missed the result LRU
            (coalesced and computed demands both count; 0 when disabled).
        deadline_shed: Requests failed with
            :class:`~repro.exceptions.DeadlineExceeded` because their
            ``deadline_ms`` budget ran out queued or mid-computation
            (counted in ``failed`` too).
        backend_latency: Per-backend latency aggregates, keyed by backend
            name.
    """

    submitted: int
    completed: int
    failed: int
    coalesced: int
    matrices_computed: int
    prefetched_windows: int
    queue_depth: int
    max_queue_depth: int
    in_flight: int
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    deadline_shed: int = 0
    backend_latency: dict[str, BackendLatency] = field(default_factory=dict)

    @property
    def coalesce_rate(self) -> float:
        """Fraction of matrix demands served by an in-flight computation."""
        demands = self.matrices_computed + self.coalesced
        return self.coalesced / demands if demands else 0.0

    @property
    def result_cache_hit_rate(self) -> float:
        """Fraction of matrix demands served by the result LRU."""
        demands = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / demands if demands else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible form (the ``/v1/stats`` endpoint's payload)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "coalesced": self.coalesced,
            "coalesce_rate": self.coalesce_rate,
            "matrices_computed": self.matrices_computed,
            "prefetched_windows": self.prefetched_windows,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "in_flight": self.in_flight,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "result_cache_hit_rate": self.result_cache_hit_rate,
            "deadline_shed": self.deadline_shed,
            "backend_latency": {
                backend: {
                    "count": latency.count,
                    "total_seconds": latency.total_seconds,
                    "mean_seconds": latency.mean_seconds,
                }
                for backend, latency in self.backend_latency.items()
            },
        }


class _Request:
    __slots__ = ("spec", "future", "submitted_at", "deadline")

    def __init__(self, spec: QuerySpec, future: asyncio.Future) -> None:
        self.spec = spec
        self.future = future
        self.submitted_at = time.perf_counter()
        # deadline_ms is a *relative* budget; anchor it to this process's
        # monotonic clock the moment the request is accepted, so queue
        # wait counts against it and clock skew never does.
        self.deadline = (
            self.submitted_at + spec.deadline_ms / 1000.0
            if spec.deadline_ms is not None
            else None
        )


class TsubasaService:
    """Long-lived asyncio query service over one shared client/backend.

    Args:
        client: The planner/facade executing matrix computations and
            post-processing. Its provider is shared across every request.
        max_workers: Executor threads running matrix computations. Values
            above 1 are only accepted for backends that declare
            ``thread_safe_reads`` (mmap, in-memory); cache-bearing
            providers (``StoreProvider``, ``ChunkedBuildProvider``) must
            stay at the default of 1.
        max_batch: Maximum queued requests drained per dispatch round (the
            unit of prefetch batching).
        prefetch: Batch-read the union of a dispatch round's windows through
            the provider cache before executing (on by default; only
            backends implementing ``prefetch`` do any work).
        result_cache: Finished matrices kept in a bounded LRU keyed by
            :meth:`~repro.api.client.TsubasaClient.matrix_key` and replayed
            to later identical demands. ``0`` (the default) disables the
            cache. Memory cost is ``O(result_cache * n_series^2)`` floats.
    """

    def __init__(
        self,
        client: TsubasaClient,
        max_workers: int = 1,
        max_batch: int = 64,
        prefetch: bool = True,
        result_cache: int = 0,
    ) -> None:
        if not isinstance(client, TsubasaClient):
            raise DataError(f"expected a TsubasaClient, got {type(client)!r}")
        if max_workers <= 0:
            raise DataError("max_workers must be positive")
        provider = client.provider
        if (
            max_workers > 1
            and provider is not None
            and not provider.thread_safe_reads
        ):
            # A cache-bearing backend (StoreProvider's LRU + sqlite3
            # connection, ChunkedBuildProvider's LRU) corrupts state under
            # concurrent reads; refusing here turns a data race into a
            # clear configuration error.
            raise ServiceError(
                f"the {provider.backend_name!r} backend is not safe for "
                f"concurrent reads; use max_workers=1 (or an mmap/in-memory "
                "provider for multi-threaded service execution)"
            )
        if max_batch <= 0:
            raise DataError("max_batch must be positive")
        if result_cache < 0:
            raise DataError("result_cache must be >= 0")
        self._client = client
        self._max_workers = max_workers
        self._max_batch = max_batch
        self._prefetch_enabled = prefetch
        self._queue: asyncio.Queue[_Request] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._serve_tasks: set[asyncio.Task] = set()
        self._inflight: dict[tuple, asyncio.Task] = {}
        # Every accepted request's future, until it resolves — the drain set
        # aclose() waits on (the queue alone can look empty while a batch is
        # in the dispatcher's hands).
        self._open_requests: set[asyncio.Future] = set()
        self._closed = False
        # Counters (event-loop confined; mutated only from loop callbacks).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._coalesced = 0
        self._matrices = 0
        self._prefetched = 0
        self._max_queue_depth = 0
        self._deadline_shed = 0
        self._latency: dict[str, list[float]] = {}
        # Finished-result LRU (event-loop confined, like the counters).
        self._result_capacity = result_cache
        self._results: OrderedDict[tuple, MatrixExecution] = OrderedDict()
        self._result_hits = 0
        self._result_misses = 0

    @property
    def client(self) -> TsubasaClient:
        """The shared query client."""
        return self._client

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "TsubasaService":
        """Start the dispatcher; idempotent until :meth:`aclose`."""
        if self._closed:
            raise ServiceError("service is closed")
        if self._dispatcher is None:
            self._queue = asyncio.Queue()
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="tsubasa-service",
            )
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        return self

    async def aclose(self) -> None:
        """Drain outstanding work, then stop the dispatcher and executor."""
        if self._closed:
            return
        self._closed = True
        # Let already-accepted requests finish before tearing down. Waiting
        # on the request futures (not the queue or serve tasks) is immune to
        # the window where the dispatcher holds a drained batch that has no
        # serve tasks yet.
        while self._open_requests:
            await asyncio.wait(set(self._open_requests))
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "TsubasaService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- request path --------------------------------------------------------

    async def submit(self, spec: QuerySpec) -> QueryResult:
        """Submit one spec and await its result.

        Safe to call from many tasks concurrently; identical in-flight
        window selections are computed once. Raises whatever the query
        raises (:class:`~repro.exceptions.TsubasaError` subclasses for
        invalid windows/specs).
        """
        if self._closed:
            raise ServiceError("cannot submit to a closed service")
        if self._dispatcher is None:
            raise ServiceError(
                "service not started; use 'async with TsubasaService(...)' "
                "or await start()"
            )
        if not isinstance(spec, QuerySpec):
            raise DataError(f"expected a QuerySpec, got {type(spec)!r}")
        if spec.op == "subscribe":
            raise ServiceError(
                "subscribe is a streaming operation; the service answers "
                "request/response specs only (the WebSocket server bridges "
                "subscriptions to a SnapshotHub)"
            )
        loop = asyncio.get_running_loop()
        request = _Request(spec, loop.create_future())
        self._submitted += 1
        self._open_requests.add(request.future)
        request.future.add_done_callback(self._open_requests.discard)
        await self._queue.put(request)
        self._max_queue_depth = max(self._max_queue_depth, self._queue.qsize())
        return await request.future

    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._prefetch_batch(batch)
                for request in batch:
                    task = asyncio.get_running_loop().create_task(
                        self._serve_one(request)
                    )
                    self._serve_tasks.add(task)
                    task.add_done_callback(self._serve_tasks.discard)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # The dispatcher must outlive any batch: fail the batch's
                # requests and keep serving (a dead dispatcher would strand
                # every later submitter on a never-resolved future).
                for request in batch:
                    if not request.future.done():
                        self._failed += 1
                        request.future.set_exception(exc)

    async def _prefetch_batch(self, batch: list[_Request]) -> None:
        """One batched store read covering every queued request's windows."""
        provider = self._client.provider
        if not self._prefetch_enabled or provider is None:
            return
        if type(provider).prefetch is SketchProvider.prefetch:
            # The backend kept the no-op default (memory, mmap): skip the
            # window planning and executor round-trip entirely — this runs
            # on every dispatch round of the service hot path.
            return
        union: set[int] = set()
        for request in batch:
            if request.spec.engine != "exact":
                continue  # approx matrices never touch the record store
            for window in request.spec.windows:
                try:
                    key = self._client.matrix_key(request.spec, window)
                    if key in self._inflight:
                        continue  # already being computed; cache is warm
                    if self._result_capacity and key in self._results:
                        continue  # finished result replayed; no reads at all
                    selection = self._client.selection_for(window)
                except TsubasaError:
                    continue  # invalid window; _serve_one reports it
                union.update(int(i) for i in selection.full_windows)
        if not union:
            return
        loop = asyncio.get_running_loop()
        try:
            fetched = await loop.run_in_executor(
                self._executor, self._client.prefetch, sorted(union)
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            return  # prefetch is best-effort; queries surface real errors
        self._prefetched += int(fetched)

    def _matrix_task(self, spec: QuerySpec, window) -> tuple[object, bool]:
        """The (possibly shared) awaitable computing one window's matrix."""
        key = self._client.matrix_key(spec, window)
        if self._result_capacity:
            cached = self._results.get(key)
            if cached is not None:
                # Replay a finished matrix: no computation, no provider
                # reads. The execution is re-stamped so the result's
                # provenance carries cache=True and no stale timings or
                # provider-cache deltas.
                self._results.move_to_end(key)
                self._result_hits += 1
                future = asyncio.get_running_loop().create_future()
                future.set_result(
                    replace(
                        cached,
                        from_cache=True,
                        seconds=0.0,
                        cache_hits=0,
                        cache_misses=0,
                    )
                )
                return future, False
            self._result_misses += 1
        task = self._inflight.get(key)
        if task is not None and not task.done():
            return task, True
        task = asyncio.get_running_loop().create_task(
            self._compute_matrix(spec, window, key)
        )
        self._inflight[key] = task
        task.add_done_callback(
            lambda t, key=key: (
                self._inflight.pop(key, None)
                if self._inflight.get(key) is t
                else None
            )
        )
        return task, False

    async def _compute_matrix(
        self, spec: QuerySpec, window, key: tuple
    ) -> MatrixExecution:
        loop = asyncio.get_running_loop()
        execution = await loop.run_in_executor(
            self._executor, self._client.compute_matrix, spec, window
        )
        self._matrices += 1
        bucket = self._latency.setdefault(execution.backend, [0, 0.0])
        bucket[0] += 1
        bucket[1] += execution.seconds
        if self._result_capacity:
            self._results[key] = execution
            self._results.move_to_end(key)
            while len(self._results) > self._result_capacity:
                self._results.popitem(last=False)
        return execution

    async def _serve_one(self, request: _Request) -> None:
        spec = request.spec
        try:
            matrix_start = time.perf_counter()
            if request.deadline is not None and matrix_start >= request.deadline:
                # The queue wait consumed the whole budget: shed before
                # doing any work — the caller is no longer listening.
                self._deadline_shed += 1
                raise DeadlineExceeded(
                    f"deadline of {spec.deadline_ms} ms expired after "
                    f"{(matrix_start - request.submitted_at) * 1000:.0f} ms "
                    "in queue"
                )
            coalesced = False
            executions: list[MatrixExecution] = []
            # Resolve both windows' tasks *before* awaiting either, so a
            # diff-network's windows coalesce with everything in the batch.
            tasks = []
            for window in spec.windows:
                task, shared = self._matrix_task(spec, window)
                if shared:
                    coalesced = True
                    self._coalesced += 1
                tasks.append(task)
            for task in tasks:
                if request.deadline is None:
                    executions.append(await task)
                    continue
                remaining = request.deadline - time.perf_counter()
                try:
                    # Shield: the computation may be coalesced with (or
                    # cached for) requests that still have time left.
                    executions.append(
                        await asyncio.wait_for(
                            asyncio.shield(task), timeout=max(remaining, 0.0)
                        )
                    )
                except asyncio.TimeoutError:
                    self._deadline_shed += 1
                    raise DeadlineExceeded(
                        f"deadline of {spec.deadline_ms} ms expired while "
                        "computing the correlation matrix"
                    ) from None
            matrix_seconds = time.perf_counter() - matrix_start
            result = self._client.build_result(
                spec,
                executions,
                coalesced=coalesced,
                started_at=request.submitted_at,
                matrix_seconds=matrix_seconds,
            )
        except BaseException as exc:  # noqa: B036 - forwarded, not swallowed
            self._failed += 1
            if not request.future.done():
                request.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            return
        self._completed += 1
        if not request.future.done():
            request.future.set_result(result)

    # -- observability -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters."""
        return ServiceStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            coalesced=self._coalesced,
            matrices_computed=self._matrices,
            prefetched_windows=self._prefetched,
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
            max_queue_depth=self._max_queue_depth,
            in_flight=len(self._inflight),
            result_cache_hits=self._result_hits,
            result_cache_misses=self._result_misses,
            deadline_shed=self._deadline_shed,
            backend_latency={
                backend: BackendLatency(count=bucket[0], total_seconds=bucket[1])
                for backend, bucket in self._latency.items()
            },
        )


def run_specs(
    client: TsubasaClient,
    specs: list[QuerySpec],
    max_workers: int = 1,
    concurrency: int | None = None,
    result_cache: int = 0,
) -> tuple[list[QueryResult], ServiceStats]:
    """Synchronous convenience: serve ``specs`` through a temporary service.

    Spins up an event loop, submits every spec concurrently (optionally
    bounded by ``concurrency``), and returns results in spec order plus the
    final service stats. Used by the CLI and benchmarks; library callers in
    an async context should drive :class:`TsubasaService` directly.
    """

    async def _run() -> tuple[list[QueryResult], ServiceStats]:
        async with TsubasaService(
            client, max_workers=max_workers, result_cache=result_cache
        ) as service:
            if concurrency is None:
                results = await asyncio.gather(
                    *(service.submit(spec) for spec in specs)
                )
            else:
                semaphore = asyncio.Semaphore(concurrency)

                async def bounded(spec: QuerySpec) -> QueryResult:
                    async with semaphore:
                        return await service.submit(spec)

                results = await asyncio.gather(*(bounded(s) for s in specs))
            return list(results), service.stats()

    return asyncio.run(_run())
