"""Asynchronous TSUBASA query service: many specs, one shared backend.

:class:`TsubasaService` is the long-lived form of
:class:`~repro.api.client.TsubasaClient`: an :mod:`asyncio` component that
multiplexes many concurrent :class:`~repro.api.spec.QuerySpec` requests over
one shared sketch provider. Three things make it more than a thread wrapper:

* **In-flight coalescing** — requests whose specs need the same correlation
  matrix (same resolved window, engine, and method) share one computation;
  the duplicates just await the leader's task. Dashboards issuing
  ``network`` + ``top_k`` + ``degree`` over the same window pay for one
  Lemma 1 pass.
* **Result caching** — with ``result_cache > 0``, *finished* matrices stay
  in a bounded LRU keyed by the same identity coalescing uses
  (:meth:`~repro.api.client.TsubasaClient.matrix_key`), so repeat dashboards
  arriving after the original computation completed are served without
  recomputation (flagged ``cache=True`` in their provenance). Providers are
  immutable snapshots, so cached matrices never go stale within a service's
  lifetime.
* **Observability** — :meth:`TsubasaService.stats` reports in-flight count,
  coalesce rate, result-cache hit rate, deadline sheds, and per-backend
  latency, the numbers a deployment watches.

There is no queue: :meth:`TsubasaService.submit` resolves its matrices
inline — a result-cache hit, a join of an in-flight computation, or a new
one — and awaits them in the caller's task. Shared computations are awaited
through :func:`asyncio.shield`, so a cancelled caller never cancels the work
its coalesced peers are waiting on.

Where a matrix is computed depends on its path
(:meth:`~repro.api.client.TsubasaClient.takes_prefix_path`). A window the
provider's prefix tables cover is answered inline on the event loop: that
answer is ``O(n^2)`` whatever the window's length, and cheaper than a hop to
another thread. Direct Lemma 1 reductions and ``engine="approx"`` matrices,
whose cost grows with the number of selected windows, run on a dedicated
thread pool so the event loop stays responsive. Every provider is read-only
after construction, so any ``max_workers`` shares one backend safely.

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
from repro.exceptions import DataError, DeadlineExceeded, ServiceError

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
        failed: Specs that raised, including callers cancelled while
            awaiting their matrix (the computation itself keeps running
            for any coalesced peers).
        coalesced: Requests that shared an in-flight matrix computation.
        matrices_computed: Matrix computations actually executed.
        in_flight: Matrix computations currently running or awaited.
        result_cache_hits: Matrix demands served from the finished-result
            LRU (0 when the cache is disabled).
        result_cache_misses: Matrix demands that missed the result LRU
            (coalesced and computed demands both count; 0 when disabled).
        deadline_shed: Requests failed with
            :class:`~repro.exceptions.DeadlineExceeded` because their
            ``deadline_ms`` budget ran out before their matrices were ready
            (counted in ``failed`` too).
        backend_latency: Per-backend latency aggregates, keyed by backend
            name.
    """

    submitted: int
    completed: int
    failed: int
    coalesced: int
    matrices_computed: int
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


class TsubasaService:
    """Long-lived asyncio query service over one shared client/backend.

    Args:
        client: The planner/facade executing matrix computations and
            post-processing. Its provider is shared across every request.
        max_workers: Executor threads running direct-path and approx
            matrix computations. Prefix-path matrices run inline on the
            event loop and never wait for this pool.
        result_cache: Finished matrices kept in a bounded LRU keyed by
            :meth:`~repro.api.client.TsubasaClient.matrix_key` and replayed
            to later identical demands. ``0`` (the default) disables the
            cache. Memory cost is ``O(result_cache * n_series^2)`` floats.
    """

    def __init__(
        self,
        client: TsubasaClient,
        max_workers: int = 1,
        result_cache: int = 0,
    ) -> None:
        if not isinstance(client, TsubasaClient):
            raise DataError(f"expected a TsubasaClient, got {type(client)!r}")
        if max_workers <= 0:
            raise DataError("max_workers must be positive")
        if result_cache < 0:
            raise DataError("result_cache must be >= 0")
        self._client = client
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: dict[tuple, asyncio.Task] = {}
        # One future per accepted submit, resolved when that submit returns
        # or raises — the drain set aclose() waits on.
        self._open_requests: set[asyncio.Future] = set()
        self._closed = False
        # Counters (event-loop confined; mutated only from loop callbacks).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._coalesced = 0
        self._matrices = 0
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
        """Start the executor; idempotent until :meth:`aclose`."""
        if self._closed:
            raise ServiceError("service is closed")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="tsubasa-service",
            )
        return self

    async def aclose(self) -> None:
        """Wait for every accepted submit to return, then stop the executor."""
        if self._closed:
            return
        self._closed = True
        while self._open_requests:
            await asyncio.wait(set(self._open_requests))
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
        if self._executor is None:
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
        submitted_at = time.perf_counter()
        # deadline_ms is a *relative* budget; anchor it to this process's
        # monotonic clock the moment the request is accepted, so clock skew
        # never counts against it.
        deadline = (
            submitted_at + spec.deadline_ms / 1000.0
            if spec.deadline_ms is not None
            else None
        )
        self._submitted += 1
        done = asyncio.get_running_loop().create_future()
        self._open_requests.add(done)
        try:
            coalesced = False
            # Resolve every window's task *before* awaiting any, so a
            # diff-network's windows coalesce with concurrent requests.
            tasks = []
            for window in spec.windows:
                task, shared = self._matrix_task(spec, window)
                if shared:
                    coalesced = True
                    self._coalesced += 1
                tasks.append(task)
            executions = [
                await self._await_matrix(task, spec, deadline) for task in tasks
            ]
            result = self._client.build_result(
                spec,
                executions,
                coalesced=coalesced,
                started_at=submitted_at,
                matrix_seconds=time.perf_counter() - submitted_at,
            )
        except BaseException:  # noqa: B036 - counted, then re-raised
            self._failed += 1
            raise
        finally:
            self._open_requests.discard(done)
            done.set_result(None)
        self._completed += 1
        return result

    async def _await_matrix(
        self, task: asyncio.Future, spec: QuerySpec, deadline: float | None
    ) -> MatrixExecution:
        """Await one (possibly shared) matrix task within the deadline.

        Shielded either way: the task may be coalesced with (or cached for)
        requests that are still waiting, so cancelling this caller — a
        server drain, a client hang-up — or running out its budget must not
        cancel the computation.
        """
        if deadline is None:
            return await asyncio.shield(task)
        remaining = deadline - time.perf_counter()
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), timeout=max(remaining, 0.0)
            )
        except asyncio.TimeoutError:
            self._deadline_shed += 1
            raise DeadlineExceeded(
                f"deadline of {spec.deadline_ms} ms expired while "
                "computing the correlation matrix"
            ) from None

    def _matrix_task(self, spec: QuerySpec, window) -> tuple[object, bool]:
        """The (possibly shared) awaitable computing one window's matrix."""
        key = self._client.matrix_key(spec, window)
        if self._result_capacity:
            cached = self._results.get(key)
            if cached is not None:
                # Replay a finished matrix: no computation, no provider
                # reads. The execution is re-stamped so the result's
                # provenance carries cache=True and no stale timings.
                self._results.move_to_end(key)
                self._result_hits += 1
                future = asyncio.get_running_loop().create_future()
                future.set_result(replace(cached, from_cache=True, seconds=0.0))
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
        if self._client.takes_prefix_path(spec, window):
            # O(n^2) whatever the window's length: cheaper than a thread hop.
            execution = self._client.compute_matrix(spec, window)
        else:
            execution = await asyncio.get_running_loop().run_in_executor(
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

    # -- observability -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters."""
        return ServiceStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            coalesced=self._coalesced,
            matrices_computed=self._matrices,
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
