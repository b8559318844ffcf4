"""SO_REUSEPORT multi-process acceptors: N event loops on one port.

A single asyncio process tops out at one core's worth of JSON/socket work.
:class:`AcceptorSupervisor` runs ``tsubasa serve --http --workers N`` as N
independent acceptor *processes* that each bind the same ``host:port`` with
``SO_REUSEPORT`` — the kernel load-balances incoming connections across the
listening sockets by 4-tuple hash, so no userspace proxy or fd-passing is
needed. Each worker owns a full stack: its own event loop,
:class:`~repro.api.service.TsubasaService`, and
:class:`~repro.api.server.TsubasaServer` over a *read-only shared* sketch
store (the mmap backend maps the same files in every process; its
generation counter already makes concurrent readers safe).

The parent process never serves traffic. It:

* resolves the port up front (binding a placeholder ``SO_REUSEPORT`` socket,
  so ``--http host:0`` works and the port stays reserved between restarts),
* spawns workers with the ``spawn`` start method (an asyncio parent must
  never ``fork``),
* restarts workers that die unexpectedly, and
* propagates SIGTERM: every worker drains in-flight requests
  (:meth:`TsubasaServer.aclose`) before the supervisor returns.

Because workers are separate processes, per-worker state — the service's
result cache, the server's in-flight budget (``max_inflight_total``), and
``/v1/stats`` counters — is per worker. ``/v1/stats`` and ``/healthz``
report the serving worker's ``pid``, which is how tests (and operators)
observe the spread.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import DataError, ServiceError

__all__ = ["WorkerConfig", "AcceptorSupervisor"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild the serving stack.

    The config crosses a process boundary via pickling (``spawn`` start
    method), so it carries paths and plain values, never live objects.

    Attributes:
        store: Path to the sketch store (mmap directory or SQLite file).
        backend: Provider backend — ``"mmap"`` or ``"memory"``.
        data: Optional raw dataset (``.npz``) for data-plane ops.
        prefix: Wrap the provider in prefix-aggregate tables.
        host: Bind host.
        service_kwargs: Extra :class:`~repro.api.service.TsubasaService`
            arguments (``result_cache``, ...).
        server_kwargs: Extra :class:`~repro.api.server.TsubasaServer`
            arguments (``max_inflight``, ``auth_token``, ...). Callables
            (e.g. an auth hook) must be picklable.
    """

    store: str
    backend: str = "mmap"
    data: str | None = None
    prefix: bool = False
    host: str = "127.0.0.1"
    service_kwargs: dict[str, Any] = field(default_factory=dict)
    server_kwargs: dict[str, Any] = field(default_factory=dict)


def _worker_main(config: WorkerConfig, port: int, ready) -> None:
    """One acceptor process: build the stack, serve until SIGTERM."""
    import asyncio
    import sys
    from types import SimpleNamespace

    from repro import cli
    from repro.api.server import TsubasaServer
    from repro.api.service import TsubasaService

    ns = SimpleNamespace(
        command="serve",
        store=config.store,
        backend=config.backend,
        data=config.data,
        prefix=config.prefix,
    )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        with cli._open_store(config.store) as store:
            client = cli._open_client(store, ns)
            service = TsubasaService(client, **config.service_kwargs)
            server = TsubasaServer(service, **config.server_kwargs)
            await server.start(host=config.host, port=port, reuse_port=True)
            ready.set()
            await stop.wait()
            await server.aclose()
            served = (
                server.stats["http_requests"] + server.stats["ws_requests"]
            )
            # One write per report: print() sends the text and its newline
            # separately, so concurrent workers' reports interleave mid-line.
            sys.stderr.write(
                f"worker {os.getpid()}: drained after {served} requests\n"
            )
            sys.stderr.flush()

    asyncio.run(run())


class AcceptorSupervisor:
    """Spawn, monitor, restart, and drain ``SO_REUSEPORT`` acceptors.

    Usage (programmatic; the CLI wraps this for ``serve --http --workers``)::

        supervisor = AcceptorSupervisor(config, workers=4, port=8787)
        supervisor.start()           # blocks until every worker accepts
        ...                          # serve traffic
        supervisor.stop()            # SIGTERM + drain every worker

    Args:
        config: The per-worker serving stack description.
        workers: Number of acceptor processes (>= 1).
        port: Listening port; 0 picks an ephemeral port, resolved before
            the first worker starts (read it from :attr:`port`).
        restart_backoff: Seconds to wait before replacing a dead worker.
            Doubles per rapid successive death (see ``crash_loop_window``)
            up to ``max_restart_backoff``; a lone crash waits exactly this
            long.
        start_timeout: Seconds to wait for every worker to start accepting.
        max_restart_backoff: Upper bound on the per-death restart delay.
        crash_loop_limit: Give up after this many worker deaths within
            ``crash_loop_window`` seconds: :attr:`failed` is set,
            :attr:`failure_reason` explains, and no further replacements
            are spawned — a worker that dies instantly on every start
            (corrupt store, bad config) must surface as a supervisor
            failure, not an infinite respawn loop. ``0`` disables the
            guard.
        crash_loop_window: Sliding window (seconds) for the crash-loop
            death count.
    """

    _MONITOR_INTERVAL = 0.2

    def __init__(
        self,
        config: WorkerConfig,
        workers: int = 2,
        port: int = 0,
        restart_backoff: float = 0.5,
        start_timeout: float = 60.0,
        max_restart_backoff: float = 30.0,
        crash_loop_limit: int = 5,
        crash_loop_window: float = 30.0,
    ) -> None:
        if not isinstance(config, WorkerConfig):
            raise DataError(f"expected a WorkerConfig, got {type(config)!r}")
        if workers < 1:
            raise DataError("workers must be >= 1")
        if max_restart_backoff < restart_backoff:
            raise DataError(
                "max_restart_backoff must be >= restart_backoff"
            )
        if crash_loop_limit < 0 or crash_loop_window <= 0:
            raise DataError(
                "crash_loop_limit must be >= 0 and crash_loop_window > 0"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ServiceError(
                "SO_REUSEPORT is not available on this platform; run a "
                "single-process server instead"
            )
        self.config = config
        self.workers = workers
        self.restart_backoff = restart_backoff
        self.start_timeout = start_timeout
        self.max_restart_backoff = max_restart_backoff
        self.crash_loop_limit = crash_loop_limit
        self.crash_loop_window = crash_loop_window
        self.restarts = 0
        #: Set when the crash-loop guard trips; the supervisor stops
        #: replacing workers and the caller should stop() and exit nonzero.
        self.failed = threading.Event()
        self.failure_reason: str | None = None
        self._deaths: deque[float] = deque()
        self._requested_port = port
        self._port: int | None = None
        self._placeholder: socket.socket | None = None
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[multiprocessing.process.BaseProcess] = []
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The resolved listening port (after :meth:`start`)."""
        if self._port is None:
            raise ServiceError("supervisor is not started")
        return self._port

    @property
    def host(self) -> str:
        """The bind host."""
        return self.config.host

    @property
    def address(self) -> str:
        """``host:port`` of the shared listening address."""
        return f"{self.host}:{self.port}"

    def pids(self) -> list[int]:
        """PIDs of the currently-running workers."""
        with self._lock:
            return [p.pid for p in self._procs if p.pid and p.is_alive()]

    def n_alive(self) -> int:
        """How many workers are currently running."""
        return len(self.pids())

    def _resolve_port(self) -> None:
        """Reserve the port with a placeholder ``SO_REUSEPORT`` socket.

        The placeholder never listens, so it receives no connections; it
        pins the port so ``port=0`` resolves once and worker restarts can
        always rebind it.
        """
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            placeholder.bind((self.config.host, self._requested_port))
        except OSError:
            placeholder.close()
            raise
        self._placeholder = placeholder
        self._port = int(placeholder.getsockname()[1])

    def _spawn_worker(self) -> tuple[Any, Any]:
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.config, self._port, ready),
            daemon=True,
        )
        proc.start()
        return proc, ready

    def start(self) -> "AcceptorSupervisor":
        """Spawn every worker and wait until all are accepting."""
        if self._port is not None:
            return self
        self._resolve_port()
        pending: list[tuple[Any, Any]] = []
        for _ in range(self.workers):
            pending.append(self._spawn_worker())
        with self._lock:
            self._procs = [proc for proc, _ready in pending]
        deadline = time.monotonic() + self.start_timeout
        for proc, ready in pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not ready.wait(timeout=remaining):
                self.stop(timeout=5.0)
                raise ServiceError(
                    f"worker {proc.pid} did not start accepting within "
                    f"{self.start_timeout:.0f}s"
                )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="tsubasa-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def _record_death(self) -> float | None:
        """Count one worker death; the backoff before its replacement.

        ``None`` means the crash-loop guard tripped: ``crash_loop_limit``
        deaths landed within ``crash_loop_window`` seconds, so replacing
        the worker would almost certainly just burn another spawn.
        """
        now = time.monotonic()
        self._deaths.append(now)
        while self._deaths and now - self._deaths[0] > self.crash_loop_window:
            self._deaths.popleft()
        if self.crash_loop_limit and len(self._deaths) >= self.crash_loop_limit:
            self.failure_reason = (
                f"crash loop: {len(self._deaths)} worker deaths within "
                f"{self.crash_loop_window:.0f}s "
                f"(limit {self.crash_loop_limit}); gave up restarting — "
                "check worker stderr for the underlying startup failure"
            )
            self.failed.set()
            return None
        # A lone crash waits restart_backoff; rapid successive deaths
        # back off exponentially so a flapping worker can't spin the CPU.
        return min(
            self.restart_backoff * 2.0 ** (len(self._deaths) - 1),
            self.max_restart_backoff,
        )

    def _monitor_loop(self) -> None:
        """Replace workers that die unexpectedly (crash, OOM kill, ...)."""
        while not self._stopping.wait(self._MONITOR_INTERVAL):
            with self._lock:
                procs = list(self._procs)
            for index, proc in enumerate(procs):
                if proc.is_alive() or self._stopping.is_set():
                    continue
                proc.join(timeout=0)
                backoff = self._record_death()
                if backoff is None:
                    return  # crash loop: stop replacing workers
                time.sleep(backoff)
                if self._stopping.is_set():
                    return
                replacement, ready = self._spawn_worker()
                with self._lock:
                    # The slot may have been mutated by stop(); guard.
                    if index < len(self._procs) and self._procs[index] is proc:
                        self._procs[index] = replacement
                        self.restarts += 1
                    else:
                        replacement.terminate()
                # Wait for the replacement to come up, but bail early if
                # it dies before signalling ready (a stillborn worker —
                # e.g. its store vanished): the next monitor pass counts
                # that death instead of blocking a full start_timeout.
                deadline = time.monotonic() + self.start_timeout
                while time.monotonic() < deadline:
                    if ready.wait(timeout=self._MONITOR_INTERVAL):
                        break
                    if not replacement.is_alive():
                        break

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker, wait for drains, reap stragglers."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            procs = list(self._procs)
            self._procs = []
        for proc in procs:
            if proc.is_alive() and proc.pid:
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def __enter__(self) -> "AcceptorSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
