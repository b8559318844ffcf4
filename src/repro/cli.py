"""Command-line interface for the TSUBASA reproduction.

Subcommands mirror the system's life cycle::

    tsubasa generate --stations 157 --points 8760 --out data.npz
    tsubasa sketch   --data data.npz --window-size 200 --store sketch.db
    tsubasa sketch   --data data.npz --window-size 200 --store sketch.mm \
                     --store-backend mmap        # zero-copy array layout
    tsubasa sketch   --data data.npz --window-size 200 --store sketch.mm \
                     --store-backend mmap --prefix  # + O(n^2)-query tables
    tsubasa sketch   --data data.npz --window-size 200 --store sketch.db \
                     --chunk-rows 512            # memory-bounded build
    tsubasa query    --store sketch.db --end 8759 --length 3000 --theta 0.75
    tsubasa query    --store sketch.db --backend store --data data.npz \
                     --end 8759 --length 2971    # lazy reads, arbitrary window
    tsubasa query    --store sketch.mm --backend mmap --end 8759 --length 3000
    tsubasa convert  --src sketch.db --dst sketch.mm --dst-backend mmap
    tsubasa stream   --data data.npz --window-size 200 --initial 3000 \
                     --theta 0.75 --updates 10
    tsubasa topk     --store sketch.db --end 8759 --length 3000 --k 10
    tsubasa sweep    --store sketch.db --windows 15 --stride 5 --theta 0.75
    tsubasa info     --store sketch.db
    tsubasa trim     --store sketch.mm           # drop trailing capacity
    tsubasa serve    --store sketch.mm --backend mmap --workers 4
    tsubasa serve    --store sketch.mm --backend mmap --http 0.0.0.0:8787 \
                     --stream-data data.npz      # HTTP + WS, live stream

Datasets travel as ``.npz`` archives with ``values``/``names``/``lats``/
``lons`` arrays (see ``tsubasa generate``). Sketches live either in SQLite
database files or in memory-mapped array directories (:mod:`repro.storage`);
store-reading commands detect the layout from the path, and ``tsubasa
convert`` migrates a sketch between the two.

Query commands choose a sketch backend with ``--backend``: ``memory`` loads
the whole sketch up front (the paper's in-memory configuration), ``store``
reads window records lazily through an LRU-cached
:class:`~repro.engine.providers.StoreProvider` (the disk-based
configuration), and ``mmap`` serves queries zero-copy from a memory-mapped
store's arrays (:class:`~repro.engine.providers.MmapProvider`) — the answers
are identical. Passing ``--data`` enables arbitrary (non-aligned) query
windows by sketching the partial head/tail fragments from raw data at query
time. ``--prefix`` wraps any backend in prefix-aggregate tables
(:mod:`repro.core.prefix`) so contiguous window ranges cost ``O(n^2)``
regardless of their length; the mmap backend picks up tables persisted with
``tsubasa sketch --prefix`` automatically.

Query commands are thin shells over the declarative query API
(:mod:`repro.api`): they build a :class:`~repro.api.spec.QuerySpec` and hand
it to a :class:`~repro.api.client.TsubasaClient`. ``tsubasa serve`` exposes
that surface directly as a long-lived service speaking the versioned wire
protocol (:mod:`repro.api.protocol`): by default as JSON-lines on
stdin/stdout (each input line a request frame, each output line a
completion envelope), or — with ``--http HOST:PORT`` — as a socket server
speaking HTTP/1.1 and WebSockets (:mod:`repro.api.server`), including
streaming ``subscribe`` ops when ``--stream-data`` attaches a live replay.
Concurrent requests over the same window share one matrix computation
(:class:`~repro.api.service.TsubasaService`).

Failures map :class:`~repro.exceptions.TsubasaError` subclasses to distinct
exit codes with a one-line message (no tracebacks): sketch/query errors → 2,
malformed data → 3, bad windows → 4, storage failures → 5, stream errors →
6, service misuse → 7, any other library error → 1.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.analysis.topology import summarize_topology
from repro.api.client import ParallelPolicy, TsubasaClient
from repro.api.service import TsubasaService
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.exact import TsubasaHistorical
from repro.core.network import ClimateNetwork
from repro.core.realtime import TsubasaRealtime
from repro.core.sketch import build_sketch
from repro.data.synthetic import StationDataset, generate_station_dataset
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
    PrefixProvider,
    SketchProvider,
    StoreProvider,
)
from repro.exceptions import (
    DataError,
    ServiceError,
    SketchError,
    StorageError,
    StreamError,
    TsubasaError,
    error_code_for,
)
from repro.storage.base import SketchStore
from repro.storage.mmap_store import MmapStore, is_mmap_store
from repro.storage.serialize import convert_store, load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore
from repro.streams.ingestion import StreamIngestor
from repro.streams.sources import ReplaySource

__all__ = ["main", "build_parser", "exit_code_for"]

def exit_code_for(exc: TsubasaError) -> int:
    """The process exit code for a library error (distinct per subclass).

    The codes are the library-wide failure taxonomy
    (:func:`repro.exceptions.error_code_for`), shared with the wire
    protocol's error envelopes.
    """
    return error_code_for(exc)


def _open_store(path: str, backend: str = "auto") -> SketchStore:
    """Open a sketch store, detecting the on-disk layout by default.

    ``backend`` is ``"sqlite"``, ``"mmap"``, or ``"auto"`` (an mmap store is
    a directory with a ``meta.json`` sidecar; everything else is SQLite).
    """
    if backend == "auto":
        backend = "mmap" if is_mmap_store(path) else "sqlite"
    if backend == "mmap":
        return MmapStore(path)
    return SqliteSketchStore(path)


def _save_dataset(path: str, dataset: StationDataset) -> None:
    np.savez_compressed(
        path,
        values=dataset.values,
        names=np.array(dataset.names),
        lats=dataset.lats,
        lons=dataset.lons,
        resolution_hours=np.float64(dataset.resolution_hours),
    )


def _load_dataset(path: str) -> StationDataset:
    with np.load(path) as archive:
        return StationDataset(
            names=[str(n) for n in archive["names"]],
            values=archive["values"],
            lats=archive["lats"],
            lons=archive["lons"],
            resolution_hours=float(archive["resolution_hours"]),
        )


def _print_network(network: ClimateNetwork, max_edges: int) -> None:
    summary = summarize_topology(network)
    print(f"nodes={summary.n_nodes} edges={summary.n_edges} "
          f"density={summary.density:.4f} components={summary.n_components} "
          f"clustering={summary.average_clustering:.3f}")
    edges = sorted(
        network.edge_set(),
        key=lambda e: -network.edge_weight(*e),
    )[:max_edges]
    for a, b in edges:
        print(f"  {a} -- {b}  corr={network.edge_weight(a, b):+.4f}")


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_station_dataset(
        n_stations=args.stations, n_points=args.points, seed=args.seed
    )
    _save_dataset(args.out, dataset)
    print(f"wrote {dataset.n_series} series x {dataset.n_points} points "
          f"to {args.out}")
    return 0


def _cmd_sketch(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    if args.prefix and args.store_backend != "mmap":
        raise StorageError(
            "--prefix requires --store-backend mmap (prefix-aggregate "
            "tables are persisted as memory-mapped arrays)"
        )
    start = time.perf_counter()
    with _open_store(args.store, args.store_backend) as store:
        if args.chunk_rows:
            provider = ChunkedBuildProvider(
                dataset.values, args.window_size, names=dataset.names,
                chunk_rows=args.chunk_rows,
            )
            provider.save_to(store)
            n_series, n_windows = provider.n_series, provider.n_windows
        else:
            sketch = build_sketch(
                dataset.values, args.window_size, names=dataset.names
            )
            save_sketch(store, sketch)
            n_series, n_windows = sketch.n_series, sketch.n_windows
        prefix_note = ""
        if args.prefix:
            covered = store.build_prefix()
            prefix_note = f", prefix over {covered} windows"
        elapsed = time.perf_counter() - start
        size = store.size_bytes()
    mode = f"chunked (rows<={args.chunk_rows})" if args.chunk_rows else "in-memory"
    print(f"sketched {n_series} series into {n_windows} "
          f"windows (B={args.window_size}, {mode} build, "
          f"{args.store_backend} store{prefix_note}) in {elapsed:.2f}s; "
          f"store={size / 1e6:.2f} MB")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.prefix and args.dst_backend != "mmap":
        raise StorageError(
            "--prefix requires --dst-backend mmap (prefix-aggregate tables "
            "are persisted as memory-mapped arrays)"
        )
    with _open_store(args.src) as src, \
            _open_store(args.dst, args.dst_backend) as dst:
        start = time.perf_counter()
        count = convert_store(src, dst, batch_size=args.batch_size)
        # Prefix tables migrate by rebuilding on the destination: cumulative
        # sums are layout-specific state, not window records. Asked-for
        # explicitly, or carried over automatically when the source had them.
        src_prefixed = isinstance(src, MmapStore) and src.prefix_rows >= 2
        prefix_note = ""
        if isinstance(dst, MmapStore) and (args.prefix or src_prefixed):
            covered = dst.build_prefix()
            prefix_note = f" (+ prefix over {covered} windows)"
        elapsed = time.perf_counter() - start
        size = dst.size_bytes()
    print(f"migrated {count} window records to {args.dst} "
          f"({args.dst_backend}){prefix_note} in {elapsed:.2f}s; "
          f"store={size / 1e6:.2f} MB")
    return 0


def _open_provider(
    store: SketchStore, args: argparse.Namespace
) -> SketchProvider:
    """Build the sketch backend selected by ``--backend``."""
    data = None
    if getattr(args, "data", None):
        data = _load_dataset(args.data).values
    if args.backend == "mmap":
        if not isinstance(store, MmapStore):
            raise SketchError(
                f"--backend mmap needs a memory-mapped store directory; "
                f"{args.store} is a SQLite database (run 'tsubasa convert' "
                "first, or use --backend store)"
            )
        # The mmap backend serves persisted prefix tables on its own;
        # --prefix additionally covers stores without them (in-memory build).
        provider: SketchProvider = MmapProvider(store, data=data)
    elif args.backend == "store":
        provider = StoreProvider(
            store, cache_windows=args.cache_windows, data=data
        )
    else:
        provider = InMemoryProvider(load_sketch(store), data=data)
    if getattr(args, "prefix", False):
        # The long-lived service may share the provider across executor
        # threads; an eager build keeps the tables immutable on the query
        # path. One-shot queries build lazily, only up to the windows asked.
        provider = PrefixProvider(provider, eager=args.command == "serve")
    return provider


def _open_client(store: SketchStore, args: argparse.Namespace) -> TsubasaClient:
    """Build the declarative query client over the selected backend."""
    policy = None
    if getattr(args, "parallel", 0):
        policy = ParallelPolicy(args.parallel)
    return TsubasaClient(provider=_open_provider(store, args), policy=policy)


def _cmd_query(args: argparse.Namespace) -> int:
    with _open_store(args.store) as store:
        client = _open_client(store, args)
        theta = args.theta
        if args.alpha is not None:
            from repro.core.significance import critical_correlation

            n = client.n_series
            theta = critical_correlation(
                args.length, args.alpha, n_comparisons=n * (n - 1) // 2
            )
            print(f"significance level {args.alpha} -> theta={theta:.4f} "
                  f"(Bonferroni over {n * (n - 1) // 2} pairs)")
        spec = QuerySpec(
            op="network",
            window=WindowSpec(end=args.end, length=args.length),
            theta=float(theta),
        )
        try:
            result = client.execute(spec)
        except SketchError as exc:
            # Same code the global handler would assign, plus the concrete
            # CLI fix the library message cannot know about.
            print(f"error: {exc}; pass --data or adjust --end/--length",
                  file=sys.stderr)
            return exit_code_for(exc)
    provenance = result.provenance
    mode = "" if provenance.execution == "serial" else (
        f", {provenance.execution} x{provenance.n_workers}"
    )
    if provenance.path != "direct":
        mode += f", {provenance.path} path"
    print(f"query answered from sketches in "
          f"{result.timings['total'] * 1e3:.1f} ms "
          f"({provenance.backend} backend{mode})")
    _print_network(result.value, args.max_edges)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import ascii_degree_map, topology_report

    dataset = _load_dataset(args.data)
    engine = TsubasaHistorical(
        dataset.values, args.window_size, names=dataset.names,
        coordinates=dataset.coordinates,
    )
    network = engine.network((args.end, args.length), args.theta)
    print(topology_report(network))
    print()
    print(ascii_degree_map(network, width=args.width, height=args.height))
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    window = WindowSpec(end=args.end, length=args.length)
    specs = [QuerySpec(op="top_k", window=window, k=args.k)]
    if args.anticorrelated:
        specs.append(QuerySpec(op="anticorrelated", window=window, k=args.k))
    with _open_store(args.store) as store:
        client = _open_client(store, args)
        # execute_many shares the one matrix across both specs.
        results = client.execute_many(specs)
    print(f"top {args.k} correlated pairs:")
    for a, b, corr in results[0].value:
        print(f"  {a} -- {b}  corr={corr:+.4f}")
    if args.anticorrelated:
        print(f"top {args.k} anti-correlated pairs:")
        for a, b, corr in results[1].value:
            print(f"  {a} -- {b}  corr={corr:+.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.dynamics import summarize_dynamics
    from repro.core.sweep import sliding_networks

    with _open_store(args.store) as store:
        sketch = load_sketch(store)
    results = sliding_networks(
        sketch, n_windows=args.windows, theta=args.theta,
        stride_windows=args.stride,
    )
    for first, network in results:
        start = first * sketch.window_size
        stop = (first + args.windows) * sketch.window_size
        print(f"[{start:>7}, {stop:>7}): {network.n_edges} edges")
    dynamics = summarize_dynamics([net for _, net in results])
    print(f"mean edges {dynamics.mean_edges:.1f}, "
          f"mean churn {dynamics.mean_churn:.1f}, "
          f"stable {len(dynamics.stable_edges)}, "
          f"blinking {len(dynamics.blinking_edges)}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    if args.initial >= dataset.n_points:
        print("error: --initial must leave data to stream", file=sys.stderr)
        return 2
    engine = TsubasaRealtime(
        dataset.values[:, : args.initial], args.window_size, names=dataset.names
    )
    ingestor = StreamIngestor(engine, theta=args.theta)
    source = ReplaySource(dataset.values, args.window_size, start=args.initial)
    snapshots = ingestor.run(source, max_updates=args.updates)
    for snap in snapshots:
        print(f"t={snap.timestamp}: edges={snap.network.n_edges} "
              f"(+{len(snap.appeared)} / -{len(snap.disappeared)})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with _open_store(args.store) as store:
        layout = "mmap" if isinstance(store, MmapStore) else "sqlite"
        metadata = store.read_metadata()
        count = store.window_count()
        size = store.size_bytes()
        extras = ""
        if isinstance(store, MmapStore):
            extras = f" generation={store.read_generation()}"
            extras += f" prefix={max(store.prefix_rows - 1, 0)}w"
    print(f"kind={metadata.kind} layout={layout} series={len(metadata.names)} "
          f"B={metadata.window_size} windows={count} "
          f"size={size / 1e6:.2f} MB{extras}")
    return 0


async def _serve_jsonl(server, source, args: argparse.Namespace) -> int:
    """The default ``serve`` loop: JSON lines on stdin/stdout.

    :meth:`~repro.api.server.TsubasaServer.serve_json_lines` does the
    serving; this adds the live stream and the closing stderr summary. The
    summary counts what the *consumer observed*: ``ok`` and ``failed`` are
    envelopes actually emitted (``failed`` includes malformed frames,
    broken out as ``malformed``), and responses completed after a consumer
    hangup are reported as ``discarded`` instead of being silently folded
    into the success count.
    """
    async with server.pumping(source, interval=args.stream_interval):
        seen = await server.serve_json_lines(
            sys.stdin, sys.stdout, max_pending=args.max_pending
        )
    await server.aclose()
    stats = server.service.stats()
    hangup_note = (
        f", {seen['discarded']} discarded after hangup"
        if seen["discarded"]
        else ""
    )
    print(
        f"served {seen['ok']} ok / {seen['failed']} "
        f"failed ({seen['malformed']} malformed, {stats.coalesced} coalesced, "
        f"{stats.matrices_computed} matrices computed, "
        f"{stats.result_cache_hits} cache hits, "
        f"{stats.prefetched_windows} windows prefetched"
        f"{hangup_note})",
        file=sys.stderr,
    )
    return 0


def _replay_forever(values, batch_size: int, start: int):
    """An endless simulated live feed: replay the dataset, then loop.

    ``serve --stream-data`` streams the tail beyond the sketched range
    first (genuinely new data), then restarts from the beginning — a
    perpetually updating feed for subscriptions, the way replay demos
    drive the real-time engine, until the server shuts down.
    """
    cursor = start
    while True:
        yield from ReplaySource(values, batch_size, start=cursor)
        cursor = 0


def _parse_listen_address(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) → ``(host, port)``."""
    if value.isdigit():
        return "127.0.0.1", int(value)
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise DataError(
            f"--http expects HOST:PORT (or a bare port), got {value!r}"
        )
    return host or "127.0.0.1", int(port)


def _open_stream(client: TsubasaClient, args: argparse.Namespace):
    """Build the ``--stream-data`` live feed: ``(hub, source)`` or Nones."""
    from repro.streams.hub import SnapshotHub

    if not args.stream_data:
        return None, None
    provider = client.provider
    dataset = _load_dataset(args.stream_data)
    if dataset.n_points < provider.window_size:
        raise StreamError(
            f"--stream-data holds {dataset.n_points} points; at least "
            f"one basic window ({provider.window_size}) is needed to "
            "stream"
        )
    start = provider.length
    if start >= dataset.n_points:
        start = 0
    ingestor = StreamIngestor.from_provider(
        provider,
        query_windows=args.stream_windows or provider.n_windows,
        theta=args.stream_theta,
        keep_history=False,
    )
    source = _replay_forever(dataset.values, provider.window_size, start)
    return SnapshotHub(ingestor, max_pending=args.send_buffer), source


async def _serve(client: TsubasaClient, args: argparse.Namespace) -> int:
    """Single-process ``serve``: one server core behind stdin or a socket."""
    from repro.api.server import TsubasaServer

    service = TsubasaService(
        client,
        max_workers=args.workers,
        max_batch=args.max_batch,
        result_cache=args.result_cache,
    )
    hub, source = _open_stream(client, args)
    if not args.http:
        # The in-flight caps and auth police socket clients; stdin has none.
        server = TsubasaServer(service, hub=hub, send_buffer=args.send_buffer)
        return await _serve_jsonl(server, source, args)
    server = TsubasaServer(
        service,
        hub=hub,
        max_inflight=args.max_inflight,
        send_buffer=args.send_buffer,
        max_inflight_total=args.max_inflight_total or None,
        auth_token=args.auth_token or None,
    )
    return await _serve_http(server, source, args)


async def _serve_http(server, source, args: argparse.Namespace) -> int:
    """The ``serve --http`` loop: the socket adapters until SIGINT/SIGTERM."""
    import signal

    host, port = _parse_listen_address(args.http)
    try:
        await server.start(host=host, port=port)
    except OSError as exc:
        # Bind failures (port in use, privileged port) get the CLI's
        # one-line error contract, not a traceback.
        raise ServiceError(f"cannot listen on {host}:{port}: {exc}") from exc
    endpoints = "POST /v1/query /v1/batch, GET /v1/stats /healthz, WS /v1/ws"
    protocols = "protocols 1, 2" if server.enable_v2 else "protocol 1"
    print(
        f"serving on http://{server.host}:{server.port} "
        f"({protocols}; {endpoints})",
        file=sys.stderr,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without loop signal handlers
    async with server.pumping(source, interval=args.stream_interval):
        try:
            await stop.wait()
        except KeyboardInterrupt:
            pass
    await server.aclose()
    stats = server.service.stats()
    print(
        f"served {stats.completed} ok / {stats.failed} failed "
        f"({stats.coalesced} coalesced, {stats.matrices_computed} matrices "
        f"computed, {stats.result_cache_hits} cache hits, "
        f"{server.stats['subscriptions_opened']} subscriptions, "
        f"{server.stats['slow_consumer_disconnects']} slow-consumer "
        "disconnects)",
        file=sys.stderr,
    )
    return 0


def _serve_supervised(args: argparse.Namespace) -> int:
    """``serve --http --workers N``: N ``SO_REUSEPORT`` acceptor processes.

    The parent validates the store, spawns the supervisor, prints the
    resolved address, and sleeps until SIGTERM/SIGINT — then drains every
    worker before returning.
    """
    import signal
    import threading

    from repro.api.supervisor import AcceptorSupervisor, WorkerConfig

    if args.stream_data:
        raise ServiceError(
            "--stream-data needs a single process (the live stream and its "
            "subscriptions are in-process state); drop --workers"
        )
    host, port = _parse_listen_address(args.http)
    # Fail fast in the parent with the CLI's one-line error contract
    # instead of a 60s worker-startup timeout.
    with _open_store(args.store):
        pass
    config = WorkerConfig(
        store=args.store,
        backend=args.backend,
        cache_windows=args.cache_windows,
        data=args.data,
        prefix=args.prefix,
        host=host,
        service_kwargs={
            "max_workers": 1,
            "max_batch": args.max_batch,
            "result_cache": args.result_cache,
        },
        server_kwargs={
            "max_inflight": args.max_inflight,
            "send_buffer": args.send_buffer,
            "max_inflight_total": args.max_inflight_total or None,
            "auth_token": args.auth_token or None,
        },
    )
    supervisor = AcceptorSupervisor(config, workers=args.workers, port=port)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except (ValueError, OSError):
            pass  # not the main thread, or an unsupported platform
    endpoints = "POST /v1/query /v1/batch, GET /v1/stats /healthz, WS /v1/ws"
    try:
        with supervisor:
            print(
                f"serving on http://{supervisor.address} "
                f"({args.workers} SO_REUSEPORT workers; protocols 1, 2; "
                f"{endpoints})",
                file=sys.stderr,
                flush=True,
            )
            try:
                # Poll so a tripped crash-loop guard ends the process
                # instead of supervising an ever-shrinking worker pool.
                while not stop.wait(0.2):
                    if supervisor.failed.is_set():
                        break
            except KeyboardInterrupt:
                pass
    except OSError as exc:
        raise ServiceError(f"cannot listen on {host}:{port}: {exc}") from exc
    if supervisor.failed.is_set():
        print(
            f"supervisor failed: {supervisor.failure_reason} "
            f"({supervisor.restarts} restart(s) attempted)",
            file=sys.stderr,
        )
        return 1
    print(
        f"stopped {args.workers} worker(s) "
        f"({supervisor.restarts} restart(s))",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise DataError("--workers must be >= 1")
    if args.http and args.workers > 1:
        return _serve_supervised(args)
    with _open_store(args.store) as store:
        return asyncio.run(_serve(_open_client(store, args), args))


def _cmd_trim(args: argparse.Namespace) -> int:
    with _open_store(args.store) as store:
        if not isinstance(store, MmapStore):
            raise StorageError(
                "trim requires a memory-mapped store directory (SQLite "
                "stores reclaim space with VACUUM)"
            )
        before = store.size_bytes()
        reclaimed = store.trim()
        count = store.window_count()
        size = store.size_bytes()
    print(
        f"trimmed {args.store}: reclaimed {reclaimed / 1e6:.2f} MB "
        f"({before / 1e6:.2f} -> {size / 1e6:.2f} MB, "
        f"{count} committed windows)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``tsubasa`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tsubasa",
        description="Climate network construction on historical and "
                    "real-time data (SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--stations", type=int, default=157)
    gen.add_argument("--points", type=int, default=8760)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    sk = sub.add_parser("sketch", help="sketch a dataset into a store")
    sk.add_argument("--data", required=True)
    sk.add_argument("--window-size", type=int, required=True)
    sk.add_argument("--store", required=True)
    sk.add_argument("--chunk-rows", type=int, default=0,
                    help="memory-bounded chunked build: covariance row-block "
                         "height (0 = materialize the whole sketch)")
    sk.add_argument("--store-backend", choices=("sqlite", "mmap"),
                    default="sqlite",
                    help="on-disk layout: SQLite database file or zero-copy "
                         "memory-mapped array directory")
    sk.add_argument("--prefix", action="store_true",
                    help="also persist prefix-aggregate tables (mmap stores "
                         "only): contiguous queries then cost O(n^2) "
                         "regardless of window count")
    sk.set_defaults(func=_cmd_sketch)

    cv = sub.add_parser("convert",
                        help="migrate a sketch store between layouts")
    cv.add_argument("--src", required=True,
                    help="source store (layout auto-detected)")
    cv.add_argument("--dst", required=True)
    cv.add_argument("--dst-backend", choices=("sqlite", "mmap"),
                    required=True,
                    help="destination layout")
    cv.add_argument("--batch-size", type=int, default=64,
                    help="window records per migration batch")
    cv.add_argument("--prefix", action="store_true",
                    help="build prefix-aggregate tables on the destination "
                         "(mmap only; automatic when the source store "
                         "already has them)")
    cv.set_defaults(func=_cmd_convert)

    def add_backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=("memory", "store", "mmap"),
                       default="memory",
                       help="sketch backend: load whole sketch up front "
                            "(memory), read windows lazily with an LRU "
                            "cache (store), or serve zero-copy slices of a "
                            "memory-mapped store (mmap)")
        p.add_argument("--cache-windows", type=int, default=64,
                       help="store backend: LRU capacity in window records")
        p.add_argument("--data", default=None,
                       help="raw dataset enabling arbitrary (non-aligned) "
                            "query windows")
        p.add_argument("--prefix", action="store_true",
                       help="serve contiguous window ranges from "
                            "prefix-aggregate tables: O(n^2) per query "
                            "independent of the range length (the mmap "
                            "backend uses persisted tables automatically)")

    qr = sub.add_parser("query", help="build a network from a sketch store")
    qr.add_argument("--store", required=True)
    qr.add_argument("--end", type=int, required=True)
    qr.add_argument("--length", type=int, required=True)
    qr.add_argument("--theta", type=float, default=0.75)
    qr.add_argument("--alpha", type=float, default=None,
                    help="derive theta from a significance level instead")
    qr.add_argument("--max-edges", type=int, default=10)
    qr.add_argument("--parallel", type=int, default=0,
                    help="fan the matrix computation out over N worker "
                         "processes (0 = serial)")
    add_backend_args(qr)
    qr.set_defaults(func=_cmd_query)

    tk = sub.add_parser("topk", help="most correlated pairs in a window")
    tk.add_argument("--store", required=True)
    tk.add_argument("--end", type=int, required=True)
    tk.add_argument("--length", type=int, required=True)
    tk.add_argument("--k", type=int, default=10)
    tk.add_argument("--anticorrelated", action="store_true")
    add_backend_args(tk)
    tk.set_defaults(func=_cmd_topk)

    sw = sub.add_parser("sweep", help="networks over a sliding window sweep")
    sw.add_argument("--store", required=True)
    sw.add_argument("--windows", type=int, required=True,
                    help="query window length in basic windows")
    sw.add_argument("--stride", type=int, default=1)
    sw.add_argument("--theta", type=float, default=0.75)
    sw.set_defaults(func=_cmd_sweep)

    mp = sub.add_parser("map", help="ASCII degree map of a network")
    mp.add_argument("--data", required=True)
    mp.add_argument("--window-size", type=int, required=True)
    mp.add_argument("--end", type=int, required=True)
    mp.add_argument("--length", type=int, required=True)
    mp.add_argument("--theta", type=float, default=0.75)
    mp.add_argument("--width", type=int, default=60)
    mp.add_argument("--height", type=int, default=20)
    mp.set_defaults(func=_cmd_map)

    st = sub.add_parser("stream", help="simulate real-time updates")
    st.add_argument("--data", required=True)
    st.add_argument("--window-size", type=int, required=True)
    st.add_argument("--initial", type=int, required=True)
    st.add_argument("--theta", type=float, default=0.75)
    st.add_argument("--updates", type=int, default=10)
    st.set_defaults(func=_cmd_stream)

    info = sub.add_parser("info", help="describe a sketch store")
    info.add_argument("--store", required=True)
    info.set_defaults(func=_cmd_info)

    tr = sub.add_parser(
        "trim",
        help="compact an mmap sketch store written out of order",
        description="Truncate trailing unwritten capacity (and matching "
                    "prefix-table rows) left by out-of-order or interrupted "
                    "writes. Runs behind the store's fsync/generation "
                    "barrier; interior holes are preserved (window indices "
                    "are semantic).",
    )
    tr.add_argument("--store", required=True)
    tr.set_defaults(func=_cmd_trim)

    sv = sub.add_parser(
        "serve",
        help="long-lived query service (JSON-lines stdin, or --http socket)",
        description="By default, read one wire-protocol request frame per "
                    "input line ({'protocol': 1, 'id': ..., 'spec': {...}} "
                    "or the inline legacy form) and write one completion "
                    "envelope per line. With --http HOST:PORT, serve the "
                    "same protocol over HTTP/1.1 (POST /v1/query, "
                    "/v1/batch, GET /v1/stats, /healthz) and WebSockets "
                    "(/v1/ws, including streaming 'subscribe' ops). "
                    "Concurrent requests over the same window share a "
                    "single matrix computation.",
    )
    sv.add_argument("--store", required=True)
    sv.add_argument("--workers", type=int, default=1,
                    help="stdin mode: executor threads computing matrices "
                         "(keep 1 for --backend store). With --http, N > 1 "
                         "instead spawns N SO_REUSEPORT acceptor processes "
                         "sharing the port, each with its own event loop "
                         "and service (restarted on crash, drained on "
                         "SIGTERM)")
    sv.add_argument("--max-batch", type=int, default=64,
                    help="queued requests drained per dispatch round (the "
                         "unit of batched store prefetch)")
    sv.add_argument("--max-pending", type=int, default=256,
                    help="responses allowed ahead of the printer before the "
                         "reader pauses stdin (bounds in-flight memory)")
    sv.add_argument("--result-cache", type=int, default=64,
                    help="finished matrices kept in a bounded LRU and "
                         "replayed to repeat queries (0 disables)")
    sv.add_argument("--http", metavar="HOST:PORT", default=None,
                    help="serve over a socket instead of stdin/stdout: "
                         "HTTP/1.1 + WebSockets on this address (port 0 "
                         "binds an ephemeral port, announced on stderr)")
    sv.add_argument("--max-inflight", type=int, default=64,
                    help="HTTP/WS mode: concurrent requests allowed per "
                         "connection before excess ones are rejected")
    sv.add_argument("--send-buffer", type=int, default=64,
                    help="per-client send queue bound in frames (WS), and "
                         "each subscription's event buffer (WS and stdin); "
                         "consumers that fall further behind are "
                         "disconnected (slow-consumer policy)")
    sv.add_argument("--max-inflight-total", type=int, default=0,
                    help="HTTP/WS mode: server-wide cap on concurrently "
                         "executing requests; excess requests are shed "
                         "with an 'overloaded' error envelope (HTTP 503). "
                         "0 = unlimited. Per acceptor process with "
                         "--workers N")
    sv.add_argument("--auth-token", default=None,
                    help="HTTP/WS mode: require 'Authorization: Bearer "
                         "<token>' on every request except /healthz "
                         "(plaintext on the wire: terminate TLS in front, "
                         "see README)")
    sv.add_argument("--stream-data", default=None,
                    help="replay this dataset through a realtime engine as "
                         "an endless simulated live feed (tail beyond the "
                         "sketched range first, then looping) so clients "
                         "can 'subscribe' to network updates — over "
                         "WebSockets with --http, or as JSON lines on "
                         "stdout in stdin mode")
    sv.add_argument("--stream-theta", type=float, default=0.75,
                    help="base threshold of the realtime stream "
                         "(subscriptions may ask for higher)")
    sv.add_argument("--stream-windows", type=int, default=0,
                    help="standing query length in basic windows "
                         "(0 = every window the store holds)")
    sv.add_argument("--stream-interval", type=float, default=0.05,
                    help="pause between replayed stream batches, in seconds")
    add_backend_args(sv)
    sv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures surface as a one-line ``error: ...`` message and a
    per-subclass exit code (see :func:`exit_code_for`), never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TsubasaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
