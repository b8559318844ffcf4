"""Provider benchmark: in-memory vs memory-mapped (cold/warm) query latency.

Times the same Lemma 1 all-pairs query through each sketch backend:

* ``memory`` — :class:`~repro.engine.providers.InMemoryProvider` over a fully
  materialized sketch (the paper's in-memory configuration);
* ``mmap_cold`` — a fresh :class:`~repro.engine.providers.MmapProvider` per
  repeat (re-maps the store's arrays, then reads zero-copy);
* ``mmap_warm`` — the same provider re-queried over already-mapped pages;
* ``chunked_build`` — :class:`~repro.engine.providers.ChunkedBuildProvider`
  computing window covariances on demand from raw data;
* ``parallel_*`` — :func:`~repro.parallel.executor.parallel_query` fan-out
  (shared-memory shipping for in-memory sketches, path handoff for mmap
  stores, and ``store_path=`` handoff for a SQLite store — Fig. 6b's
  disk-based mode);
* ``convert_*`` — the sketch→store conversion cost per backend (the §3.4
  ingestion-side write path).

Beyond the per-query rows, three system-level axes are recorded:

* ``scale`` — the same aligned query at n_stations 60 → 500 (records grow
  quadratically), cold mmap against the in-memory sketch, plus
  ``prefix_warm``: one warm prefix-table answer
  (:meth:`~repro.api.client.TsubasaClient.compute_matrix` over persisted
  tables), the time the service's event loop spends on each such answer it
  computes inline;
* ``ns_scale`` — the same full-range query at 1k → 50k basic *windows*:
  ``direct`` streams the whole selection through the Lemma 1 kernel
  (O(ns * n^2)), ``prefix_cold`` / ``prefix_warm`` answer from the store's
  persisted prefix-aggregate tables (O(n^2), flat in ``ns``). The
  ``arbitrary_*`` twins run a non-aligned window one point short at each
  end, so the prefix path also folds in raw head/tail fragments. CI gates
  on ``prefix_cold`` beating ``direct`` and ``arbitrary_prefix_cold``
  beating ``arbitrary_direct`` at the largest point
  (``benchmarks/check_prefix_gate.py``);
* ``service`` — :class:`~repro.api.service.TsubasaService` throughput
  (queries/sec) over one shared provider at client concurrency 1/8/32, with
  the measured coalesce rate. ``service_http`` / ``service_ws`` rows run the
  same workload through a real :class:`~repro.api.server.TsubasaServer`
  socket via :class:`~repro.api.remote.TsubasaRemoteClient` threads, so the
  wire protocol's overhead over the in-process service is measured rather
  than assumed. The ``*_v2`` twins pin the binary columnar protocol v2 on
  the same connections (CI gates v2 beating JSON v1 at the highest
  concurrency via ``benchmarks/check_wire_gate.py``), and
  ``service_http_v2_workers`` scales the v2 workload over 1/2/4
  ``SO_REUSEPORT`` acceptor processes.

Run as a script to emit ``BENCH_provider.json`` at the repository root, so
the provider-layer performance trajectory accumulates across revisions::

    PYTHONPATH=src python benchmarks/bench_provider_query.py
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.api.client import TsubasaClient
from repro.api.service import run_specs
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.exact import TsubasaHistorical
from repro.core.sketch import build_sketch
from repro.data.synthetic import generate_station_dataset
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
)
from repro.parallel.executor import parallel_query
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore

N_STATIONS = 60
N_POINTS = 3000
BASIC_WINDOW = 50
QUERY = (2999, 2000)  # aligned: 40 basic windows
ARBITRARY_QUERY = (2971, 1903)  # head/tail fragments at both ends
REPEATS = 5
PARALLEL_WORKERS = 4

#: n-stations scale axis: records grow as n^2, tracking where the backends'
#: cold-query ranking shifts as collections approach deployment size.
SCALE_STATIONS = (60, 150, 300, 500)
SCALE_POINTS = 2000
SCALE_QUERY = (1999, 1500)  # aligned: 30 basic windows

#: n-windows scale axis: the direct path reads every selected record, the
#: prefix path reads two table rows — this axis shows the flat-vs-linear
#: split. Small n keeps the 50k-window store (and its prefix tables) at a
#: CI-friendly size.
NS_SCALE_WINDOWS = (1_000, 5_000, 20_000, 50_000)
NS_SCALE_STATIONS = 12
NS_SCALE_BASIC_WINDOW = 8

#: Service throughput axis: concurrent clients multiplexed over one shared
#: provider by TsubasaService.
SERVICE_CONCURRENCY = (1, 8, 32)
SERVICE_QUERIES = 64


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(store_dir: Path) -> dict:
    dataset = generate_station_dataset(
        n_stations=N_STATIONS, n_points=N_POINTS, seed=42
    )
    data = dataset.values
    sketch = build_sketch(data, BASIC_WINDOW, names=dataset.names)
    store_path = store_dir / "bench_provider.db"
    mmap_path = store_dir / "bench_provider.mm"

    results = []

    def record(backend: str, seconds: float, query=None, extra=None):
        entry = {"backend": backend, "seconds": seconds}
        if query is not None:
            entry["query"] = {"end": query[0], "length": query[1]}
        if extra:
            entry.update(extra)
        results.append(entry)

    # Sketch -> store conversion (the ingestion-side write path, Fig. 6a's
    # write bars), one cold run per backend.
    with SqliteSketchStore(store_path) as store:
        start = time.perf_counter()
        save_sketch(store, sketch)
        record(
            "convert_sqlite",
            time.perf_counter() - start,
            extra={"store_bytes": store.size_bytes()},
        )
    with MmapStore(mmap_path) as store:
        start = time.perf_counter()
        save_sketch(store, sketch)
        record(
            "convert_mmap",
            time.perf_counter() - start,
            extra={"store_bytes": store.size_bytes()},
        )

    # In-memory reference (with raw data for the arbitrary query).
    memory_engine = TsubasaHistorical(
        provider=InMemoryProvider(sketch, data=data)
    )
    reference = memory_engine.correlation_matrix(QUERY).values
    # SQLite is the interchange format: a loaded copy answers bit-identically.
    with SqliteSketchStore(store_path) as store:
        loaded = TsubasaHistorical(provider=InMemoryProvider(load_sketch(store)))
    np.testing.assert_array_equal(
        loaded.correlation_matrix(QUERY).values, reference
    )
    record(
        "memory", _best_of(lambda: memory_engine.correlation_matrix(QUERY)), QUERY
    )
    record(
        "memory",
        _best_of(lambda: memory_engine.correlation_matrix(ARBITRARY_QUERY)),
        ARBITRARY_QUERY,
    )

    # Memory-mapped store: cold re-maps the arrays every repeat, warm reuses
    # the provider (and the already-faulted pages).
    def mmap_cold_query():
        provider = MmapProvider(mmap_path)
        return TsubasaHistorical(provider=provider).correlation_matrix(QUERY)

    np.testing.assert_array_equal(mmap_cold_query().values, reference)
    record("mmap_cold", _best_of(mmap_cold_query), QUERY)

    mmap_provider = MmapProvider(mmap_path, data=data)
    mmap_engine = TsubasaHistorical(provider=mmap_provider)
    record(
        "mmap_warm", _best_of(lambda: mmap_engine.correlation_matrix(QUERY)), QUERY
    )
    record(
        "mmap_warm",
        _best_of(lambda: mmap_engine.correlation_matrix(ARBITRARY_QUERY)),
        ARBITRARY_QUERY,
    )

    # Parallel fan-out over every backend (aligned query only). Each repeat
    # pays the full fork + handoff cost, which is the honest deployment shape.
    plan_windows = np.arange(
        (QUERY[0] + 1 - QUERY[1]) // BASIC_WINDOW, (QUERY[0] + 1) // BASIC_WINDOW
    )
    in_memory = InMemoryProvider(sketch)
    np.testing.assert_allclose(
        parallel_query(
            plan_windows, n_workers=PARALLEL_WORKERS, provider=in_memory
        ).matrix,
        reference,
        atol=1e-10,
    )
    record(
        "parallel_memory_shm",
        _best_of(
            lambda: parallel_query(
                plan_windows, n_workers=PARALLEL_WORKERS, provider=in_memory
            ),
            repeats=3,
        ),
        QUERY,
        {"n_workers": PARALLEL_WORKERS},
    )
    np.testing.assert_allclose(
        parallel_query(
            plan_windows, n_workers=PARALLEL_WORKERS, store_path=store_path
        ).matrix,
        reference,
        atol=1e-10,
    )
    record(
        "parallel_sqlite",
        _best_of(
            lambda: parallel_query(
                plan_windows, n_workers=PARALLEL_WORKERS, store_path=store_path
            ),
            repeats=3,
        ),
        QUERY,
        {"n_workers": PARALLEL_WORKERS},
    )
    record(
        "parallel_mmap",
        _best_of(
            lambda: parallel_query(
                plan_windows, n_workers=PARALLEL_WORKERS, provider=mmap_provider
            ),
            repeats=3,
        ),
        QUERY,
        {"n_workers": PARALLEL_WORKERS},
    )

    # Chunked on-demand build (cold per repeat: fresh provider).
    def chunked_query():
        provider = ChunkedBuildProvider(data, BASIC_WINDOW, chunk_rows=16)
        return TsubasaHistorical(provider=provider).correlation_matrix(QUERY)

    np.testing.assert_allclose(chunked_query().values, reference, atol=1e-10)
    record("chunked_build", _best_of(chunked_query, repeats=3), QUERY)

    return {
        "benchmark": "provider_query",
        "config": {
            "n_stations": N_STATIONS,
            "n_points": N_POINTS,
            "basic_window": BASIC_WINDOW,
            "repeats": REPEATS,
            "parallel_workers": PARALLEL_WORKERS,
            "scale_stations": list(SCALE_STATIONS),
            "scale_points": SCALE_POINTS,
            "ns_scale_windows": list(NS_SCALE_WINDOWS),
            "ns_scale_stations": NS_SCALE_STATIONS,
            "ns_scale_basic_window": NS_SCALE_BASIC_WINDOW,
            "service_concurrency": list(SERVICE_CONCURRENCY),
            "service_queries": SERVICE_QUERIES,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
        "scale": run_scale(store_dir),
        "ns_scale": run_ns_scale(store_dir),
        "service": run_service(store_dir),
    }


def run_scale(store_dir: Path) -> list[dict]:
    """The n-stations axis: one aligned query per backend per scale point."""
    from repro.core.prefix import PREFIX_ATOL

    rows: list[dict] = []
    for n_stations in SCALE_STATIONS:
        dataset = generate_station_dataset(
            n_stations=n_stations, n_points=SCALE_POINTS, seed=42
        )
        sketch = build_sketch(dataset.values, BASIC_WINDOW, names=dataset.names)
        mmap_path = store_dir / f"scale_{n_stations}.mm"
        with MmapStore(mmap_path) as store:
            save_sketch(store, sketch)

        memory_engine = TsubasaHistorical(provider=InMemoryProvider(sketch))
        reference = memory_engine.correlation_matrix(SCALE_QUERY).values

        def timed(make_engine) -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                matrix = make_engine().correlation_matrix(SCALE_QUERY)
                best = min(best, time.perf_counter() - start)
            np.testing.assert_array_equal(matrix.values, reference)
            return best

        rows.append({
            "backend": "mmap_cold",
            "n_stations": n_stations,
            "seconds": timed(
                lambda: TsubasaHistorical(provider=MmapProvider(mmap_path))
            ),
        })
        rows.append({
            "backend": "memory",
            "n_stations": n_stations,
            "seconds": timed(
                lambda: TsubasaHistorical(provider=InMemoryProvider(sketch))
            ),
        })

        # Tables are added after the direct rows, which they would reroute.
        with MmapStore(mmap_path) as store:
            store.build_prefix()
        client = TsubasaClient(provider=MmapProvider(mmap_path))
        spec = QuerySpec(
            op="matrix",
            window=WindowSpec(end=SCALE_QUERY[0], length=SCALE_QUERY[1]),
        )
        warm = client.compute_matrix(spec, spec.window)
        assert warm.path == "prefix"
        np.testing.assert_allclose(
            warm.matrix.values, reference, rtol=0.0, atol=PREFIX_ATOL
        )
        rows.append({
            "backend": "prefix_warm",
            "n_stations": n_stations,
            "seconds": _best_of(
                lambda: client.compute_matrix(spec, spec.window), repeats=3
            ),
        })
    return rows


def run_ns_scale(store_dir: Path) -> list[dict]:
    """The n-windows axis: full-range query, prefix vs direct combination.

    Each scale point sketches ``ns`` basic windows into an mmap store with
    persisted prefix tables and times the same all-windows matrix query
    three ways: ``prefix_cold`` (fresh provider per repeat — open the store,
    map the tables, combine two rows), ``prefix_warm`` (provider reused),
    and ``direct`` (prefix serving disabled, the full streaming reduction).
    The non-aligned window ``[1, ns * B - 1)`` is timed two ways over
    providers holding the raw data: ``arbitrary_prefix_cold`` (fresh
    provider per repeat; prefix rows plus two raw fragments) and
    ``arbitrary_direct`` (prefix serving disabled). Results are
    cross-checked within the kernel's documented tolerance.
    """
    from repro.core.prefix import PREFIX_ATOL

    rng = np.random.default_rng(7)
    rows: list[dict] = []
    for n_windows in NS_SCALE_WINDOWS:
        data = rng.standard_normal(
            (NS_SCALE_STATIONS, n_windows * NS_SCALE_BASIC_WINDOW)
        )
        sketch = build_sketch(data, NS_SCALE_BASIC_WINDOW)
        mmap_path = store_dir / f"ns_{n_windows}.mm"
        with MmapStore(mmap_path) as store:
            save_sketch(store, sketch)
            store.build_prefix()
        del sketch
        spec = QuerySpec(
            op="matrix",
            window=WindowSpec(first_window=0, n_windows=n_windows),
        )

        direct_client = TsubasaClient(
            provider=MmapProvider(mmap_path, prefix=False)
        )
        warm_client = TsubasaClient(provider=MmapProvider(mmap_path))
        reference = direct_client.execute(spec)
        check = warm_client.execute(spec)
        assert reference.provenance.path == "direct"
        assert check.provenance.path == "prefix"
        np.testing.assert_allclose(
            check.value.values, reference.value.values,
            rtol=0.0, atol=PREFIX_ATOL,
        )

        def prefix_cold():
            client = TsubasaClient(provider=MmapProvider(mmap_path))
            assert client.execute(spec).provenance.path == "prefix"

        rows.append({
            "backend": "prefix_cold",
            "n_windows": n_windows,
            "seconds": _best_of(prefix_cold, repeats=3),
        })
        rows.append({
            "backend": "prefix_warm",
            "n_windows": n_windows,
            "seconds": _best_of(lambda: warm_client.execute(spec), repeats=3),
        })
        rows.append({
            "backend": "direct",
            "n_windows": n_windows,
            "seconds": _best_of(lambda: direct_client.execute(spec), repeats=3),
        })

        arbitrary = QuerySpec(
            op="matrix",
            window=WindowSpec(
                start=1, stop=n_windows * NS_SCALE_BASIC_WINDOW - 1
            ),
        )
        arbitrary_direct_client = TsubasaClient(
            provider=MmapProvider(mmap_path, data=data, prefix=False)
        )
        reference = arbitrary_direct_client.execute(arbitrary)
        check = TsubasaClient(
            provider=MmapProvider(mmap_path, data=data)
        ).execute(arbitrary)
        assert reference.provenance.path == "direct"
        assert check.provenance.path == "prefix"
        np.testing.assert_allclose(
            check.value.values, reference.value.values,
            rtol=0.0, atol=PREFIX_ATOL,
        )

        def arbitrary_prefix_cold():
            client = TsubasaClient(provider=MmapProvider(mmap_path, data=data))
            assert client.execute(arbitrary).provenance.path == "prefix"

        rows.append({
            "backend": "arbitrary_prefix_cold",
            "n_windows": n_windows,
            "seconds": _best_of(arbitrary_prefix_cold, repeats=3),
        })
        rows.append({
            "backend": "arbitrary_direct",
            "n_windows": n_windows,
            "seconds": _best_of(
                lambda: arbitrary_direct_client.execute(arbitrary), repeats=3
            ),
        })
        del data
    return rows


def _service_specs() -> list[QuerySpec]:
    """A dashboard-shaped workload: mixed ops over overlapping windows."""
    last = N_POINTS - 1
    windows = [
        WindowSpec(end=last, length=2000),
        WindowSpec(end=last, length=1000),
        WindowSpec(end=last - 500, length=1000),
        WindowSpec(end=last - 1000, length=1500),
    ]
    specs: list[QuerySpec] = []
    for i in range(SERVICE_QUERIES):
        window = windows[i % len(windows)]
        kind = i % 4
        if kind == 0:
            specs.append(QuerySpec(op="network", window=window, theta=0.75))
        elif kind == 1:
            specs.append(QuerySpec(op="top_k", window=window, k=10))
        elif kind == 2:
            specs.append(QuerySpec(op="degree", window=window, theta=0.75))
        else:
            specs.append(QuerySpec(op="matrix", window=window))
    return specs


def run_service(store_dir: Path) -> list[dict]:
    """TsubasaService throughput over one shared mmap provider."""
    mmap_path = store_dir / "bench_provider.mm"
    specs = _service_specs()
    rows: list[dict] = []
    max_workers = 4  # read-only maps share safely
    for concurrency in SERVICE_CONCURRENCY:
        client = TsubasaClient(provider=MmapProvider(mmap_path))
        start = time.perf_counter()
        _, stats = run_specs(
            client, specs, max_workers=max_workers, concurrency=concurrency
        )
        elapsed = time.perf_counter() - start
        rows.append({
            "backend": "service_mmap",
            "concurrency": concurrency,
            "queries": len(specs),
            "seconds": elapsed,
            "qps": len(specs) / elapsed,
            "coalesced": stats.coalesced,
            "coalesce_rate": round(stats.coalesce_rate, 4),
            "matrices_computed": stats.matrices_computed,
            "service_workers": max_workers,
        })
    rows.extend(run_service_remote(mmap_path, specs))
    rows.extend(run_service_workers(mmap_path, specs))
    return rows


def run_service_remote(mmap_path: Path, specs: list[QuerySpec]) -> list[dict]:
    """The same workload over a real socket: HTTP and WebSocket transports.

    One :class:`TsubasaServer` per transport row (mmap backend, 4 executor
    threads); ``concurrency`` remote clients on their own connections split
    the workload, so the row is comparable to the in-process ``service_mmap``
    row at the same concurrency — the delta is the wire protocol. Each
    transport runs twice: pinned to the JSON protocol
    (``service_http`` / ``service_ws``) and pinned to the binary columnar
    protocol v2 (``*_v2`` rows) — the delta between the pair is the
    encoding, measured on identical connections. CI gates on v2 beating v1
    at the highest concurrency (``benchmarks/check_wire_gate.py``).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.remote import TsubasaRemoteClient
    from repro.api.server import serve_in_thread

    rows: list[dict] = []
    for transport in ("http", "ws"):
        for protocol, suffix in ((1, ""), (2, "_v2")):
            client = TsubasaClient(provider=MmapProvider(mmap_path))
            handle = serve_in_thread(
                client, service_kwargs={"max_workers": 4}
            )
            try:
                for concurrency in SERVICE_CONCURRENCY:
                    shares = [specs[i::concurrency] for i in range(concurrency)]

                    def worker(share: list[QuerySpec]) -> int:
                        if not share:
                            return 0
                        with TsubasaRemoteClient(
                            handle.address, transport=transport,
                            protocol=protocol,
                        ) as remote:
                            return len(remote.execute_many(share))
                    start = time.perf_counter()
                    with ThreadPoolExecutor(max_workers=concurrency) as pool:
                        answered = sum(pool.map(worker, shares))
                    elapsed = time.perf_counter() - start
                    assert answered == len(specs)
                    rows.append({
                        "backend": f"service_{transport}{suffix}",
                        "concurrency": concurrency,
                        "queries": len(specs),
                        "seconds": elapsed,
                        "qps": len(specs) / elapsed,
                        "service_workers": 4,
                        "protocol": protocol,
                    })
            finally:
                handle.stop()
    return rows


def run_service_workers(mmap_path: Path, specs: list[QuerySpec]) -> list[dict]:
    """v2 HTTP throughput against 1/2/4 ``SO_REUSEPORT`` acceptor processes.

    Each row starts an :class:`~repro.api.supervisor.AcceptorSupervisor`
    over the same mmap store (2 executor threads per worker) and drives the
    mixed workload at the highest service concurrency. On a multi-core
    machine throughput should scale near-linearly to ~4 workers; on a
    single core the rows document the (small) supervisor overhead instead.
    """
    import socket
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.remote import TsubasaRemoteClient
    from repro.api.supervisor import AcceptorSupervisor, WorkerConfig

    if not hasattr(socket, "SO_REUSEPORT"):
        return []

    concurrency = max(SERVICE_CONCURRENCY)
    rows: list[dict] = []
    config = WorkerConfig(
        store=str(mmap_path),
        backend="mmap",
        service_kwargs={"max_workers": 2},
    )
    for workers in (1, 2, 4):
        with AcceptorSupervisor(config, workers=workers, port=0) as supervisor:
            shares = [specs[i::concurrency] for i in range(concurrency)]

            def worker(share: list[QuerySpec]) -> int:
                if not share:
                    return 0
                with TsubasaRemoteClient(
                    supervisor.address, protocol=2
                ) as remote:
                    return len(remote.execute_many(share))

            # One warm-up pass per worker count so every acceptor has
            # faulted its maps before the timed run.
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                sum(pool.map(worker, shares))
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                answered = sum(pool.map(worker, shares))
            elapsed = time.perf_counter() - start
            assert answered == len(specs)
            rows.append({
                "backend": "service_http_v2_workers",
                "workers": workers,
                "concurrency": concurrency,
                "queries": len(specs),
                "seconds": elapsed,
                "qps": len(specs) / elapsed,
                "service_workers": 2,
                "protocol": 2,
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_provider.json"),
    )
    parser.add_argument("--store-dir", default=None,
                        help="directory for the throwaway stores "
                             "(default: a temporary directory)")
    args = parser.parse_args()

    import tempfile

    if args.store_dir is not None:
        payload = run(Path(args.store_dir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            payload = run(Path(tmp))
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    for entry in payload["results"]:
        q = entry.get("query")
        label = f"l={q['length']:<5}" if q else "build  "
        print(f"  {entry['backend']:<19} {label} "
              f"{entry['seconds'] * 1e3:8.2f} ms")
    print("scale (aligned query, 30 windows):")
    for entry in payload["scale"]:
        print(f"  {entry['backend']:<12} n={entry['n_stations']:<4} "
              f"{entry['seconds'] * 1e3:8.2f} ms")
    print("ns scale (full-range query, prefix vs direct):")
    for entry in payload["ns_scale"]:
        print(f"  {entry['backend']:<12} ns={entry['n_windows']:<6} "
              f"{entry['seconds'] * 1e3:8.2f} ms")
    print("service throughput (64 mixed queries, shared provider):")
    for entry in payload["service"]:
        coalesce = entry.get("coalesce_rate")
        if coalesce is not None:
            note = f"coalesce={coalesce:.2f}"
        elif "workers" in entry:
            note = f"workers={entry['workers']}"
        else:
            note = "remote"
        print(f"  {entry['backend']:<23} c={entry['concurrency']:<3} "
              f"{entry['qps']:8.1f} q/s  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
