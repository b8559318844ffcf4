"""Parallel and disk-based TSUBASA execution (§3.4).

The paper's deployment: the pair workload is partitioned across *computation
workers*; one *database worker* owns all writes to the sketch database.
During sketching each computation worker sketches its partition and ships
batches to the database worker; during querying each worker reads the
sketches it needs straight from the database and emits a sub-matrix (a block
of rows) of the correlation matrix.

This module reproduces that architecture with ``multiprocessing`` (fork) and
the SQLite store standing in for PostgreSQL:

* :func:`parallel_sketch` — fan out per-partition sketch computation, funnel
  results through the single writer (the driver process plays the database
  worker), and report the calculation/write split of Fig. 6a.
* :func:`parallel_query` — fan out per-partition Lemma 1 row-block
  computation over **any** sketch provider and report the read/calculation
  split of Fig. 6b. No provider is materialized before fan-out; each backend
  has a native worker handoff instead:

  * mmap-backed providers hand workers the store *directory path* — each
    worker re-maps the arrays in its own process and reads its row block
    zero-copy through the OS page cache;
  * ``store_path=`` (a SQLite database) hands workers the database path —
    each worker opens its own connection, as in §3.4;
  * every other provider (in-memory sketches, chunked builds) streams the
    selection's covariance tensor into one ``multiprocessing.shared_memory``
    block that all workers attach to and slice — the tensor crosses the
    process boundary zero times instead of being pickled per worker.

``n_workers=1`` short-circuits to in-process execution (no fork, no shared
memory), which keeps tests deterministic and makes the worker functions
unit-testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from pathlib import Path

import numpy as np

from repro.core.lemma1 import combine_rows
from repro.core.segmentation import BasicWindowPlan
from repro.core.sketch import Sketch
from repro.exceptions import DataError
from repro.parallel.partitioning import partition_rows
from repro.storage.base import SketchStore
from repro.storage.sqlite_store import SqliteSketchStore

__all__ = [
    "ParallelSketchResult",
    "ParallelQueryResult",
    "parallel_sketch",
    "parallel_query",
    "sketch_partition",
    "query_partition",
]

#: Windows per chunk when streaming a provider's selection into shared memory.
SHM_FILL_CHUNK_WINDOWS = 64

# Worker globals installed by the pool initializer (fork-safe, read-only).
_WORKER_DATA: np.ndarray | None = None
_WORKER_BOUNDS: np.ndarray | None = None
_WORKER_QUERY_SPEC: dict | None = None


def _init_sketch_worker(data: np.ndarray, bounds: np.ndarray) -> None:
    global _WORKER_DATA, _WORKER_BOUNDS
    _WORKER_DATA = data
    _WORKER_BOUNDS = bounds


def _init_query_worker(spec: dict) -> None:
    global _WORKER_QUERY_SPEC
    _WORKER_QUERY_SPEC = spec


def _attach_shared_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block without tracker side effects.

    On Python >= 3.13 ``track=False`` skips resource-tracker registration
    outright. Older versions register every attach, but the ``fork`` workers
    share the parent's tracker process, whose registry is a *set*: the
    duplicate registrations collapse and the parent's final ``unlink()``
    retires the name exactly once — so the plain attach is already balanced
    and must NOT be paired with a manual unregister.
    """
    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name, create=False)


@dataclass
class ParallelSketchResult:
    """Outcome of a parallel sketch run.

    Attributes:
        sketch: The assembled full sketch.
        calc_seconds: Wall time of the parallel sketch-computation phase.
        write_seconds: Wall time spent writing records to the store.
        n_partitions: Number of partitions actually used.
    """

    sketch: Sketch
    calc_seconds: float
    write_seconds: float
    n_partitions: int

    @property
    def total_seconds(self) -> float:
        """Calculation plus write time (the stacked bars of Fig. 6a)."""
        return self.calc_seconds + self.write_seconds


@dataclass
class ParallelQueryResult:
    """Outcome of a parallel query run.

    Attributes:
        matrix: The assembled ``(n, n)`` correlation matrix.
        read_seconds: Store-read time of the slowest worker — the read
            component on the critical path. (Averaging reads across workers
            instead could exceed the measured wall time of a skewed run and
            push the derived calculation share negative.)
        calc_seconds: Wall time of the parallel matrix-calculation phase
            minus the read component.
        n_partitions: Number of partitions actually used.
        worker_read_seconds: Per-worker store-read times, in partition order.
    """

    matrix: np.ndarray
    read_seconds: float
    calc_seconds: float
    n_partitions: int
    worker_read_seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Read plus calculation time (the stacked bars of Fig. 6b)."""
        return self.read_seconds + self.calc_seconds

    def as_matrix(self, names: list[str]):
        """The assembled result as a labeled correlation matrix.

        Convenience for callers (the declarative query client) that route a
        parallel run into the same post-processing operators as serial
        execution.
        """
        from repro.core.matrix import CorrelationMatrix

        return CorrelationMatrix(names=list(names), values=self.matrix)


def sketch_partition(
    rows: np.ndarray, data: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sketch one row-partition: per-row window stats and cov row-blocks.

    Args:
        rows: Row indices owned by this partition.
        data: Full ``(n, L)`` series matrix.
        bounds: Basic window boundaries, shape ``(ns + 1,)``.

    Returns:
        ``(rows, means_rows, stds_rows, cov_blocks)`` where ``cov_blocks``
        has shape ``(ns, len(rows), n)`` — this partition's rows of every
        per-window covariance matrix.
    """
    sizes = np.diff(bounds)
    n_windows = sizes.size
    means = np.empty((rows.size, n_windows))
    stds = np.empty_like(means)
    blocks = np.empty((n_windows, rows.size, data.shape[0]))
    for j in range(n_windows):
        window = data[:, bounds[j] : bounds[j + 1]]
        centered = window - window.mean(axis=1, keepdims=True)
        means[:, j] = window[rows].mean(axis=1)
        stds[:, j] = window[rows].std(axis=1)
        blocks[j] = centered[rows] @ centered.T / sizes[j]
    return rows, means, stds, blocks


def _sketch_partition_task(rows: np.ndarray):
    assert _WORKER_DATA is not None and _WORKER_BOUNDS is not None
    return sketch_partition(rows, _WORKER_DATA, _WORKER_BOUNDS)


def parallel_sketch(
    data: np.ndarray,
    window_size: int,
    n_workers: int,
    store: SketchStore | None = None,
    store_path: str | Path | None = None,
    names: list[str] | None = None,
    batch_size: int = 16,
) -> ParallelSketchResult:
    """Sketch a collection with partitioned workers and one database writer.

    Args:
        data: ``(n, L)`` series matrix.
        window_size: Basic window size ``B``.
        n_workers: Computation workers (the paper reserves one extra core for
            the database worker; here the driver process plays that role).
        store: Open store to write to; mutually exclusive with ``store_path``.
        store_path: Path for a fresh SQLite store (closed before returning).
        names: Optional series identifiers.
        batch_size: Window records per database write batch.

    Returns:
        A :class:`ParallelSketchResult` with the assembled sketch and the
        calculation/write time split.
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-D series matrix, got shape {matrix.shape}")
    if n_workers <= 0:
        raise DataError("n_workers must be positive")
    if store is not None and store_path is not None:
        raise DataError("give at most one of store / store_path")

    plan = BasicWindowPlan(length=matrix.shape[1], window_size=window_size)
    bounds = plan.boundaries
    partitions = partition_rows(matrix.shape[0], n_workers)

    start = time.perf_counter()
    if n_workers == 1 or len(partitions) == 1:
        results = [sketch_partition(rows, matrix, bounds) for rows in partitions]
    else:
        ctx = get_context("fork")
        with ctx.Pool(
            processes=len(partitions),
            initializer=_init_sketch_worker,
            initargs=(matrix, bounds),
        ) as pool:
            results = pool.map(_sketch_partition_task, partitions)
    calc_seconds = time.perf_counter() - start

    # Assemble the full sketch from the partition row-blocks.
    n = matrix.shape[0]
    n_windows = bounds.size - 1
    means = np.empty((n, n_windows))
    stds = np.empty_like(means)
    covs = np.empty((n_windows, n, n))
    for rows, p_means, p_stds, p_blocks in results:
        means[rows] = p_means
        stds[rows] = p_stds
        covs[:, rows, :] = p_blocks
    # Symmetrize: each partition computed full rows, so covs is already
    # complete; enforce exact symmetry against fp noise from block order.
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))

    if names is None:
        names = [f"s{i:04d}" for i in range(n)]
    sketch = Sketch(
        names=list(names),
        window_size=window_size,
        means=means,
        stds=stds,
        covs=covs,
        sizes=np.diff(bounds),
    )

    write_seconds = 0.0
    owned_store = None
    try:
        target = store
        if store_path is not None:
            owned_store = SqliteSketchStore(store_path)
            target = owned_store
        if target is not None:
            from repro.storage.serialize import save_sketch

            start = time.perf_counter()
            save_sketch(target, sketch, batch_size=batch_size)
            write_seconds = time.perf_counter() - start
    finally:
        if owned_store is not None:
            owned_store.close()

    return ParallelSketchResult(
        sketch=sketch,
        calc_seconds=calc_seconds,
        write_seconds=write_seconds,
        n_partitions=len(partitions),
    )


def query_partition(
    rows: np.ndarray,
    window_indices: np.ndarray,
    sketch: Sketch | None,
    store_path: str | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Compute one row-block of the Lemma 1 correlation matrix.

    Reads the needed window records from the store when ``store_path`` is
    given (disk-based mode) or slices the in-memory sketch otherwise.

    Args:
        rows: Row indices owned by this partition.
        window_indices: Basic windows forming the query window.
        sketch: In-memory sketch (in-memory mode).
        store_path: SQLite store path (disk-based mode).

    Returns:
        ``(rows, block, read_seconds)`` where ``block`` is the
        ``(len(rows), n)`` correlation slab.
    """
    if store_path is not None:
        return _run_query_partition(
            np.asarray(rows, dtype=np.int64),
            np.asarray(window_indices, dtype=np.int64),
            {"mode": "sqlite", "path": str(store_path)},
        )
    if sketch is None:
        raise DataError("either sketch or store_path must be provided")
    rows = np.asarray(rows, dtype=np.int64)
    idx = np.asarray(window_indices, dtype=np.int64)
    block = combine_rows(
        sketch.means[:, idx],
        sketch.stds[:, idx],
        sketch.covs[idx][:, rows, :],
        sketch.sizes[idx].astype(np.float64),
        rows,
    )
    return rows, block, 0.0


def _provider_partition(
    rows: np.ndarray, window_indices: np.ndarray, provider
) -> tuple[np.ndarray, np.ndarray, float]:
    """One row-block computed straight off a provider (in-process mode)."""
    from repro.engine.providers import InMemoryProvider

    rows = np.asarray(rows, dtype=np.int64)
    idx = np.asarray(window_indices, dtype=np.int64)
    start = time.perf_counter()
    means, stds, sizes = provider.window_stats(idx)
    cov_block = provider.cov_rows(idx, rows)
    read_seconds = time.perf_counter() - start
    if isinstance(provider, InMemoryProvider):
        # Pure array slicing is calculation, not a read phase: keep the
        # Fig. 6b split consistent with the multi-worker shared-memory path,
        # which also reports zero reads for in-memory backends.
        read_seconds = 0.0
    block = combine_rows(means, stds, cov_block, sizes, rows)
    return rows, block, read_seconds


def _run_query_partition(
    rows: np.ndarray, window_indices: np.ndarray, spec: dict
) -> tuple[np.ndarray, np.ndarray, float]:
    """Compute one row-block through a backend handoff spec.

    ``spec["mode"]`` selects the worker-side read path:

    * ``"sqlite"`` — open an own connection to ``spec["path"]`` and read the
      selected window records;
    * ``"mmap"`` — re-map the store directory at ``spec["path"]`` and read
      this partition's covariance rows zero-copy;
    * ``"shm"`` — attach the parent's shared-memory covariance block and
      slice it (no store I/O; the selection's statistics ride in the spec).
    """
    rows = np.asarray(rows, dtype=np.int64)
    mode = spec["mode"]
    if mode == "sqlite":
        start = time.perf_counter()
        with SqliteSketchStore(spec["path"]) as store:
            from repro.storage.serialize import load_sketch

            sketch = load_sketch(store, indices=[int(j) for j in window_indices])
        read_seconds = time.perf_counter() - start
        # load_sketch already restricted the sketch to the selection, in
        # order; gather only this partition's rows of the tensor.
        block = combine_rows(
            sketch.means,
            sketch.stds,
            sketch.covs[:, rows, :],
            sketch.sizes.astype(np.float64),
            rows,
        )
        return rows, block, read_seconds
    if mode == "mmap":
        from repro.engine.providers import MmapProvider

        start = time.perf_counter()
        provider = MmapProvider(spec["path"])
        map_seconds = time.perf_counter() - start
        # The provider's row-gather is the worker's only read of the pairs
        # file: it faults in exactly this partition's rows of the selection.
        rows, block, read_seconds = _provider_partition(
            rows, window_indices, provider
        )
        return rows, block, map_seconds + read_seconds
    if mode == "shm":
        block_shm = _attach_shared_block(spec["shm_name"])
        try:
            covs = np.ndarray(
                spec["covs_shape"], dtype=np.float64, buffer=block_shm.buf
            )
            result = combine_rows(
                spec["means"], spec["stds"], covs[:, rows, :], spec["sizes"], rows
            )
        finally:
            del covs
            block_shm.close()
        return rows, result, 0.0
    raise DataError(f"unknown query partition mode {mode!r}")


def _query_partition_task(args):
    rows, window_indices = args
    assert _WORKER_QUERY_SPEC is not None
    return _run_query_partition(rows, window_indices, _WORKER_QUERY_SPEC)


def _fill_shared_covs(
    provider, window_indices: np.ndarray, n_series: int
) -> tuple[shared_memory.SharedMemory, tuple[int, int, int]]:
    """Stream a provider's selected covariances into a shared-memory block.

    One chunked pass over the provider — the selection tensor is written
    directly into the OS shared segment, never materialized as a
    :class:`Sketch` and never pickled to the workers.
    """
    k = int(window_indices.size)
    shape = (k, n_series, n_series)
    nbytes = max(8 * k * n_series * n_series, 1)
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        covs = np.ndarray(shape, dtype=np.float64, buffer=block.buf)
        offset = 0
        for chunk in provider.iter_cov_chunks(window_indices, SHM_FILL_CHUNK_WINDOWS):
            covs[offset : offset + chunk.shape[0]] = chunk
            offset += chunk.shape[0]
        del covs
    except BaseException:
        block.close()
        block.unlink()
        raise
    return block, shape


def parallel_query(
    window_indices: np.ndarray,
    n_workers: int,
    sketch: Sketch | None = None,
    store_path: str | Path | None = None,
    n_series: int | None = None,
    provider=None,
) -> ParallelQueryResult:
    """All-pairs Lemma 1 query with partitioned workers, over any backend.

    Args:
        window_indices: Basic windows forming the (aligned) query window.
        n_workers: Computation workers.
        sketch: In-memory sketch (fans out through shared memory).
        store_path: SQLite store path (disk-based mode; workers read their
            own sketches, as in §3.4).
        n_series: Required in disk-based mode without a sketch.
        provider: Any :class:`~repro.engine.providers.SketchProvider`
            backend, mutually exclusive with ``sketch``/``store_path``.
            Mmap-backed providers hand workers the store directory (each
            worker re-maps, zero-copy); every other backend streams the
            selection's covariances into a ``multiprocessing`` shared-memory
            block that workers slice — nothing is materialized into a
            :class:`Sketch` or pickled before fan-out.

    Returns:
        A :class:`ParallelQueryResult` with the full matrix and read/calc
        split.
    """
    window_indices = np.asarray(window_indices, dtype=np.int64)
    if provider is not None and (sketch is not None or store_path is not None):
        raise DataError("give either a provider or sketch/store_path, not both")
    if sketch is not None and store_path is not None:
        # Ambiguous: the two sources could hold different sketches and the
        # answering backend must not depend on the worker count.
        raise DataError("give either sketch or store_path, not both")
    if sketch is not None:
        from repro.engine.providers import InMemoryProvider

        provider = InMemoryProvider(sketch)
    if provider is None and store_path is None:
        raise DataError("either sketch, store_path, or provider must be provided")
    if n_workers <= 0:
        raise DataError("n_workers must be positive")

    spec: dict | None = None
    task_indices = window_indices
    if store_path is not None:
        if n_series is None:
            with SqliteSketchStore(store_path) as store:
                n_series = len(store.read_metadata().names)
        spec = {"mode": "sqlite", "path": str(store_path)}
    else:
        from repro.engine.providers import MmapProvider, PrefixProvider

        if isinstance(provider, PrefixProvider):
            # Workers compute row blocks from window records; the wrapper's
            # prefix tables are irrelevant to them, and unwrapping restores
            # the wrapped backend's mmap re-map handoff instead of the
            # generic shared-memory ship.
            provider = provider.base
        n_series = provider.n_series
        if isinstance(provider, MmapProvider):
            spec = {"mode": "mmap", "path": provider.path}

    partitions = partition_rows(n_series, n_workers)
    serial = n_workers == 1 or len(partitions) == 1

    shm_block: shared_memory.SharedMemory | None = None
    try:
        if spec is None and not serial:
            # Shared-memory fan-out: one streaming pass into the segment.
            means, stds, sizes = provider.window_stats(window_indices)
            shm_block, covs_shape = _fill_shared_covs(
                provider, window_indices, n_series
            )
            spec = {
                "mode": "shm",
                "shm_name": shm_block.name,
                "covs_shape": covs_shape,
                "means": np.ascontiguousarray(means),
                "stds": np.ascontiguousarray(stds),
                "sizes": np.asarray(sizes, dtype=np.float64),
            }
            task_indices = np.arange(window_indices.size, dtype=np.int64)

        start = time.perf_counter()
        if serial:
            if provider is not None:
                # In-process, use the provider in hand (its open maps)
                # rather than re-opening the store through the spec.
                results = [
                    _provider_partition(rows, task_indices, provider)
                    for rows in partitions
                ]
            else:
                results = [
                    _run_query_partition(rows, task_indices, spec)
                    for rows in partitions
                ]
        else:
            ctx = get_context("fork")
            tasks = [(rows, task_indices) for rows in partitions]
            with ctx.Pool(
                processes=len(partitions),
                initializer=_init_query_worker,
                initargs=(spec,),
            ) as pool:
                results = pool.map(_query_partition_task, tasks)
        wall = time.perf_counter() - start
    finally:
        if shm_block is not None:
            shm_block.close()
            shm_block.unlink()

    matrix = np.empty((n_series, n_series))
    worker_reads: list[float] = []
    for rows, block, read_time in results:
        matrix[rows] = block
        worker_reads.append(read_time)
    matrix = 0.5 * (matrix + matrix.T)
    np.fill_diagonal(matrix, 1.0)
    # The read phase on the critical path is the slowest worker's read:
    # workers read concurrently, so wall time is bounded below by the max,
    # and wall - max is a non-negative calculation share by construction
    # (averaging instead could exceed wall under read skew and clamp to 0).
    max_read = max(worker_reads, default=0.0)
    return ParallelQueryResult(
        matrix=matrix,
        read_seconds=max_read,
        calc_seconds=max(wall - max_read, 0.0),
        n_partitions=len(partitions),
        worker_read_seconds=worker_reads,
    )
