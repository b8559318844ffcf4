"""Sketch providers: pluggable backends feeding the Lemma 1 kernels.

The paper's point (§3.4) is that the *sketch* — not raw data — is the
query-time substrate, and that it can live anywhere: in memory next to the
engine, in memory-mapped files read at query time, or nowhere at all (computed
block-by-block from raw data under a memory bound). A
:class:`SketchProvider` abstracts that choice behind one narrow interface —
per-window series statistics plus per-window covariance rows/chunks — so
every engine (:class:`~repro.core.exact.TsubasaHistorical`, the pruning
path, the parallel executor, real-time warm starts) runs unchanged against
any backend.

Three providers are shipped, plus one wrapper. Every one is read-only after
construction — a query never mutates provider state — so one provider can
be shared by any number of concurrent readers:

* :class:`InMemoryProvider` — wraps a fully materialized
  :class:`~repro.core.sketch.Sketch` (the paper's in-memory configuration).
  A SQLite store serves through it after
  :func:`~repro.storage.serialize.load_sketch`; SQLite is the interchange
  and archival format, not a serving backend.
* :class:`ChunkedBuildProvider` — no precomputed sketch at all: window
  statistics are cheap and kept whole, per-window covariance matrices are
  built on demand in row blocks (reusing the parallel executor's
  :func:`~repro.parallel.executor.sketch_partition`) under a configurable
  memory bound. Useful for large ``n`` where the full tensor would not fit,
  and for streaming a sketch into a store without ever materializing it
  (:meth:`ChunkedBuildProvider.save_to`).
* :class:`MmapProvider` — zero-copy reads from an
  :class:`~repro.storage.mmap_store.MmapStore`: window statistics and
  covariance chunks are *slices of read-only memory-mapped arrays*, with no
  per-record deserialization and no copies for contiguous window ranges
  (the common aligned-query case). Cold queries skip the database entirely
  and read straight through the OS page cache. Stores carrying persisted
  ``prefix_*`` tables additionally answer contiguous ranges from two
  mapped prefix rows (:meth:`SketchProvider.prefix_matrix`), independent of
  the range length; a non-aligned window's raw head/tail points, when raw
  data is present, are centered by the tables' offsets and folded in
  directly.
* :class:`PrefixProvider` — a wrapper over *any* of the above: contiguous
  selections, with or without head/tail points, are answered in
  ``O(n^2)`` from prefix-aggregate tables (:mod:`repro.core.prefix`) —
  built at construction from one streaming pass over the wrapped backend,
  or adopted zero-copy from an :class:`~repro.storage.mmap_store.MmapStore`'s
  persisted tables — while non-contiguous selections delegate to the
  wrapped provider unchanged.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.packing import pack_symmetric, packed_index, unpack_symmetric
from repro.core.prefix import (
    PrefixAggregates,
    combine_matrix_prefix,
    combine_row_prefix,
)
from repro.core.segmentation import BasicWindowPlan
from repro.core.sketch import Sketch
from repro.core.stats import series_window_stats
from repro.exceptions import DataError, SketchError, StorageError
from repro.storage.base import SketchStore, StoreMetadata, WindowRecord

if TYPE_CHECKING:
    from repro.core.exact import Fragment
    from repro.storage.mmap_store import MmapStore

__all__ = [
    "SketchProvider",
    "InMemoryProvider",
    "ChunkedBuildProvider",
    "MmapProvider",
    "PrefixProvider",
]

_NO_RAW_MESSAGE = (
    "query window is not aligned to basic windows and no raw data "
    "is available to sketch the partial fragments"
)


class SketchProvider(abc.ABC):
    """Backend-agnostic access to a sketched series collection.

    The interface is exactly what the Lemma 1 kernels consume: per-window
    per-series statistics (small, ``O(n * ns)``) delivered whole, and the
    per-window covariance matrices (large, ``O(ns * n^2)``) delivered as
    row blocks or window chunks so backends can bound memory. Reads must be
    safe for concurrent callers: a provider holds no state that a query
    mutates (tsulint TSU009 keeps ``self`` assignments in ``__init__``).
    """

    #: Short backend identifier used in query provenance and CLI output.
    backend_name = "custom"

    # -- collection metadata -------------------------------------------------

    @property
    @abc.abstractmethod
    def names(self) -> list[str]:
        """Series identifiers, in matrix order."""

    @property
    @abc.abstractmethod
    def window_size(self) -> int:
        """Basic window size ``B``."""

    @property
    @abc.abstractmethod
    def sizes(self) -> np.ndarray:
        """Per-window sizes ``B_j``, shape ``(n_windows,)``."""

    @property
    def n_series(self) -> int:
        """Number of sketched series."""
        return len(self.names)

    @property
    def n_windows(self) -> int:
        """Number of sketched basic windows."""
        return int(self.sizes.size)

    @property
    def length(self) -> int:
        """Total number of sketched data points per series."""
        return int(self.sizes.sum())

    @property
    def plan(self) -> BasicWindowPlan:
        """The basic-window segmentation plan implied by the metadata."""
        return BasicWindowPlan(length=self.length, window_size=self.window_size)

    @property
    def has_raw_data(self) -> bool:
        """Whether :meth:`fragment` can sketch raw head/tail fragments."""
        return False

    # -- statistics access ---------------------------------------------------

    @abc.abstractmethod
    def window_stats(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-series statistics of the selected windows.

        Args:
            indices: Basic window indices, in query order.

        Returns:
            ``(means, stds, sizes)`` of shapes ``(n, k)``, ``(n, k)``,
            ``(k,)`` for ``k = len(indices)``.
        """

    @abc.abstractmethod
    def iter_cov_chunks(
        self, indices: np.ndarray, chunk_windows: int
    ) -> Iterator[np.ndarray]:
        """Covariance matrices of the selected windows, chunked.

        Args:
            indices: Basic window indices, in query order.
            chunk_windows: Maximum windows per yielded chunk.

        Yields:
            Arrays of shape ``(k', n, n)`` concatenating, in ``indices``
            order, to the selection's full covariance tensor.
        """

    def iter_window_chunks(
        self, indices: np.ndarray, chunk_windows: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Statistics *and* covariances of the selected windows, chunked.

        The single-pass feed for
        :func:`~repro.core.lemma1.combine_matrix_chunked`: backends whose
        stored layout already is the chunk layout (mmap) override this to
        stream it zero-copy. Covariances come as packed upper-triangle rows
        (:func:`~repro.core.packing.pack_symmetric`), C-contiguous, for
        every backend — the one chunk layout the kernel reduces on.

        Args:
            indices: Basic window indices, in query order.
            chunk_windows: Maximum windows per yielded chunk.

        Yields:
            ``(means, stds, sizes, covs)`` tuples of shapes ``(n, k')``,
            ``(n, k')``, ``(k',)``, ``(k', P)`` with ``P = n (n + 1) / 2``,
            concatenating in ``indices`` order to the full selection.
        """
        indices = self._check_indices(indices)
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        for start in range(0, indices.size, chunk_windows):
            chunk_idx = indices[start : start + chunk_windows]
            means, stds, sizes = self.window_stats(chunk_idx)
            yield means, stds, sizes, pack_symmetric(self.covs(chunk_idx))

    def covs(self, indices: np.ndarray) -> np.ndarray:
        """Full ``(k, n, n)`` covariance tensor of the selected windows."""
        chunks = list(self.iter_cov_chunks(indices, max(len(indices), 1)))
        if not chunks:
            return np.empty((0, self.n_series, self.n_series))
        return np.concatenate(chunks, axis=0)

    def cov_rows(self, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row block of the selected windows' covariance matrices.

        Args:
            indices: Basic window indices, in query order.
            rows: Row (series) indices of the block.

        Returns:
            Array of shape ``(k, len(rows), n)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self.covs(indices)[:, rows, :]

    def fragment(self, start: int, stop: int) -> Fragment:
        """Sketch a raw ``[start, stop)`` fragment (arbitrary-window support).

        The direct kernel's input; the prefix kernels take the raw points
        instead (:meth:`fragment_points`). Backends without raw data raise
        :class:`SketchError` — the paper's sketch-only deployment supports
        aligned queries only.
        """
        raise SketchError(_NO_RAW_MESSAGE)

    def fragment_points(self, spans: Sequence[tuple[int, int]]) -> np.ndarray:
        """Raw points of the ``[start, stop)`` ``spans``, side by side.

        The prefix kernels' fragment input: one ``(n, k)`` block holding
        every span's columns in order (:func:`~repro.core.exact.fragment_points`).
        Backends without raw data raise :class:`SketchError`, like
        :meth:`fragment`.
        """
        raise SketchError(_NO_RAW_MESSAGE)

    # -- prefix aggregates ---------------------------------------------------

    def prefix_range(self, selection) -> tuple[int, int] | None:
        """Interior window bounds if ``selection`` is answerable from prefix tables.

        Backends holding prefix-aggregate tables (:mod:`repro.core.prefix`)
        override this to return the half-open basic-window bounds ``(lo,
        hi)`` of a selection's contiguous, non-empty run of full windows
        that their committed tables cover, whether or not the selection
        also has raw head/tail fragments; :meth:`prefix_matrix` then serves
        it in ``O(n^2)``. ``None`` (the default, and for selections with no
        full window, non-contiguous ones, or ones past the committed rows)
        routes the query down the direct streaming path.

        Args:
            selection: A :class:`~repro.core.segmentation.WindowSelection`.
        """
        return None

    def prefix_matrix(
        self, lo: int, hi: int, points: np.ndarray | None = None
    ) -> np.ndarray:
        """All-pairs correlation over windows ``[lo, hi)`` from prefix tables.

        ``points`` are a non-aligned window's raw head/tail points as one
        ``(n, k)`` block (:meth:`fragment_points`), centered by the tables'
        offsets and folded in directly
        (:func:`~repro.core.prefix.combine_matrix_prefix`). Only meaningful
        for bounds previously returned by :meth:`prefix_range`; backends
        without prefix tables raise.
        """
        raise SketchError(
            f"the {self.backend_name!r} backend holds no prefix-aggregate "
            "tables"
        )

    def prefix_row(
        self, lo: int, hi: int, row: int, points: np.ndarray | None = None
    ) -> np.ndarray:
        """One correlation row over windows ``[lo, hi)`` from prefix tables.

        The ``O(n)`` anchor-row primitive Algorithm 5's pruning path uses
        (:func:`~repro.core.prefix.combine_row_prefix`): only row ``row`` of
        the cross table is touched, so an anchor row costs ``O(n)`` from the
        tables instead of re-streaming the whole selection (plus ``O(n k)``
        for ``k`` fragment points). ``points`` are as for
        :meth:`prefix_matrix`. Only meaningful for bounds
        previously returned by :meth:`prefix_range`; backends without prefix
        tables raise.
        """
        raise SketchError(
            f"the {self.backend_name!r} backend holds no prefix-aggregate "
            "tables"
        )

    def materialize(self, indices: np.ndarray | None = None) -> Sketch:
        """Assemble a full in-memory :class:`Sketch` of the selection.

        This loads the selection's complete covariance tensor (in a single
        pass over the backend's records); use it for interop with
        sketch-consuming APIs (sweeps, Lemma 2 seeding), not on query hot
        paths.
        """
        if indices is None:
            indices = np.arange(self.n_windows, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = self.n_series
        if indices.size == 0:
            means = np.empty((n, 0))
            stds = np.empty((n, 0))
            sizes = np.empty(0)
            covs = np.empty((0, n, n))
        else:
            parts = list(self.iter_window_chunks(indices, indices.size))
            means = np.concatenate([p[0] for p in parts], axis=1)
            stds = np.concatenate([p[1] for p in parts], axis=1)
            sizes = np.concatenate([p[2] for p in parts])
            covs = unpack_symmetric(np.concatenate([p[3] for p in parts]), n)
        return Sketch(
            names=list(self.names),
            window_size=self.window_size,
            means=means,
            stds=stds,
            covs=covs,
            sizes=sizes.astype(np.int64),
        )

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_windows):
            raise SketchError(
                f"window indices out of range [0, {self.n_windows}): {indices}"
            )
        return indices


def _raw_fragment(data: np.ndarray | None, start: int, stop: int) -> Fragment:
    from repro.core.exact import fragment_stats

    if data is None:
        raise SketchError(_NO_RAW_MESSAGE)
    return fragment_stats(data, start, stop)


def _raw_points(
    data: np.ndarray | None, spans: Sequence[tuple[int, int]]
) -> np.ndarray:
    from repro.core.exact import fragment_points

    if data is None:
        raise SketchError(_NO_RAW_MESSAGE)
    return fragment_points(data, spans)


class InMemoryProvider(SketchProvider):
    """Provider over a fully materialized :class:`Sketch`.

    Args:
        sketch: The pre-computed sketch.
        data: Optional raw ``(n, L)`` matrix enabling arbitrary
            (non-aligned) query windows via head/tail fragments.
    """

    backend_name = "memory"

    def __init__(self, sketch: Sketch, data: np.ndarray | None = None) -> None:
        self._sketch = sketch
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (sketch.n_series, sketch.length):
                raise DataError(
                    f"raw data shape {data.shape} does not match the sketch's "
                    f"({sketch.n_series}, {sketch.length})"
                )
        self._data = data

    @property
    def sketch(self) -> Sketch:
        """The wrapped sketch."""
        return self._sketch

    @property
    def names(self) -> list[str]:
        return self._sketch.names

    @property
    def window_size(self) -> int:
        return self._sketch.window_size

    @property
    def sizes(self) -> np.ndarray:
        return self._sketch.sizes

    @property
    def has_raw_data(self) -> bool:
        return self._data is not None

    def window_stats(self, indices):
        idx = self._check_indices(indices)
        return (
            self._sketch.means[:, idx],
            self._sketch.stds[:, idx],
            self._sketch.sizes[idx].astype(np.float64),
        )

    def iter_cov_chunks(self, indices, chunk_windows):
        idx = self._check_indices(indices)
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        for start in range(0, idx.size, chunk_windows):
            yield self._sketch.covs[idx[start : start + chunk_windows]]

    def covs(self, indices):
        return self._sketch.covs[self._check_indices(indices)]

    def cov_rows(self, indices, rows):
        idx = self._check_indices(indices)
        rows = np.asarray(rows, dtype=np.int64)
        return self._sketch.covs[idx][:, rows, :]

    def fragment(self, start, stop):
        return _raw_fragment(self._data, start, stop)

    def fragment_points(self, spans):
        return _raw_points(self._data, spans)

    def materialize(self, indices=None):
        if indices is None:
            return self._sketch
        return self._sketch.select(np.asarray(indices, dtype=np.int64))


def _contiguous_slice(indices: np.ndarray) -> slice | None:
    """The ``slice`` equivalent of ``indices`` if they are an ascending run.

    Aligned query windows always select a contiguous ascending range of
    basic windows, so the memmap-backed provider can answer them with pure
    views; ``None`` means the selection genuinely needs fancy indexing.
    """
    if indices.size == 0:
        return slice(0, 0)
    first = int(indices[0])
    if indices.size == 1:
        return slice(first, first + 1)
    steps = np.diff(indices)
    if np.all(steps == 1):
        return slice(first, first + int(indices.size))
    return None


def _prefix_bounds(selection) -> tuple[int, int] | None:
    """Half-open bounds of a selection's full windows if contiguous, else None.

    The shape every prefix-aggregate path requires: at least one basic
    window and an ascending run of indices. An aligned selection carries its
    run (``O(1)``); only a hand-built index list is scanned. Raw head/tail
    fragments do not matter here — the prefix kernels fold their points in.
    """
    run = selection.run
    if run is None:
        sl = _contiguous_slice(np.asarray(selection.full_windows, dtype=np.int64))
        if sl is None:
            return None
        run = (sl.start, sl.stop)
    lo, hi = int(run[0]), int(run[1])
    return (lo, hi) if hi > lo else None


class MmapProvider(SketchProvider):
    """Zero-copy provider over an :class:`~repro.storage.mmap_store.MmapStore`.

    Window statistics and packed covariance chunks
    (:meth:`iter_window_chunks`) come back as slices of the store's read-only
    memory-mapped arrays: contiguous window selections (every aligned query)
    involve **no per-record deserialization and no copies** — the Lemma 1
    kernel reduces the mapped packed rows directly. Non-contiguous selections
    fall back to (vectorized) fancy indexing. :meth:`covs` and
    :meth:`cov_rows` (row blocks, Lemma 2 seeding) unpack the rows they
    return to ``n x n``.

    Stores whose directory carries persisted ``prefix_*`` tables (written by
    :meth:`~repro.storage.mmap_store.MmapStore.build_prefix`) additionally
    serve contiguous selections straight from two mapped prefix rows —
    ``O(n^2)`` per query regardless of how many windows the range spans, and
    still zero-copy. A non-aligned window's head/tail points are read from
    ``data``, centered by the tables' offsets and folded in directly
    (``O(n^2 k)`` for ``k`` points, one symmetric matmul); the streaming
    path remains for ``prefix=False``, selections with no full basic window,
    and interiors past stale prefix rows (an append since the last
    ``build_prefix``).

    Args:
        source: An open :class:`~repro.storage.mmap_store.MmapStore`, or a
            store directory path (opened read-only — the form parallel query
            workers use to re-map a shared store in their own process).
        data: Optional raw ``(n, L)`` matrix enabling arbitrary
            (non-aligned) query windows via head/tail fragments.
        prefix: Serve contiguous selections (with or without fragments) from
            the store's persisted prefix tables when present (default).
            ``False`` forces every query down the direct streaming path
            (benchmarks and accuracy cross-checks).
    """

    backend_name = "mmap"

    def __init__(
        self,
        source: "MmapStore | str | Path",
        data: np.ndarray | None = None,
        prefix: bool = True,
    ) -> None:
        from repro.storage.mmap_store import MmapStore

        if isinstance(source, MmapStore):
            store = source
        else:
            store = MmapStore(source, mode="r")
        metadata = store.read_metadata()
        if metadata.kind != "exact":
            raise StorageError(
                f"store holds a {metadata.kind!r} sketch, expected 'exact'"
            )
        means, stds, pairs, sizes = store.arrays()
        if sizes.size == 0 or not np.all(sizes > 0):
            missing = np.nonzero(sizes == 0)[0][:8].tolist()
            raise StorageError(
                f"mmap store {store.path} is incomplete: window records "
                f"{missing} are missing"
            )
        self._store = store
        self._metadata = metadata
        self._means = means
        self._stds = stds
        self._pairs = pairs
        self._sizes = sizes
        self._prefix = store.read_prefix() if prefix else None
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            expected = (len(metadata.names), int(sizes.sum()))
            if data.shape != expected:
                raise DataError(
                    f"raw data shape {data.shape} does not match the store's "
                    f"{expected}"
                )
        self._data = data

    @property
    def store(self) -> "MmapStore":
        """The underlying mmap store."""
        return self._store

    @property
    def path(self) -> str:
        """Store directory path — the parallel executor's worker handoff."""
        return self._store.path

    def read_generation(self) -> int:
        """The store's on-disk commit counter (seqlock sample).

        Passed through for readiness probes (``/healthz?deep=1`` reports
        it as ``store_generation``) and for torn-read detection: an odd
        value means a writer is mid-commit against the mapped files.
        """
        return self._store.read_generation()

    @property
    def names(self) -> list[str]:
        return list(self._metadata.names)

    @property
    def window_size(self) -> int:
        return self._metadata.window_size

    @property
    def sizes(self) -> np.ndarray:
        return np.asarray(self._sizes)

    @property
    def has_raw_data(self) -> bool:
        return self._data is not None

    def persisted_prefix(self):
        """The store's mapped prefix tables, or ``None`` (wrapper adoption)."""
        return self._prefix

    def prefix_range(self, selection):
        if self._prefix is None:
            return None
        bounds = _prefix_bounds(selection)
        if bounds is None or bounds[1] > self._prefix.covered:
            # Committed prefix rows may trail the store after an append
            # (until the next build_prefix); such ranges go direct.
            return None
        return bounds

    def prefix_matrix(self, lo, hi, points=None):
        if self._prefix is None:
            return super().prefix_matrix(lo, hi, points)
        return combine_matrix_prefix(self._prefix, lo, hi, points)

    def prefix_row(self, lo, hi, row, points=None):
        if self._prefix is None:
            return super().prefix_row(lo, hi, row, points)
        return combine_row_prefix(self._prefix, lo, hi, row, points)

    def window_stats(self, indices):
        idx = self._check_indices(indices)
        sl = _contiguous_slice(idx)
        if sl is not None:
            # Transposed slices of the (nw, n) maps are still views.
            means, stds, sizes = self._means[sl].T, self._stds[sl].T, self._sizes[sl]
        else:
            means, stds, sizes = self._means[idx].T, self._stds[idx].T, self._sizes[idx]
        return means, stds, sizes.astype(np.float64)

    def _packed_covs(self, indices: np.ndarray) -> np.ndarray:
        """Packed ``(k, P)`` pair rows: a mapped view for contiguous runs."""
        idx = self._check_indices(indices)
        sl = _contiguous_slice(idx)
        if sl is not None:
            return self._pairs[sl]
        return self._pairs[idx]

    def iter_window_chunks(self, indices, chunk_windows):
        # The stored packed rows already are the chunk layout: contiguous
        # runs stream to the kernel as zero-copy views of the mapping.
        idx = self._check_indices(indices)
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        for start in range(0, idx.size, chunk_windows):
            chunk_idx = idx[start : start + chunk_windows]
            means, stds, sizes = self.window_stats(chunk_idx)
            yield means, stds, sizes, self._packed_covs(chunk_idx)

    def covs(self, indices):
        return unpack_symmetric(self._packed_covs(indices), self.n_series)

    def iter_cov_chunks(self, indices, chunk_windows):
        idx = self._check_indices(indices)
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        for start in range(0, idx.size, chunk_windows):
            yield self.covs(idx[start : start + chunk_windows])

    def cov_rows(self, indices, rows):
        rows = np.asarray(rows, dtype=np.int64)
        # Row selection gathers through the packed index map, reading only
        # the requested rows' pairs — a partition's worker never unpacks
        # the rest.
        return self._packed_covs(indices)[:, packed_index(self.n_series)[2][rows]]

    def fragment(self, start, stop):
        return _raw_fragment(self._data, start, stop)

    def fragment_points(self, spans):
        return _raw_points(self._data, spans)


class ChunkedBuildProvider(SketchProvider):
    """Memory-bounded on-demand sketching of raw data (no stored sketch).

    Per-series window statistics (``O(n * ns)``) are computed once up front;
    per-window covariance matrices (``O(n^2)`` each) are built only when a
    query asks for them, in row blocks of at most ``chunk_rows`` series via
    the parallel executor's :func:`~repro.parallel.executor.sketch_partition`
    primitive. Nothing is kept between calls: a window is rebuilt each time
    a query needs it. Peak extra memory per window is ``O(chunk_rows * n)``
    beyond the ``(n, n)`` result.

    Args:
        data: ``(n, L)`` matrix of synchronized series.
        window_size: Basic window size ``B``.
        names: Optional series identifiers.
        chunk_rows: Row-block height for covariance construction.
    """

    backend_name = "chunked"

    def __init__(
        self,
        data: np.ndarray,
        window_size: int,
        names: list[str] | None = None,
        chunk_rows: int = 256,
    ) -> None:
        matrix = np.asarray(data, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError(f"expected a 2-D series matrix, got shape {matrix.shape}")
        if chunk_rows <= 0:
            raise DataError("chunk_rows must be positive")
        self._data = matrix
        self._plan = BasicWindowPlan(length=matrix.shape[1], window_size=window_size)
        self._bounds = self._plan.boundaries
        means, stds, sizes = series_window_stats(matrix, self._bounds)
        self._means = means
        self._stds = stds
        self._sizes = sizes
        self._names = (
            list(names)
            if names is not None
            else [f"s{i:04d}" for i in range(matrix.shape[0])]
        )
        if len(self._names) != matrix.shape[0]:
            raise DataError(
                f"{len(self._names)} names for {matrix.shape[0]} series"
            )
        self._window_size = window_size
        self._chunk_rows = chunk_rows

    @property
    def names(self) -> list[str]:
        return self._names

    @property
    def window_size(self) -> int:
        return self._window_size

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def has_raw_data(self) -> bool:
        return True

    def _window_cov(self, index: int) -> np.ndarray:
        from repro.parallel.executor import sketch_partition

        start, stop = int(self._bounds[index]), int(self._bounds[index + 1])
        block_data = self._data[:, start:stop]
        bounds = np.array([0, stop - start], dtype=np.int64)
        n = self._data.shape[0]
        cov = np.empty((n, n))
        for row_start in range(0, n, self._chunk_rows):
            rows = np.arange(row_start, min(row_start + self._chunk_rows, n))
            _, _, _, blocks = sketch_partition(rows, block_data, bounds)
            cov[rows] = blocks[0]
        return 0.5 * (cov + cov.T)

    def window_stats(self, indices):
        idx = self._check_indices(indices)
        return (
            self._means[:, idx],
            self._stds[:, idx],
            self._sizes[idx].astype(np.float64),
        )

    def iter_cov_chunks(self, indices, chunk_windows):
        idx = self._check_indices(indices)
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        n = self.n_series
        for start in range(0, idx.size, chunk_windows):
            chunk_idx = idx[start : start + chunk_windows]
            chunk = np.empty((chunk_idx.size, n, n))
            for k, j in enumerate(chunk_idx):
                chunk[k] = self._window_cov(int(j))
            yield chunk

    def cov_rows(self, indices, rows):
        idx = self._check_indices(indices)
        rows = np.asarray(rows, dtype=np.int64)
        block = np.empty((idx.size, rows.size, self.n_series))
        for k, j in enumerate(idx):
            block[k] = self._window_cov(int(j))[rows, :]
        return block

    def fragment(self, start, stop):
        return _raw_fragment(self._data, start, stop)

    def fragment_points(self, spans):
        return _raw_points(self._data, spans)

    def save_to(self, store: SketchStore, batch_size: int = 16) -> None:
        """Stream the full sketch into a store, one window batch at a time.

        Never materializes the ``(ns, n, n)`` tensor: windows are built,
        written, and released in batches of ``batch_size``.
        """
        if batch_size <= 0:
            raise StorageError("batch_size must be positive")
        store.write_metadata(
            StoreMetadata(
                names=tuple(self._names),
                window_size=self._window_size,
                kind="exact",
            )
        )
        batch: list[WindowRecord] = []
        for j in range(self.n_windows):
            batch.append(
                WindowRecord(
                    index=j,
                    means=self._means[:, j].copy(),
                    stds=self._stds[:, j].copy(),
                    pairs=self._window_cov(j),
                    size=int(self._sizes[j]),
                )
            )
            if len(batch) >= batch_size:
                store.write_windows(batch)
                batch = []
        if batch:
            store.write_windows(batch)


def _build_aggregates(base: SketchProvider, chunk_windows: int):
    """Prefix tables over every window of ``base``, in one streaming pass."""
    n_windows = base.n_windows
    indices = np.arange(n_windows, dtype=np.int64)
    means, _, sizes = base.window_stats(indices)
    means = np.ascontiguousarray(means, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    offsets = means @ sizes / float(sizes.sum())
    aggregates = PrefixAggregates.allocate(offsets, n_windows)
    for means, stds, sizes, covs in base.iter_window_chunks(
        indices, chunk_windows
    ):
        aggregates.extend(means, stds, covs, sizes)
    return aggregates


class PrefixProvider(SketchProvider):
    """Prefix-aggregate acceleration over any :class:`SketchProvider`.

    Contiguous window selections — every aligned query, and every
    non-aligned one with at least one full basic window — are answered in
    ``O(n^2)`` from cumulative Lemma 1 aggregates
    (:mod:`repro.core.prefix`): two table rows and a subtraction, regardless
    of how many windows the range spans, plus the raw head/tail points (read
    from the wrapped provider) centered by the tables' offsets and folded in
    directly. Everything else (genuinely non-contiguous selections, row
    blocks, raw fragments) delegates to the wrapped provider unchanged, so
    the wrapper is a drop-in backend for every engine.

    The tables come from one of two places:

    * a wrapped :class:`MmapProvider` whose store carries *persisted*
      ``prefix_*`` arrays covering the whole store — adopted as read-only
      zero-copy views (nothing is built in memory);
    * otherwise an in-memory build at construction: one streaming pass over
      the wrapped backend (each window record read once). In-memory tables
      cost ``O(ns * n^2)`` floats, the same order as an in-memory sketch.

    Either way the tables are complete and immutable once ``__init__``
    returns, so the wrapper is as safe to share as its base.

    Args:
        base: The wrapped sketch backend.
        chunk_windows: Window records folded per streaming build step.
    """

    def __init__(
        self,
        base: SketchProvider,
        chunk_windows: int = 256,
    ) -> None:
        if not isinstance(base, SketchProvider):
            raise DataError(f"expected a SketchProvider, got {type(base)!r}")
        if chunk_windows <= 0:
            raise SketchError("chunk_windows must be positive")
        self._base = base
        aggregates = None
        persisted = getattr(base, "persisted_prefix", None)
        if callable(persisted):
            aggregates = persisted()
        # Adopt persisted tables only when they cover the whole store;
        # partially built tables (append since the last build) are read-only
        # and cannot be extended in place, so build in memory instead of
        # serving a shrunken range.
        if aggregates is None or aggregates.covered < base.n_windows:
            aggregates = _build_aggregates(base, chunk_windows)
        self._aggregates = aggregates

    def __getattr__(self, name: str):
        # Backend-specific surface (store, path, ...) passes through so
        # callers introspect the wrapped provider transparently.
        # Underscored names stay local: they would recurse before __init__
        # binds _base, and protocol probes (__getstate__, ...) must see this
        # object, not the base.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._base, name)

    @property
    def base(self) -> SketchProvider:
        """The wrapped sketch backend."""
        return self._base

    @property
    def aggregates(self):
        """The prefix tables, built or adopted at construction."""
        return self._aggregates

    @property
    def backend_name(self) -> str:  # type: ignore[override]
        # Queries through the wrapper still *read* from the base backend;
        # provenance reports that backend, with path="prefix" marking the
        # combination strategy.
        return self._base.backend_name

    @property
    def names(self) -> list[str]:
        return self._base.names

    @property
    def window_size(self) -> int:
        return self._base.window_size

    @property
    def sizes(self) -> np.ndarray:
        return self._base.sizes

    @property
    def has_raw_data(self) -> bool:
        return self._base.has_raw_data

    def window_stats(self, indices):
        return self._base.window_stats(indices)

    def iter_cov_chunks(self, indices, chunk_windows):
        return self._base.iter_cov_chunks(indices, chunk_windows)

    def iter_window_chunks(self, indices, chunk_windows):
        return self._base.iter_window_chunks(indices, chunk_windows)

    def covs(self, indices):
        return self._base.covs(indices)

    def cov_rows(self, indices, rows):
        return self._base.cov_rows(indices, rows)

    def fragment(self, start, stop):
        return self._base.fragment(start, stop)

    def fragment_points(self, spans):
        return self._base.fragment_points(spans)

    def materialize(self, indices=None):
        return self._base.materialize(indices)

    def prefix_range(self, selection):
        bounds = _prefix_bounds(selection)
        if bounds is None or bounds[1] > self.n_windows:
            return None
        return bounds

    def prefix_matrix(self, lo, hi, points=None):
        if not 0 <= lo < hi <= self.n_windows:
            raise SketchError(
                f"prefix range [{lo}, {hi}) outside the sketched windows "
                f"[0, {self.n_windows})"
            )
        return combine_matrix_prefix(self._aggregates, lo, hi, points)

    def prefix_row(self, lo, hi, row, points=None):
        if not 0 <= lo < hi <= self.n_windows:
            raise SketchError(
                f"prefix range [{lo}, {hi}) outside the sketched windows "
                f"[0, {self.n_windows})"
            )
        return combine_row_prefix(self._aggregates, lo, hi, row, points)
