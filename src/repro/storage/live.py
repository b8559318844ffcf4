"""Durable real-time operation: persist sketches as the stream flows.

The paper's architecture (Fig. 3) sketches newly ingested basic windows "on
the fly"; a production deployment also needs those sketches *persisted* so
that (a) a crashed consumer can warm-start from disk and (b) historical
queries over the already-streamed past stay answerable. This module couples
a :class:`~repro.core.realtime.TsubasaRealtime` engine with a
:class:`~repro.storage.base.SketchStore`: every completed basic window is
appended to the store as it is folded into the sliding network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.realtime import TsubasaRealtime

if TYPE_CHECKING:
    from repro.core.matrix import CorrelationMatrix
    from repro.core.network import ClimateNetwork
from repro.core.sketch import build_sketch
from repro.exceptions import StreamError
from repro.storage.base import SketchStore, StoreMetadata, WindowRecord
from repro.storage.serialize import load_sketch, save_sketch

__all__ = ["PersistentRealtime"]


class PersistentRealtime:
    """A real-time engine whose sketches are durably appended to a store.

    Args:
        engine: The wrapped real-time engine.
        store: Open sketch store; receives the initial window's sketch on
            construction and one record per completed basic window after.
    """

    def __init__(self, engine: TsubasaRealtime, store: SketchStore) -> None:
        self._engine = engine
        self._store = store
        self._next_index = self._bootstrap()

    def _bootstrap(self) -> int:
        """Ensure store metadata exists and matches; return the next index."""
        from repro.exceptions import StorageError

        try:
            metadata = self._store.read_metadata()
        except StorageError:
            self._store.write_metadata(
                StoreMetadata(
                    names=tuple(self._engine.names),
                    window_size=self._engine.window_size,
                    kind="exact",
                )
            )
        else:
            if list(metadata.names) != list(self._engine.names):
                raise StreamError(
                    "store metadata names do not match the engine's series"
                )
            if metadata.window_size != self._engine.window_size:
                raise StreamError(
                    f"store window size {metadata.window_size} != engine's "
                    f"{self._engine.window_size}"
                )
        return self._store.window_count()

    @property
    def engine(self) -> TsubasaRealtime:
        """The wrapped real-time engine."""
        return self._engine

    @property
    def windows_persisted(self) -> int:
        """Number of window records currently in the store."""
        return self._store.window_count()

    @classmethod
    def bootstrap(
        cls,
        initial_data: np.ndarray,
        window_size: int,
        store: SketchStore,
        names: list[str] | None = None,
    ) -> "PersistentRealtime":
        """Create engine + store together, persisting the seed windows.

        Args:
            initial_data: ``(n, m)`` seed matrix (``m`` a multiple of ``B``).
            window_size: Basic window size ``B``.
            store: Open, *empty* sketch store.
            names: Optional series identifiers.

        Returns:
            A ready :class:`PersistentRealtime` with the seed persisted.
        """
        engine = TsubasaRealtime(initial_data, window_size, names=names)
        seed = build_sketch(initial_data, window_size, names=names)
        save_sketch(store, seed)
        return cls(engine, store)

    @classmethod
    def resume(cls, store: SketchStore, query_windows: int) -> "PersistentRealtime":
        """Warm-start from a store written by a previous process.

        Only the trailing ``query_windows`` records are read back — resuming
        off a store holding a long history stays cheap.

        Args:
            store: Store holding the persisted sketches.
            query_windows: Query window length in basic windows; the engine
                resumes over the store's trailing ``query_windows`` records.

        Returns:
            A :class:`PersistentRealtime` whose network state equals the one
            the previous process would have had (tested).
        """
        from repro.engine.providers import InMemoryProvider

        n_windows = store.window_count()
        if not 0 < query_windows <= n_windows:
            raise StreamError(
                f"store holds {n_windows} windows, cannot resume a "
                f"{query_windows}-window query"
            )
        tail = list(range(n_windows - query_windows, n_windows))
        provider = InMemoryProvider(load_sketch(store, tail))
        engine = TsubasaRealtime.from_provider(provider, query_windows)
        # The tail's clock starts at its first window; the stream's clock
        # counts every persisted point, and every window before the tail is
        # whole (only the last window of a store may be short).
        head = (n_windows - query_windows) * provider.window_size
        engine._timestamp += head  # shared internal, as in _pending_buffer
        return cls(engine, store)

    def ingest(self, values: np.ndarray) -> int:
        """Ingest a batch; every completed window is persisted then slid.

        Returns:
            Number of basic windows completed by this batch.
        """
        batch = np.asarray(values, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[:, None]
        # Reconstruct the raw blocks the engine will fold, so the persisted
        # records match exactly what entered the sliding state.
        pending = np.concatenate([self._pending_buffer(), batch], axis=1)
        window_size = self._engine.window_size
        n_complete = pending.shape[1] // window_size
        records = []
        for j in range(n_complete):
            block = pending[:, j * window_size : (j + 1) * window_size]
            mean = block.mean(axis=1)
            centered = block - mean[:, None]
            records.append(
                WindowRecord(
                    index=self._next_index + j,
                    means=mean,
                    stds=block.std(axis=1),
                    pairs=centered @ centered.T / window_size,
                    size=window_size,
                )
            )
        if records:
            self._store.write_windows(records)
            self._next_index += len(records)
        return self._engine.ingest(batch)

    def _pending_buffer(self) -> np.ndarray:
        return self._engine._buffer  # shared internal, same package

    def network(self, theta: float) -> "ClimateNetwork":
        """Current climate network (delegates to the engine)."""
        return self._engine.network(theta)

    def correlation_matrix(self) -> "CorrelationMatrix":
        """Current correlation matrix (delegates to the engine)."""
        return self._engine.correlation_matrix()
