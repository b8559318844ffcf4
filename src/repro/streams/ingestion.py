"""Stream ingestion: pumping a source into the real-time engine.

:class:`StreamIngestor` is the outer loop of Algorithm 3: it pulls batches
from a source, feeds them to a :class:`~repro.core.realtime.TsubasaRealtime`
engine, and invokes a callback with a fresh network snapshot every time a
basic window completes and the network is updated. It also keeps the edge
history that :mod:`repro.analysis.dynamics` consumes (blinking links,
stability analysis).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.network import ClimateNetwork
from repro.core.realtime import TsubasaRealtime
from repro.exceptions import StreamError

__all__ = ["NetworkSnapshot", "StreamIngestor"]


@dataclass(frozen=True)
class NetworkSnapshot:
    """One network update produced by the ingestion loop.

    Attributes:
        timestamp: Offset of the newest point folded into the network.
        network: The climate network after this update.
        appeared: Edges present now but not in the previous snapshot.
        disappeared: Edges present previously but not now.
    """

    timestamp: int
    network: ClimateNetwork
    appeared: frozenset[tuple[str, str]]
    disappeared: frozenset[tuple[str, str]]


class StreamIngestor:
    """Drive a real-time engine from a batch source (Algorithm 3 outer loop).

    Args:
        engine: The real-time TSUBASA engine to feed.
        theta: Threshold used for network snapshots.
        on_update: Optional callback invoked with each
            :class:`NetworkSnapshot`.
        keep_history: Retain all snapshots in :attr:`history` (disable for
            unbounded runs).
    """

    def __init__(
        self,
        engine: TsubasaRealtime,
        theta: float,
        on_update: Callable[[NetworkSnapshot], None] | None = None,
        keep_history: bool = True,
    ) -> None:
        self._engine = engine
        self._theta = theta
        self._on_update = on_update
        self._keep_history = keep_history
        self.history: list[NetworkSnapshot] = []
        self._previous_edges = engine.network(theta).edge_set()

    @classmethod
    def from_provider(
        cls,
        provider,
        query_windows: int,
        theta: float,
        on_update: Callable[[NetworkSnapshot], None] | None = None,
        keep_history: bool = True,
        coordinates: dict[str, tuple[float, float]] | None = None,
    ) -> "StreamIngestor":
        """Warm-start an ingestion loop from any sketch backend.

        Seeds a :class:`~repro.core.realtime.TsubasaRealtime` engine over the
        provider's trailing ``query_windows`` basic windows (e.g. a
        :class:`~repro.engine.providers.MmapProvider` over the sketches a
        previous process persisted) and wraps it in an ingestor, so a crashed
        or restarted consumer resumes streaming without replaying raw data.

        Args:
            provider: Any :class:`~repro.engine.providers.SketchProvider`
                holding the already-sketched past.
            query_windows: Standing query length in basic windows.
            theta: Threshold used for network snapshots.
            on_update: Optional per-snapshot callback.
            keep_history: Retain all snapshots in :attr:`history`.
            coordinates: Optional node positions attached to networks.

        Returns:
            A ready ingestion loop positioned at the provider's last offset.
        """
        engine = TsubasaRealtime.from_provider(
            provider, query_windows, coordinates=coordinates
        )
        return cls(engine, theta, on_update=on_update, keep_history=keep_history)

    @property
    def engine(self) -> TsubasaRealtime:
        """The wrapped real-time engine."""
        return self._engine

    @property
    def theta(self) -> float:
        """Snapshot threshold."""
        return self._theta

    def _emit(self) -> NetworkSnapshot:
        network = self._engine.network(self._theta)
        edges = network.edge_set()
        snapshot = NetworkSnapshot(
            timestamp=self._engine.now,
            network=network,
            appeared=frozenset(edges - self._previous_edges),
            disappeared=frozenset(self._previous_edges - edges),
        )
        self._previous_edges = edges
        if self._keep_history:
            self.history.append(snapshot)
        if self._on_update is not None:
            self._on_update(snapshot)
        return snapshot

    def push(self, batch: np.ndarray) -> list[NetworkSnapshot]:
        """Ingest one batch; returns a snapshot per completed basic window."""
        slides = self._engine.ingest(batch)
        return [self._emit() for _ in range(slides)]

    def run(
        self, source: Iterable[np.ndarray], max_updates: int | None = None
    ) -> list[NetworkSnapshot]:
        """Drain a source (or stop after ``max_updates`` network updates).

        Args:
            source: Iterable of ``(n, k)`` batches (see
                :mod:`repro.streams.sources`).
            max_updates: Stop after this many completed basic windows;
                ``None`` runs until the source is exhausted (never pass
                ``None`` with an endless source).

        Returns:
            The snapshots produced during this call.
        """
        if max_updates is not None and max_updates <= 0:
            raise StreamError("max_updates must be positive when given")
        produced: list[NetworkSnapshot] = []
        for batch in source:
            snapshots = self.push(batch)
            produced.extend(snapshots)
            if max_updates is not None and len(produced) >= max_updates:
                return produced[:max_updates]
        return produced
