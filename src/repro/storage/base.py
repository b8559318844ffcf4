"""Sketch store interface (the paper's PostgreSQL role).

The disk-based TSUBASA (§3.4) writes sketches to a database at ingestion time
and reads them back at query time, separating sketch *computation* cost from
database *I/O* cost — Figures 6a/6b break their measurements down exactly
along this line, and Figure 6d measures the store's on-disk size.

:class:`SketchStore` is the minimal contract both deployments share. The
unit of storage is the *window record*: all statistics of one basic window
(per-series means/stds plus the all-pair covariance or DFT-distance matrix),
keyed by window index. Stores also persist the collection metadata (series
names, basic window size, kind of pairwise statistic) so a query-side process
can reconstruct a :class:`~repro.core.sketch.Sketch` without the writer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.packing import is_symmetric
from repro.exceptions import StorageError

__all__ = [
    "StoreMetadata",
    "WindowRecord",
    "SketchStore",
    "require_symmetric_pairs",
]


@dataclass(frozen=True)
class StoreMetadata:
    """Collection-level metadata persisted alongside window records.

    Attributes:
        names: Series identifiers, in matrix order.
        window_size: Basic window size ``B``.
        kind: ``"exact"`` (pair covariances) or ``"approx"`` (DFT distances).
        n_coeffs: DFT coefficients used (approx sketches only; 0 for exact).
    """

    names: tuple[str, ...]
    window_size: int
    kind: str = "exact"
    n_coeffs: int = 0


@dataclass(frozen=True)
class WindowRecord:
    """All statistics of one basic window.

    Attributes:
        index: Basic window index (position in the stream).
        means: Per-series means, shape ``(n,)``.
        stds: Per-series population stds, shape ``(n,)``.
        pairs: Symmetric all-pair matrix, shape ``(n, n)`` — covariances
            for exact sketches, squared DFT coefficient distances for approx
            sketches. Persistent stores keep only its upper triangle and
            refuse a matrix that is not exactly symmetric.
        size: Number of points in the window.
    """

    index: int
    means: np.ndarray
    stds: np.ndarray
    pairs: np.ndarray
    size: int


def require_symmetric_pairs(record: WindowRecord) -> None:
    """Refuse a record whose ``pairs`` matrix is not exactly symmetric.

    Persistent stores keep only the upper triangle, so an asymmetric matrix
    would lose its lower triangle silently; they call this for every record
    of a batch before writing any byte of it.
    """
    if not is_symmetric(record.pairs):
        raise StorageError(
            f"window record {record.index} pairs matrix is not symmetric; "
            "the store keeps only its upper triangle"
        )


class SketchStore(abc.ABC):
    """Abstract persistent store of basic-window sketches."""

    @abc.abstractmethod
    def write_metadata(self, metadata: StoreMetadata) -> None:
        """Persist collection metadata (idempotent overwrite)."""

    @abc.abstractmethod
    def read_metadata(self) -> StoreMetadata:
        """Load collection metadata; raises StorageError when absent."""

    @abc.abstractmethod
    def write_windows(self, records: list[WindowRecord]) -> None:
        """Persist a batch of window records (the §3.4 batched writes)."""

    @abc.abstractmethod
    def read_windows(self, indices: list[int]) -> list[WindowRecord]:
        """Load the given window records, in the requested order."""

    @abc.abstractmethod
    def window_count(self) -> int:
        """Number of window records currently stored."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Current storage footprint in bytes (Fig. 6d's measure)."""

    def close(self) -> None:
        """Release resources; default is a no-op."""

    def __enter__(self) -> "SketchStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
