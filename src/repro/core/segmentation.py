"""Basic-window segmentation and query-window alignment.

The basic-window model (§2.2, §3.1) divides each length-``L`` stream into
``L / B`` equal windows. A query window ``w = (e, l)`` selects the ``l``
points ending at timestamp ``e`` (inclusive). Existing DFT systems restrict
``l`` to multiples of ``B`` and its endpoints to window boundaries; TSUBASA's
Lemma 1 supports *arbitrary* query windows by treating the (possibly partial)
first and last basic windows as extra variable-size windows whose statistics
are computed from raw data at query time.

This module owns all of that index arithmetic:

* :class:`BasicWindowPlan` — an equal-size segmentation of ``[0, length)``.
* :class:`QueryWindow` — the ``(end, length)`` query of the paper, with
  validation and conversion to half-open column ranges.
* :class:`WindowSelection` — the result of aligning a query against a plan:
  which fully-covered basic windows to read from the sketch and which raw
  head/tail fragments to sketch on the fly.

Timestamps are integer offsets from the start of the sketched data: the
paper's series are synchronized at a fixed time resolution, so the mapping
between wall-clock timestamps and offsets is a trivial affine transform that
the data layer performs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SegmentationError

__all__ = ["BasicWindowPlan", "QueryWindow", "WindowSelection"]


@dataclass(frozen=True)
class QueryWindow:
    """The paper's query window ``w = (e, l)``.

    Attributes:
        end: Inclusive end offset ``e`` of the query window.
        length: Number of points ``l`` in the window.
    """

    end: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise SegmentationError(f"query window length must be > 0, got {self.length}")
        if self.end - self.length + 1 < 0:
            raise SegmentationError(
                f"query window (end={self.end}, length={self.length}) starts before 0"
            )

    @property
    def start(self) -> int:
        """Inclusive start offset ``e - l + 1``."""
        return self.end - self.length + 1

    @property
    def stop(self) -> int:
        """Exclusive stop offset (``end + 1``), for numpy slicing."""
        return self.end + 1

    def slice(self) -> slice:
        """Half-open column slice covering the query window."""
        return slice(self.start, self.stop)


class WindowSelection:
    """Alignment of a :class:`QueryWindow` against a :class:`BasicWindowPlan`.

    Every selection :meth:`BasicWindowPlan.align` returns holds its full
    windows as one ascending ``run`` — two integers, whatever the number of
    windows it spans. A selection built by hand may instead list arbitrary
    ``full_windows`` indices, which need not be contiguous.

    Args:
        full_windows: Indices of basic windows fully inside the query window
            (omit when ``run`` is given).
        head: Optional half-open ``(start, stop)`` raw range before the first
            full window (``None`` when aligned).
        tail: Optional half-open ``(start, stop)`` raw range after the last
            full window (``None`` when aligned).
        run: Half-open ``(lo, hi)`` bounds of the full windows when they are
            the ascending run ``lo, ..., hi - 1`` (``lo == hi`` for none).

    Attributes:
        head: As given.
        tail: As given.
        run: As given; ``None`` for a selection built from an index list.
    """

    __slots__ = ("head", "tail", "run", "_indices")

    def __init__(
        self,
        full_windows: np.ndarray | None = None,
        head: tuple[int, int] | None = None,
        tail: tuple[int, int] | None = None,
        *,
        run: tuple[int, int] | None = None,
    ) -> None:
        if (full_windows is None) == (run is None):
            raise SegmentationError("give exactly one of full_windows or run")
        self.head = head
        self.tail = tail
        self.run = run
        self._indices = (
            None if full_windows is None else np.asarray(full_windows, dtype=np.int64)
        )

    @property
    def full_windows(self) -> np.ndarray:
        """Indices of basic windows fully inside the query window."""
        if self._indices is None:
            return np.arange(*self.run, dtype=np.int64)
        return self._indices

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """The present raw fragments, head before tail."""
        return tuple(span for span in (self.head, self.tail) if span is not None)

    @property
    def is_aligned(self) -> bool:
        """True when the query is exactly a union of basic windows."""
        return self.head is None and self.tail is None

    @property
    def n_segments(self) -> int:
        """Total number of variable-size segments Lemma 1 will combine."""
        return int(self.full_windows.size) + len(self.spans)


@dataclass(frozen=True)
class BasicWindowPlan:
    """Equal-size segmentation of ``[0, length)`` into basic windows.

    The plan tolerates a trailing remainder shorter than ``window_size``
    (kept as a final, smaller window) so that real data sets whose length is
    not a multiple of ``B`` can still be sketched end to end; Lemma 1 handles
    the variable final size natively.

    Attributes:
        length: Total number of points segmented.
        window_size: The basic window size ``B``.
    """

    length: int
    window_size: int

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise SegmentationError(f"basic window size must be > 0, got {self.window_size}")
        if self.length < self.window_size:
            raise SegmentationError(
                f"series length {self.length} shorter than one basic window "
                f"({self.window_size})"
            )

    @property
    def n_windows(self) -> int:
        """Number of basic windows (including a short trailing one, if any)."""
        return -(-self.length // self.window_size)

    @property
    def boundaries(self) -> np.ndarray:
        """Window boundary offsets, shape ``(n_windows + 1,)``."""
        edges = np.arange(0, self.length + 1, self.window_size, dtype=np.int64)
        if edges[-1] != self.length:
            edges = np.append(edges, np.int64(self.length))
        return edges

    @property
    def sizes(self) -> np.ndarray:
        """Per-window sizes ``B_j``, shape ``(n_windows,)``."""
        return np.diff(self.boundaries)

    def _edge(self, index: int) -> int:
        """Boundary ``index`` in ``[0, n_windows]``: ``boundaries[index]``."""
        return min(index * self.window_size, self.length)

    def window_range(self, index: int) -> tuple[int, int]:
        """Half-open ``(start, stop)`` column range of basic window ``index``."""
        if not 0 <= index < self.n_windows:
            raise SegmentationError(
                f"window index {index} out of range [0, {self.n_windows})"
            )
        return self._edge(index), self._edge(index + 1)

    def window_of(self, offset: int) -> int:
        """Index of the basic window containing point ``offset``."""
        if not 0 <= offset < self.length:
            raise SegmentationError(f"offset {offset} outside [0, {self.length})")
        return min(offset // self.window_size, self.n_windows - 1)

    def align(self, query: QueryWindow) -> WindowSelection:
        """Align an arbitrary query window against this plan (§3.1.1).

        Finds the maximal run of basic windows fully contained in the query
        and exposes the uncovered head/tail fragments as raw ranges to be
        sketched at query time. Aligned queries (the "special case" of
        Lemma 1, and the only case the DFT competitors support) come back
        with no fragments. The run is found arithmetically, in ``O(1)``
        whatever the number of windows.

        Args:
            query: The query window; must lie inside ``[0, length)``.

        Returns:
            A :class:`WindowSelection` with at least one segment.
        """
        if query.stop > self.length:
            raise SegmentationError(
                f"query window ends at {query.end} but only {self.length} points "
                "are sketched"
            )
        # Boundaries are the multiples of B below ``length``, then ``length``
        # itself. First boundary at or after the query start (start <
        # length, so the ceiling never passes n_windows):
        first_full = -(-query.start // self.window_size)
        # Last boundary at or before the query stop (a short trailing
        # window's end is ``length``, not a multiple of B):
        if query.stop == self.length:
            last_edge = self.n_windows
        else:
            last_edge = query.stop // self.window_size

        if first_full >= last_edge:
            # The query fits strictly inside one or two basic windows with no
            # fully covered window; Lemma 1 degenerates to a single raw segment.
            return WindowSelection(
                run=(0, 0), head=(query.start, query.stop), tail=None
            )

        head_start, head_stop = query.start, self._edge(first_full)
        tail_start, tail_stop = self._edge(last_edge), query.stop
        head = (head_start, head_stop) if head_stop > head_start else None
        tail = (tail_start, tail_stop) if tail_stop > tail_start else None
        return WindowSelection(run=(first_full, last_edge), head=head, tail=tail)

    def aligned_query(self, first_window: int, n_windows: int) -> QueryWindow:
        """Build the aligned query covering ``n_windows`` starting at ``first_window``.

        Convenience used by benchmarks and the real-time path, where queries
        are expressed directly in basic-window units.
        """
        if n_windows <= 0:
            raise SegmentationError("aligned query must cover at least one window")
        if first_window < 0 or first_window + n_windows > self.n_windows:
            raise SegmentationError(
                f"windows [{first_window}, {first_window + n_windows}) out of range "
                f"[0, {self.n_windows})"
            )
        start = self._edge(first_window)
        stop = self._edge(first_window + n_windows)
        return QueryWindow(end=stop - 1, length=stop - start)
