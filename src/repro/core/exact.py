"""Network-Construct-Histo (Algorithm 2): exact historical queries.

Given any :class:`~repro.engine.providers.SketchProvider` (in-memory sketch,
lazy store-backed, or chunked on-demand build), an arbitrary query window is
answered by:

1. aligning the query against the basic-window plan
   (:meth:`BasicWindowPlan.align`),
2. streaming the sketch statistics of the fully covered basic windows from
   the provider (chunked, so a disk-backed query never materializes the full
   ``(ns, n, n)`` covariance tensor),
3. sketching the (possibly empty) partial head/tail fragments from raw data
   on the fly (:func:`selection_fragments`) — these are just two extra
   variable-size "basic windows" as far as Lemma 1 is concerned. A backend
   with prefix-aggregate tables skips steps 2 and 4 for any contiguous
   interior its tables cover, and skips the fragment sketches too: it folds
   the fragments' raw points (:func:`selection_points`) straight into its
   ``O(n^2)`` range combination
   (:func:`~repro.core.prefix.combine_matrix_prefix`), and
4. combining everything with the vectorized Lemma 1 kernel
   (:func:`~repro.core.lemma1.combine_matrix_chunked`) into the complete,
   exact correlation matrix, from which any threshold yields the network.

:class:`TsubasaHistorical` is the user-facing engine bundling plan, provider,
and (optionally) raw data. Raw data may be withheld (``keep_raw=False``, or a
provider constructed without data) to model the sketch-only deployment; in
that case only aligned queries are answerable and arbitrary ones raise
:class:`~repro.exceptions.SketchError`.

Since the declarative query API landed, the engine's query methods are thin
wrappers: they build a :class:`~repro.api.spec.QuerySpec` and delegate to a
:class:`~repro.api.client.TsubasaClient` over the same provider, which keeps
one implementation of the query surface (and makes every engine method
expressible — and benchmarkable — as a spec). Answers are bit-identical to
the pre-delegation paths.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lemma1 import combine_matrix_chunked, combine_row
from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork
from repro.core.packing import pack_symmetric
from repro.core.segmentation import BasicWindowPlan, QueryWindow, WindowSelection
from repro.core.sketch import Sketch, build_sketch
from repro.engine.providers import InMemoryProvider, SketchProvider
from repro.exceptions import DataError, SketchError

if TYPE_CHECKING:
    from repro.api.client import TsubasaClient
    from repro.api.spec import WindowSpec
    from repro.core.pruning import PruningResult

__all__ = [
    "Fragment",
    "fragment_points",
    "fragment_stats",
    "selection_fragments",
    "selection_points",
    "query_correlation_matrix",
    "query_correlation_row",
    "TsubasaHistorical",
]

#: Default number of basic windows combined per streamed covariance chunk.
DEFAULT_CHUNK_WINDOWS = 64

#: One raw head/tail fragment's sketch, ``(means, stds, cov, size)`` across
#: all series, as :func:`fragment_stats` returns it.
Fragment = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def query_correlation_row(
    sketch: Sketch, window_indices: np.ndarray, row: int
) -> np.ndarray:
    """Exact correlations of one series against all others (Lemma 1, one row).

    This is the ``Computecorr(L, i)`` primitive of Algorithm 5, delegating to
    the single row kernel (:func:`~repro.core.lemma1.combine_row`).

    Args:
        sketch: The pre-computed sketch.
        window_indices: Basic windows forming the (aligned) query window.
        row: Index of the anchor series.

    Returns:
        Length-``n`` array of exact correlations (entry ``row`` is 1.0).
    """
    idx = np.asarray(window_indices, dtype=np.int64)
    if idx.size == 0:
        raise SketchError("query window must cover at least one basic window")
    if not 0 <= row < sketch.n_series:
        raise SketchError(f"row {row} out of range [0, {sketch.n_series})")
    return combine_row(
        sketch.means[:, idx],
        sketch.stds[:, idx],
        sketch.covs[idx][:, row, :],
        sketch.sizes[idx].astype(np.float64),
        row,
    )


def fragment_stats(data: np.ndarray, start: int, stop: int) -> Fragment:
    """Sketch one raw fragment ``data[:, start:stop]`` on the fly.

    Used for the partial head/tail windows of arbitrary queries (§3.1.1) on
    the direct kernel, the reference the prefix kernels' raw-point fold
    (:func:`fragment_points`) is checked against.

    Returns:
        ``(means, stds, cov, size)`` of the fragment across all series.
    """
    block = np.asarray(data, dtype=np.float64)[:, start:stop]
    if block.shape[1] == 0:
        raise DataError(f"empty fragment [{start}, {stop})")
    mean = block.mean(axis=1)
    centered = block - mean[:, None]
    cov = centered @ centered.T / block.shape[1]
    return mean, block.std(axis=1), cov, block.shape[1]


def fragment_points(
    data: np.ndarray, spans: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Raw points of the ``[start, stop)`` ``spans``, side by side.

    The prefix kernels' fragment input: one ``(n, k)`` block holding each
    span's columns in order (a view of ``data`` for a single span).
    """
    block = np.asarray(data, dtype=np.float64)
    parts = [block[:, start:stop] for start, stop in spans]
    if not parts or any(part.shape[1] == 0 for part in parts):
        raise DataError(f"empty fragment among {list(spans)}")
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def selection_fragments(
    provider: SketchProvider,
    selection: WindowSelection,
    data: np.ndarray | None = None,
) -> list[Fragment]:
    """Sketch a selection's (at most two) partial head/tail fragments.

    The fragments come from ``data`` when given (a caller's raw-data
    override), else from the provider's own raw data
    (:meth:`~repro.engine.providers.SketchProvider.fragment`), which raises
    :class:`~repro.exceptions.SketchError` on a backend without it. Callers
    sketch fragments before reading any window record or prefix row, so a
    sketch-only deployment fails fast.

    Returns:
        ``[head, tail]`` sketches in window order, omitting absent ones.
    """
    return [
        fragment_stats(data, *span) if data is not None else provider.fragment(*span)
        for span in selection.spans
    ]


def selection_points(
    provider: SketchProvider,
    selection: WindowSelection,
    data: np.ndarray | None = None,
) -> np.ndarray | None:
    """A selection's raw head/tail points as one ``(n, k)`` block.

    The prefix kernels' counterpart of :func:`selection_fragments`, with the
    same sources and the same fail-fast
    :class:`~repro.exceptions.SketchError` on a backend without raw data
    (:meth:`~repro.engine.providers.SketchProvider.fragment_points`).

    Returns:
        ``None`` for an aligned selection, else :func:`fragment_points` of
        its spans.
    """
    spans = selection.spans
    if not spans:
        return None
    if data is not None:
        return fragment_points(data, spans)
    return provider.fragment_points(spans)


def _as_provider(
    source: SketchProvider | Sketch, data: np.ndarray | None
) -> SketchProvider:
    if isinstance(source, SketchProvider):
        return source
    if isinstance(source, Sketch):
        return InMemoryProvider(source, data=data)
    raise DataError(f"expected a Sketch or SketchProvider, got {type(source)!r}")


def query_correlation_matrix(
    source: SketchProvider | Sketch,
    selection: WindowSelection,
    data: np.ndarray | None = None,
    chunk_windows: int = DEFAULT_CHUNK_WINDOWS,
) -> np.ndarray:
    """Exact all-pairs correlation for an aligned window selection.

    Args:
        source: A sketch provider, or a plain :class:`Sketch` (wrapped in an
            :class:`~repro.engine.providers.InMemoryProvider`).
        selection: Alignment of the query window against the source's plan.
        data: Raw series matrix overriding the provider's own raw data for
            partial head/tail fragments (required when ``selection`` has
            fragments and the provider holds no raw data).
        chunk_windows: Basic windows per streamed covariance chunk.

    Returns:
        The exact ``(n, n)`` Pearson correlation matrix over the query window.
    """
    provider = _as_provider(source, data)
    idx = np.asarray(selection.full_windows, dtype=np.int64)
    fragments = selection_fragments(provider, selection, data)

    def chunks() -> Iterator[
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ]:
        if idx.size:
            yield from provider.iter_window_chunks(idx, chunk_windows)
        for mean, std, cov, size in fragments:
            yield (
                mean[:, None],
                std[:, None],
                np.array([float(size)]),
                pack_symmetric(cov[None]),
            )

    return combine_matrix_chunked(chunks())


class TsubasaHistorical:
    """The TSUBASA historical engine: sketch once, query any window exactly.

    The engine runs against any sketch backend. The classic form builds an
    in-memory sketch from raw data::

        TsubasaHistorical(data, window_size=50)

    while ``provider=`` plugs in any backend — a memory-mapped store, a
    memory-bounded chunked build — without changing query semantics::

        TsubasaHistorical(provider=MmapProvider("sketch.mm"))

    Args:
        data: ``(n, L)`` matrix of synchronized series (omit with
            ``provider``).
        window_size: Basic window size ``B`` (omit with ``provider``).
        names: Optional series identifiers (omit with ``provider``).
        coordinates: Optional ``name -> (lat, lon)`` node positions, attached
            to constructed networks.
        keep_raw: Keep the raw matrix for arbitrary (non-aligned) queries
            (default). With ``False`` the engine stores only the sketch (the
            paper's sketch-only deployment) and supports aligned queries
            only. Only meaningful with ``data`` — with ``provider`` the
            backend itself decides whether raw data is available, so passing
            ``keep_raw`` alongside ``provider`` raises.
        provider: A ready :class:`~repro.engine.providers.SketchProvider`
            backend, mutually exclusive with ``data``/``window_size``.
        chunk_windows: Basic windows per streamed covariance chunk on the
            query path.
    """

    def __init__(
        self,
        data: np.ndarray | None = None,
        window_size: int | None = None,
        names: list[str] | None = None,
        coordinates: dict[str, tuple[float, float]] | None = None,
        keep_raw: bool | None = None,
        provider: SketchProvider | None = None,
        chunk_windows: int = DEFAULT_CHUNK_WINDOWS,
    ) -> None:
        if provider is not None:
            if data is not None or window_size is not None or names is not None:
                raise DataError(
                    "give either raw data (data/window_size/names) or a "
                    "provider, not both"
                )
            if keep_raw is not None:
                raise DataError(
                    "keep_raw has no effect with a provider; construct the "
                    "provider with or without raw data instead"
                )
            self._provider = provider
        else:
            if data is None or window_size is None:
                raise DataError(
                    "either data and window_size, or a provider, is required"
                )
            matrix = np.asarray(data, dtype=np.float64)
            if matrix.ndim != 2:
                raise DataError(
                    f"expected a 2-D series matrix, got shape {matrix.shape}"
                )
            sketch = build_sketch(matrix, window_size, names=names)
            self._provider = InMemoryProvider(
                sketch, data=matrix if keep_raw in (None, True) else None
            )
        self._plan = self._provider.plan
        self._coordinates = coordinates
        self._chunk_windows = chunk_windows
        self._materialized: Sketch | None = None
        self._client = None

    @property
    def provider(self) -> SketchProvider:
        """The sketch backend answering this engine's queries."""
        return self._provider

    @property
    def sketch(self) -> Sketch:
        """The underlying sketch (materialized once, lazily, for lazy backends)."""
        if self._materialized is None:
            self._materialized = self._provider.materialize()
        return self._materialized

    @property
    def plan(self) -> BasicWindowPlan:
        """The basic-window segmentation plan."""
        return self._plan

    @property
    def names(self) -> list[str]:
        """Series identifiers, in matrix order."""
        return self._provider.names

    def _resolve(self, query: QueryWindow | tuple[int, int]) -> QueryWindow:
        if isinstance(query, QueryWindow):
            return query
        end, length = query
        return QueryWindow(end=end, length=length)

    @property
    def client(self) -> "TsubasaClient":
        """The declarative query client this engine delegates to (lazy)."""
        if self._client is None:
            from repro.api.client import TsubasaClient

            self._client = TsubasaClient(
                provider=self._provider,
                coordinates=self._coordinates,
                chunk_windows=self._chunk_windows,
            )
        return self._client

    def _window_spec(self, query: QueryWindow | tuple[int, int]) -> "WindowSpec":
        from repro.api.spec import WindowSpec

        window = self._resolve(query)
        return WindowSpec(end=window.end, length=window.length)

    def correlation_matrix(
        self, query: QueryWindow | tuple[int, int]
    ) -> CorrelationMatrix:
        """Exact correlation matrix over ``query`` (Algorithm 2, lines 2–5).

        Args:
            query: A :class:`QueryWindow` or an ``(end, length)`` tuple.

        Returns:
            The labeled exact correlation matrix.
        """
        from repro.api.spec import QuerySpec

        spec = QuerySpec(op="matrix", window=self._window_spec(query))
        return self.client.execute(spec).value

    def network(
        self, query: QueryWindow | tuple[int, int], theta: float
    ) -> ClimateNetwork:
        """Construct the climate network over ``query`` with threshold ``theta``.

        This is the full Algorithm 2: exact matrix plus threshold pruning of
        edges (Algorithm 2, lines 6–7).
        """
        from repro.api.spec import QuerySpec

        spec = QuerySpec(
            op="network", window=self._window_spec(query), theta=theta
        )
        return self.client.execute(spec).value

    def network_pruned(
        self,
        query: QueryWindow | tuple[int, int],
        theta: float,
        max_anchors: int | None = None,
    ) -> "PruningResult":
        """Algorithm 5 network construction: infer entries from Eq. 7 bounds.

        Computes anchor *rows* of the correlation matrix from the provider
        and decides as many boolean entries as the bounds allow. Backends
        with prefix-aggregate tables serve any window whose interior they
        cover, folding a non-aligned window's head/tail fragments into each
        anchor row; otherwise only aligned query windows are supported
        (anchor rows read sketches directly).

        Args:
            query: The query window (aligned, unless the provider's prefix
                tables cover its interior).
            theta: Correlation threshold in ``(0, 1)``.
            max_anchors: Anchor budget (``None`` = up to every series).

        Returns:
            A :class:`~repro.core.pruning.PruningResult`; its boolean matrix
            equals exact thresholding (tested).
        """
        from repro.core.pruning import prune_threshold_matrix

        window = self._resolve(query)
        selection = self._plan.align(window)
        idx = selection.full_windows
        # Algorithm 5 materializes many anchor rows; on a lazy backend each
        # cov_rows() call would re-stream the whole selection from the store,
        # so load the selection once (a single record pass) and serve every
        # row from memory. Backends with prefix-aggregate tables skip even
        # that: a contiguous interior's anchor rows come straight from the
        # tables in O(n) each (combine_row_prefix), with the head/tail
        # points read once and folded into every row — decisions then match
        # exact thresholding within the prefix accuracy contract
        # (repro.core.prefix.PREFIX_ATOL).
        bounds = self._provider.prefix_range(selection)
        if bounds is not None:
            lo, hi = bounds
            points = selection_points(self._provider, selection)

            def compute_row(i: int) -> np.ndarray:
                return self._provider.prefix_row(lo, hi, i, points)

        elif not selection.is_aligned:
            raise SketchError(
                "pruned construction requires an aligned query window"
            )
        elif isinstance(self._provider, InMemoryProvider):
            means, stds, sizes = self._provider.window_stats(idx)

            def compute_row(i: int) -> np.ndarray:
                cov_row = self._provider.cov_rows(idx, np.array([i]))[:, 0, :]
                return combine_row(means, stds, cov_row, sizes, i)

        else:
            selected = self._provider.materialize(idx)
            row_idx = np.arange(selected.n_windows, dtype=np.int64)

            def compute_row(i: int) -> np.ndarray:
                return query_correlation_row(selected, row_idx, i)

        return prune_threshold_matrix(
            compute_row,
            self._provider.n_series,
            theta,
            max_anchors=max_anchors,
        )
