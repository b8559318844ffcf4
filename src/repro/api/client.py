"""The TSUBASA query client: one facade over every engine and backend.

:class:`TsubasaClient` executes declarative :class:`~repro.api.spec.QuerySpec`
requests against any :class:`~repro.engine.providers.SketchProvider` backend
(in-memory, memory-mapped arrays, chunked on-demand build) and, optionally,
the DFT-based approximate sketch. It is a *planner*: every operation reduces
to one or two correlation matrices plus cheap post-processing, and each
matrix is computed in-process — from the backend's prefix tables when it has
them, otherwise by streaming Lemma 1 through the provider.

The engine classes (:class:`~repro.core.exact.TsubasaHistorical`,
:class:`~repro.approx.network.TsubasaApproximate`) delegate their query
methods here, so the client is *the* implementation of the query surface —
its answers are bit-identical to the historical engine paths they replaced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.spec import Provenance, QueryResult, QuerySpec, WindowSpec
from repro.core.exact import (
    DEFAULT_CHUNK_WINDOWS,
    query_correlation_matrix,
    selection_points,
)
from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork
from repro.core.queries import (
    degree_at_threshold,
    most_anticorrelated_pairs,
    neighbors,
    pairs_in_range,
    top_k_pairs,
)
from repro.core.segmentation import BasicWindowPlan
from repro.engine.providers import SketchProvider
from repro.exceptions import DataError, ServiceError, SketchError

if TYPE_CHECKING:
    from repro.approx.sketch import ApproxSketch

__all__ = ["MatrixExecution", "TsubasaClient"]


@dataclass(frozen=True)
class MatrixExecution:
    """Accounting for one correlation-matrix computation.

    Attributes:
        matrix: The labeled correlation matrix.
        backend: Provider backend name (or ``"approx"``).
        seconds: Wall time of the computation.
        path: ``"prefix"`` (prefix-aggregate combination) or ``"direct"``
            (streaming Lemma 1 over the selected windows).
        from_cache: Whether this execution was replayed from the service's
            result cache rather than computed.
    """

    matrix: CorrelationMatrix
    backend: str
    seconds: float
    path: str = "direct"
    from_cache: bool = False


class TsubasaClient:
    """Facade executing :class:`~repro.api.spec.QuerySpec` requests.

    Args:
        provider: Sketch backend answering exact queries. Optional only when
            ``approx_sketch`` is given (an approx-only client).
        approx_sketch: Optional :class:`~repro.approx.sketch.ApproxSketch`
            enabling ``engine="approx"`` specs.
        data: Optional raw ``(n, L)`` matrix overriding the provider's own
            raw data for partial head/tail fragments of non-aligned windows.
        coordinates: Optional ``name -> (lat, lon)`` node positions attached
            to constructed networks.
        chunk_windows: Basic windows per streamed covariance chunk on the
            direct query path.
    """

    def __init__(
        self,
        provider: SketchProvider | None = None,
        approx_sketch: "ApproxSketch | None" = None,
        data: np.ndarray | None = None,
        coordinates: dict[str, tuple[float, float]] | None = None,
        chunk_windows: int = DEFAULT_CHUNK_WINDOWS,
    ) -> None:
        if provider is None and approx_sketch is None:
            raise DataError("either a provider or an approx_sketch is required")
        if provider is not None and not isinstance(provider, SketchProvider):
            raise DataError(
                f"expected a SketchProvider, got {type(provider)!r}"
            )
        self._provider = provider
        self._approx = approx_sketch
        self._data = None if data is None else np.asarray(data, dtype=np.float64)
        self._coordinates = coordinates
        self._chunk_windows = chunk_windows
        if provider is not None:
            self._plan = provider.plan
        else:
            self._plan = BasicWindowPlan(
                length=int(approx_sketch.sizes.sum()),
                window_size=approx_sketch.window_size,
            )

    # -- introspection -------------------------------------------------------

    @property
    def provider(self) -> SketchProvider | None:
        """The exact sketch backend (``None`` for approx-only clients)."""
        return self._provider

    @property
    def plan(self) -> BasicWindowPlan:
        """The basic-window segmentation plan queries resolve against."""
        return self._plan

    @property
    def names(self) -> list[str]:
        """Series identifiers, in matrix order."""
        if self._provider is not None:
            return self._provider.names
        return list(self._approx.names)

    @property
    def n_series(self) -> int:
        """Number of sketched series."""
        return len(self.names)

    @property
    def backend(self) -> str:
        """Backend identifier reported in provenance."""
        if self._provider is not None:
            return self._provider.backend_name
        return "approx"

    # -- planning / execution ------------------------------------------------

    def matrix_key(self, spec: QuerySpec, window: WindowSpec) -> tuple:
        """Canonical identity of the matrix computation ``window`` needs.

        Two specs share a key exactly when their matrices are interchangeable
        — the service layer coalesces in-flight computations on it. Window
        forms that select the same points (e.g. ``(end, length)`` vs the
        equivalent ``(start, stop)`` span) map to the same key, and an
        omitted approx method keys identically to the explicit default.
        """
        query = window.resolve(self._plan)
        method = spec.method
        if spec.engine == "approx" and method is None:
            method = "eq5"  # what compute_matrix runs when omitted
        return (query.end, query.length, spec.engine, method)

    def takes_prefix_path(self, spec: QuerySpec, window: WindowSpec) -> bool:
        """Whether :meth:`compute_matrix` answers ``window`` from prefix tables.

        A cheap probe: it aligns the window (``O(1)``) and asks the
        provider's :meth:`~repro.engine.providers.SketchProvider.prefix_range`,
        without reading fragment points or tables. The async service runs these
        ``O(n^2)`` answers inline and sends the rest to its executor.
        """
        if spec.engine != "exact" or self._provider is None:
            return False
        selection = self._plan.align(window.resolve(self._plan))
        return self._provider.prefix_range(selection) is not None

    def compute_matrix(self, spec: QuerySpec, window: WindowSpec) -> MatrixExecution:
        """Compute the correlation matrix ``spec`` needs over ``window``.

        This is the expensive half of :meth:`execute`, exposed separately so
        the async service can schedule/coalesce it independently of the cheap
        post-processing.
        """
        start = time.perf_counter()
        if spec.engine == "approx":
            matrix = self._approx_matrix(window, spec.method)
            return MatrixExecution(
                matrix=matrix,
                backend="approx",
                seconds=time.perf_counter() - start,
            )
        provider = self._provider
        if provider is None:
            raise DataError(
                "this client holds no exact sketch backend; use engine='approx'"
            )
        selection = self._plan.align(window.resolve(self._plan))
        # A contiguous interior goes through the backend's prefix tables
        # when it has them: O(n^2) per query, independent of the number of
        # selected windows, with a non-aligned window's raw head/tail points
        # folded in directly. The points are read first, so a backend
        # without raw data raises before any table read.
        # Everything else streams the direct Lemma 1 reduction.
        bounds = provider.prefix_range(selection)
        if bounds is not None:
            points = selection_points(provider, selection, self._data)
            values = provider.prefix_matrix(*bounds, points)
            path = "prefix"
        else:
            values = query_correlation_matrix(
                provider,
                selection,
                data=self._data,
                chunk_windows=self._chunk_windows,
            )
            path = "direct"
        return MatrixExecution(
            matrix=CorrelationMatrix(names=list(provider.names), values=values),
            backend=provider.backend_name,
            seconds=time.perf_counter() - start,
            path=path,
        )

    def _approx_matrix(
        self, window: WindowSpec, method: str | None
    ) -> CorrelationMatrix:
        if self._approx is None:
            raise DataError(
                "engine='approx' requires the client to hold an approx sketch"
            )
        from repro.approx.network import approximate_correlation_matrix

        selection = self._plan.align(window.resolve(self._plan))
        if not selection.is_aligned:
            raise SketchError(
                "the DFT-based method only supports query windows that are "
                "integral multiples of the basic window size (§2.2); use the "
                "exact TSUBASA engine for arbitrary windows"
            )
        values = approximate_correlation_matrix(
            self._approx,
            selection.full_windows,
            method=method if method is not None else "eq5",
        )
        return CorrelationMatrix(names=list(self._approx.names), values=values)

    def finish(
        self,
        spec: QuerySpec,
        matrix: CorrelationMatrix,
        baseline: CorrelationMatrix | None = None,
    ) -> Any:
        """Pure post-processing: turn matrices into the op's value.

        Cheap relative to matrix computation; the async service runs it
        inline on the event loop.
        """
        op = spec.op
        if op == "matrix":
            return matrix
        if op == "network":
            return ClimateNetwork.from_matrix(matrix, spec.theta, self._coordinates)
        if op == "top_k":
            return top_k_pairs(matrix, spec.k)
        if op == "anticorrelated":
            return most_anticorrelated_pairs(matrix, spec.k)
        if op == "neighbors":
            return neighbors(matrix, spec.node, spec.theta)
        if op == "pairs_in_range":
            return pairs_in_range(matrix, spec.low, spec.high)
        if op == "degree":
            return degree_at_threshold(matrix, spec.theta)
        if op == "diff_network":
            if baseline is None:
                raise DataError("diff_network post-processing needs a baseline")
            current = ClimateNetwork.from_matrix(
                matrix, spec.theta, self._coordinates
            )
            previous = ClimateNetwork.from_matrix(
                baseline, spec.theta, self._coordinates
            )
            old_edges = previous.edge_set()
            new_edges = current.edge_set()
            return new_edges - old_edges, old_edges - new_edges
        raise DataError(f"unknown query op {op!r}")

    def build_result(
        self,
        spec: QuerySpec,
        executions: list[MatrixExecution],
        coalesced: bool,
        started_at: float,
        matrix_seconds: float,
    ) -> QueryResult:
        """Post-process matrices and assemble the result envelope.

        Shared by :meth:`execute` and the async service so both surfaces
        return identically shaped results. ``started_at`` anchors the
        ``total`` timing — call entry for the sync client, submission time
        for the service (where waiting for a shared computation counts as
        latency).
        """
        post_start = time.perf_counter()
        value = self.finish(
            spec,
            executions[0].matrix,
            executions[1].matrix if len(executions) > 1 else None,
        )
        post_seconds = time.perf_counter() - post_start
        lead = executions[0]
        provenance = Provenance(
            backend=lead.backend,
            engine=spec.engine,
            path=lead.path,
            coalesced=coalesced,
            cache=any(e.from_cache for e in executions),
        )
        return QueryResult(
            spec=spec,
            value=value,
            timings={
                "total": time.perf_counter() - started_at,
                "matrix": matrix_seconds,
                "post": post_seconds,
            },
            provenance=provenance,
        )

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Execute one spec end to end.

        Returns:
            A :class:`~repro.api.spec.QueryResult` whose value matches the
            classic engine methods bit-for-bit.
        """
        return self._execute(spec, memo=None)

    def execute_many(self, specs: list[QuerySpec]) -> list[QueryResult]:
        """Execute several specs, sharing matrix computations between them.

        The synchronous analogue of the service layer's in-flight
        coalescing: specs over the same window (and engine) reuse one
        matrix. Results come back in spec order; reused computations are
        flagged ``coalesced`` in their provenance.
        """
        memo: dict[tuple, MatrixExecution] = {}
        return [self._execute(spec, memo=memo) for spec in specs]

    def _execute(
        self, spec: QuerySpec, memo: dict[tuple, MatrixExecution] | None
    ) -> QueryResult:
        if not isinstance(spec, QuerySpec):
            raise DataError(f"expected a QuerySpec, got {type(spec)!r}")
        if spec.op == "subscribe":
            raise ServiceError(
                "subscribe is a streaming operation with no single result; "
                "consume it over a push transport (the WebSocket server's "
                "/v1/ws endpoint or a repro.streams.hub.SnapshotHub)"
            )
        start = time.perf_counter()
        coalesced = False
        matrix_seconds = 0.0
        executions: list[MatrixExecution] = []
        for window in spec.windows:
            if memo is not None:
                key = self.matrix_key(spec, window)
                cached = memo.get(key)
                if cached is None:
                    cached = self.compute_matrix(spec, window)
                    matrix_seconds += cached.seconds
                    memo[key] = cached
                else:
                    coalesced = True
                executions.append(cached)
            else:
                execution = self.compute_matrix(spec, window)
                matrix_seconds += execution.seconds
                executions.append(execution)
        return self.build_result(
            spec,
            executions,
            coalesced=coalesced,
            started_at=start,
            matrix_seconds=matrix_seconds,
        )
