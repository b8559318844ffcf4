"""TSUBASA: climate network construction on historical and real-time data.

A faithful, production-quality reproduction of *TSUBASA: Climate Network
Construction on Historical and Real-Time Data* (Xu, Liu, Nargesian —
SIGMOD 2022). The library provides:

* the exact basic-window sketch and Lemma 1/Lemma 2 correlation engines
  (:mod:`repro.core`),
* the DFT-based approximate competitor (:mod:`repro.approx`),
* the raw-data baseline (:mod:`repro.baseline`),
* pluggable read-only sketch backends — in-memory, zero-copy
  memory-mapped, or chunked on-demand (:mod:`repro.engine`),
* disk-backed sketch stores and the parallel pair-partitioned executor
  (:mod:`repro.storage`, :mod:`repro.parallel`),
* stream ingestion utilities (:mod:`repro.streams`),
* climate data substrates — synthetic spatially correlated fields plus
  format loaders (:mod:`repro.data`),
* network-science analysis on constructed networks (:mod:`repro.analysis`),
  and
* the declarative query API — serializable :class:`~repro.api.spec.QuerySpec`
  requests executed by the :class:`~repro.api.client.TsubasaClient` facade or
  multiplexed concurrently by the async
  :class:`~repro.api.service.TsubasaService` (:mod:`repro.api`).

Quickstart::

    from repro import TsubasaHistorical, generate_station_dataset

    dataset = generate_station_dataset(n_stations=50, n_points=2000, seed=7)
    engine = TsubasaHistorical(dataset.values, window_size=50,
                               names=dataset.names,
                               coordinates=dataset.coordinates)
    network = engine.network(query=(1999, 730), theta=0.75)
    print(network.n_edges)
"""

from repro.api import (
    QueryResult,
    QuerySpec,
    TsubasaClient,
    TsubasaRemoteClient,
    TsubasaServer,
    TsubasaService,
    WindowSpec,
    serve_in_thread,
)
from repro.approx import (
    ApproxSketch,
    ApproxSlidingState,
    TsubasaApproximate,
    build_approx_sketch,
)
from repro.baseline import BaselineExact, baseline_correlation_matrix, pearson
from repro.core import (
    BasicWindowPlan,
    ClimateNetwork,
    CorrelationMatrix,
    QueryWindow,
    Sketch,
    SlidingCorrelationState,
    TsubasaHistorical,
    TsubasaRealtime,
    build_sketch,
    count_edges,
    prune_threshold_matrix,
    similarity_ratio,
)
from repro.data import (
    StationDataset,
    generate_gridded_dataset,
    generate_station_dataset,
)
from repro.engine import (
    ChunkedBuildProvider,
    InMemoryProvider,
    SketchProvider,
)
from repro.exceptions import (
    DataError,
    SegmentationError,
    ServiceError,
    SketchError,
    StorageError,
    StreamError,
    TsubasaError,
)

__version__ = "1.0.0"

__all__ = [
    "TsubasaHistorical",
    "TsubasaRealtime",
    "TsubasaApproximate",
    "TsubasaClient",
    "TsubasaService",
    "TsubasaServer",
    "TsubasaRemoteClient",
    "serve_in_thread",
    "QuerySpec",
    "WindowSpec",
    "QueryResult",
    "BaselineExact",
    "BasicWindowPlan",
    "QueryWindow",
    "Sketch",
    "SketchProvider",
    "InMemoryProvider",
    "ChunkedBuildProvider",
    "ApproxSketch",
    "SlidingCorrelationState",
    "ApproxSlidingState",
    "CorrelationMatrix",
    "ClimateNetwork",
    "build_sketch",
    "build_approx_sketch",
    "baseline_correlation_matrix",
    "pearson",
    "count_edges",
    "similarity_ratio",
    "prune_threshold_matrix",
    "StationDataset",
    "generate_station_dataset",
    "generate_gridded_dataset",
    "TsubasaError",
    "SegmentationError",
    "SketchError",
    "StorageError",
    "StreamError",
    "DataError",
    "ServiceError",
    "__version__",
]
