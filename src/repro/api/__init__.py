"""Declarative query API: specs, the client facade, and the async service.

This package is the public *request surface* of the TSUBASA reproduction:

* :mod:`repro.api.spec` — :class:`~repro.api.spec.QuerySpec` /
  :class:`~repro.api.spec.WindowSpec`, the frozen, validated, serializable
  description of any supported query, and the
  :class:`~repro.api.spec.QueryResult` envelope with timings and
  :class:`~repro.api.spec.Provenance`.
* :mod:`repro.api.client` — :class:`~repro.api.client.TsubasaClient`, the
  planner/facade routing any spec to the right engine over any sketch
  backend.
* :mod:`repro.api.service` — :class:`~repro.api.service.TsubasaService`, the
  long-lived :mod:`asyncio` service multiplexing many concurrent specs over
  one shared provider with in-flight coalescing, a finished-result LRU, and
  :meth:`~repro.api.service.TsubasaService.stats`.
* :mod:`repro.api.protocol` — the versioned wire protocol (framed
  :class:`~repro.api.protocol.Request` / :class:`~repro.api.protocol.Response`
  / :class:`~repro.api.protocol.ErrorEnvelope` /
  :class:`~repro.api.protocol.StreamEvent` envelopes, ``protocol=1``) every
  network transport speaks.
* :mod:`repro.api.server` — :class:`~repro.api.server.TsubasaServer`, the
  stdlib asyncio HTTP/1.1 + WebSocket frontend over one service, with
  per-client backpressure and graceful drain.
* :mod:`repro.api.remote` — :class:`~repro.api.remote.TsubasaRemoteClient`,
  the drop-in remote mirror of the client's execute/execute_many surface,
  plus streaming ``subscribe`` consumption.
* :mod:`repro.api.resilience` — client-side fault-tolerance policies:
  :class:`~repro.api.resilience.RetryPolicy` (bounded, budgeted,
  full-jitter retries of idempotent queries) and
  :class:`~repro.api.resilience.CircuitBreaker` (fail fast against a dead
  endpoint).

Clients speak :class:`~repro.api.spec.QuerySpec`, never engine internals —
in-process and over the network alike.
"""

from repro.api.client import MatrixExecution, TsubasaClient
from repro.api.frames import (
    CONTENT_TYPE_V2,
    decode_frame,
    encode_frame,
    value_from_payload_v2,
)
from repro.api.protocol import (
    PROTOCOL_V2,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    ErrorEnvelope,
    Request,
    Response,
    StreamEvent,
    parse_frame,
    parse_request,
    value_from_payload,
)
from repro.api.remote import TsubasaRemoteClient
from repro.api.resilience import (
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
    is_retryable,
)
from repro.api.server import ServerHandle, TsubasaServer, serve_in_thread
from repro.api.service import (
    BackendLatency,
    ServiceStats,
    TsubasaService,
    run_specs,
)
from repro.api.spec import (
    OPS,
    Provenance,
    QueryResult,
    QuerySpec,
    WindowSpec,
)
from repro.api.supervisor import AcceptorSupervisor, WorkerConfig

__all__ = [
    "QuerySpec",
    "WindowSpec",
    "QueryResult",
    "Provenance",
    "OPS",
    "TsubasaClient",
    "MatrixExecution",
    "TsubasaService",
    "ServiceStats",
    "BackendLatency",
    "run_specs",
    "PROTOCOL_VERSION",
    "PROTOCOL_V2",
    "SUPPORTED_PROTOCOLS",
    "CONTENT_TYPE_V2",
    "encode_frame",
    "decode_frame",
    "value_from_payload_v2",
    "Request",
    "Response",
    "ErrorEnvelope",
    "StreamEvent",
    "parse_request",
    "parse_frame",
    "value_from_payload",
    "TsubasaServer",
    "ServerHandle",
    "serve_in_thread",
    "TsubasaRemoteClient",
    "RetryPolicy",
    "RetryBudget",
    "CircuitBreaker",
    "is_retryable",
    "AcceptorSupervisor",
    "WorkerConfig",
]
