"""Which of the program's public functions the traced run wraps, per layer.

Span names are ``<layer>.<call>``; the part before the first dot names the
layer in the report. Server-side spans are keyed by the request's wire id
(``"q<id>"``) or, for a real-time update, by the timestamp of the window it
folded in (``"u<timestamp>"``). Client-side spans use the same keys, so one
request's spans from both processes can be put side by side.

Deliberately unwrapped: ``repro.parallel`` (not on the serving path under the
default ``SerialPolicy``), ``approx``/``baseline``/``analysis`` (offline
tools), ``api.supervisor`` and the SQLite backend (not deployed here).
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

#: Parents reached through a shared key rather than a per-thread call stack.
PARENT_NAMES = {
    "service.submit": "server.answer",
    "client.compute_matrix": "service.submit",
    "client.finish": "service.submit",
}

#: Span names that start a query's server-side or client-side work (the
#: roots whose union is "attributed" time for a request).
QUERY_ROOTS = (
    "protocol.parse_request",
    "server.answer",
    "frames.encode_response",
    "remote.decode_frame",
    "remote.complete",
)

def _event_key(payload: Any) -> str | None:
    event = payload.get("event") if isinstance(payload, dict) else None
    if isinstance(event, dict) and "timestamp" in event:
        return f"u{event['timestamp']}"
    return None


def _frame_key(payload: Any) -> str | None:
    key = _event_key(payload)
    if key is None and isinstance(payload, dict):
        key = f"q{payload.get('id')}"
    return key


def _frame_theta(payload: Any) -> float | None:
    event = payload.get("event") if isinstance(payload, dict) else None
    return float(event["theta"]) if isinstance(event, dict) and "theta" in event else None


def install_server(tracer: Tracer) -> None:
    """Wrap the server process's layers (run before the server starts)."""
    from repro.api import client as client_module
    from repro.api import server as server_module
    from repro.api import service as service_module
    from repro.api.protocol import StreamEvent
    from repro.core.lemma2 import SlidingCorrelationState
    from repro.core.network import ClimateNetwork
    from repro.core.realtime import TsubasaRealtime
    from repro.engine.providers import MmapProvider
    from repro.streams.hub import SnapshotHub, Subscription
    from repro.streams.ingestion import StreamIngestor

    # Every request parses into a fresh QuerySpec object; the spec's
    # identity carries the wire id to layers that only see the spec. The
    # spec is kept alive so its id() is never reused during the run.
    spec_keys: dict[int, tuple[Any, str]] = {}

    def answer_key(server: Any, request: Any) -> str:
        key = f"q{request.id}"
        spec_keys[id(request.spec)] = (request.spec, key)
        return key

    def spec_key(_owner: Any, spec: Any, *_args: Any, **_kwargs: Any) -> str | None:
        entry = spec_keys.get(id(spec))
        return entry[1] if entry is not None else None

    wrap = tracer.wrap
    # api.server + api.protocol + api.frames: the server-side wire.
    wrap(
        server_module, "parse_request", "protocol.parse_request",
        key_from_result=lambda request: f"q{request.id}",
    )
    wrap(server_module.TsubasaServer, "_answer", "server.answer", key=answer_key)
    wrap(
        server_module._Completion, "to_v2_bytes", "frames.encode_response",
        key=lambda completion: f"q{completion.request_id}",
    )
    # api.service and api.client.
    wrap(service_module.TsubasaService, "submit", "service.submit", key=spec_key)
    wrap(
        client_module.TsubasaClient, "compute_matrix", "client.compute_matrix",
        key=spec_key, extra=lambda execution, *_a, **_k: execution.path,
    )
    wrap(
        client_module.TsubasaClient, "finish", "client.finish",
        key=spec_key, extra=lambda _value, _client, spec, *_a, **_k: spec.op,
    )
    # core and engine, nested under compute_matrix on the executor thread.
    wrap(
        client_module, "query_correlation_matrix", "core.direct_kernel",
        extra=lambda _v, _source, selection, *_a, **_k: int(
            selection.full_windows.size
        ),
    )
    wrap(MmapProvider, "prefix_matrix", "engine.prefix_matrix")
    wrap(MmapProvider, "fragment", "engine.fragment")
    wrap(ClimateNetwork, "from_matrix", "core.network_from_matrix")
    # streams and the real-time half of core.
    wrap(
        StreamIngestor, "push", "streams.ingestor_push",
        key_from_result=lambda snaps: f"u{snaps[-1].timestamp}" if snaps else None,
    )
    wrap(SlidingCorrelationState, "slide_raw", "core.realtime_ingest")
    wrap(TsubasaRealtime, "correlation_matrix", "core.realtime_matrix")
    wrap(
        SnapshotHub, "publish", "streams.hub_publish",
        key=lambda _hub, snapshot: f"u{snapshot.timestamp}",
    )
    wrap(
        Subscription, "_rethreshold", "streams.rethreshold",
        key=lambda _sub, snapshot: f"u{snapshot.timestamp}",
        extra=lambda _v, subscription, _snapshot: float(subscription.theta),
    )
    wrap(
        StreamEvent, "from_snapshot", "protocol.stream_event",
        key=lambda _cls, snapshot, *_a, **_k: f"u{snapshot.timestamp}",
        extra=lambda _v, _cls, _snapshot, theta, *_a, **_k: float(theta),
    )
    wrap(
        server_module._WsSession, "send_envelope", "server.send_event",
        key=lambda _session, payload: _event_key(payload),
        extra=lambda _v, _session, payload: _frame_theta(payload),
        when=lambda _session, payload: _event_key(payload) is not None,
    )


def install_client(tracer: Tracer) -> None:
    """Wrap the load generator's client-side wire (``api.remote``)."""
    from repro.api import remote

    tracer.wrap(
        remote, "decode_frame", "remote.decode_frame",
        key_from_result=lambda decoded: _frame_key(decoded[0]),
    )
    tracer.wrap(
        remote.TsubasaRemoteClient, "_complete", "remote.complete",
        key=lambda _client, _spec, envelope, *_a, **_k: _frame_key(envelope),
    )
