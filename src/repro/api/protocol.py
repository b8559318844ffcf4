"""The versioned TSUBASA wire protocol (protocol version 1).

Every network transport — the HTTP/WebSocket server (:mod:`repro.api.server`,
behind ``tsubasa serve``) and the remote client (:mod:`repro.api.remote`) —
speaks the same four framed envelopes defined here:

* :class:`Request` — one :class:`~repro.api.spec.QuerySpec` plus a
  caller-chosen ``id``. Responses carry the id back, so a client may pipeline
  many requests on one connection and match completions **out of order**.
* :class:`Response` — a successful result: the op's JSON payload, wall-clock
  seconds, and the :class:`~repro.api.spec.Provenance` dict.
* :class:`ErrorEnvelope` — a failed request: exception type name, message,
  and the library's stable failure code
  (:func:`repro.exceptions.error_code_for` — the same taxonomy the CLI uses
  for process exit codes).
* :class:`StreamEvent` — one pushed network-update snapshot of a
  ``subscribe`` op: a per-subscription sequence number plus the snapshot
  payload (timestamp, edges, appeared/disappeared deltas).

All frames are JSON objects carrying ``"protocol": 1``. Omitting the field
on a request means "current version"; any other value is rejected up front
(:func:`parse_request`), which is what lets a future version 2 coexist with
1 on one endpoint. Unknown envelope fields are rejected — strictness is the
point of a formalized surface (a frame carrying stray keys is more likely a
confused client than an intentional no-op).

:func:`value_from_payload` is the client-side inverse of
:meth:`~repro.api.spec.QueryResult.payload`: it rebuilds the op's natural
Python value (a :class:`~repro.core.matrix.CorrelationMatrix`, a
:class:`~repro.core.network.ClimateNetwork`, pair lists, ...) from the wire
payload, so a remote client returns the same value types an in-process
:class:`~repro.api.client.TsubasaClient` does.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import exceptions
from repro.api.spec import QueryResult, QuerySpec
from repro.exceptions import DataError, TsubasaError, error_code_for

if TYPE_CHECKING:
    from repro.streams.ingestion import NetworkSnapshot

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_V2",
    "SUPPORTED_PROTOCOLS",
    "Request",
    "Response",
    "ErrorEnvelope",
    "StreamEvent",
    "parse_request",
    "parse_frame",
    "value_from_payload",
]

#: The default protocol version (JSON envelopes, always available).
PROTOCOL_VERSION = 1

#: The binary columnar protocol (JSON sidecar + raw float64 buffers); see
#: :mod:`repro.api.frames`. Negotiated per connection, never the default.
PROTOCOL_V2 = 2

#: Every version this library can speak.
SUPPORTED_PROTOCOLS = (PROTOCOL_VERSION, PROTOCOL_V2)


def _check_id(request_id: Any) -> Any:
    """Validate a frame id: a JSON string or integer (or absent)."""
    if request_id is None or isinstance(request_id, str):
        return request_id
    if isinstance(request_id, numbers.Integral) and not isinstance(
        request_id, bool
    ):
        return int(request_id)
    raise DataError(
        f"frame id must be a string or integer, got {request_id!r}"
    )


def _check_version(payload: dict[str, Any]) -> int:
    """Validate (negotiate) the frame's protocol version field."""
    version = payload.get("protocol", PROTOCOL_VERSION)
    if (
        not isinstance(version, numbers.Integral)
        or isinstance(version, bool)
        or int(version) not in SUPPORTED_PROTOCOLS
    ):
        raise DataError(
            f"unsupported protocol version {version!r}; this endpoint "
            f"speaks protocols {', '.join(str(v) for v in SUPPORTED_PROTOCOLS)}"
        )
    return int(version)


@dataclass(frozen=True)
class Request:
    """One framed query request.

    Attributes:
        spec: The validated query spec.
        id: Caller-chosen correlation id echoed back on every frame this
            request produces (a string or integer; ``None`` lets the
            transport assign one).
    """

    spec: QuerySpec
    id: str | int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, QuerySpec):
            raise DataError(f"expected a QuerySpec, got {self.spec!r}")
        object.__setattr__(self, "id", _check_id(self.id))

    def to_dict(self) -> dict[str, Any]:
        """Framed plain-dict form (``None`` id omitted)."""
        payload: dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "spec": self.spec.to_dict(),
        }
        if self.id is not None:
            payload["id"] = self.id
        return payload

    def to_json(self) -> str:
        """One-line JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True)


def parse_request(payload: Any) -> Request:
    """Parse and strictly validate a request frame.

    Accepts only the framed form (``{"protocol": 1, "id": ..., "spec":
    {...}}``, ``protocol`` and ``id`` optional). Raises
    :class:`~repro.exceptions.DataError` on malformed frames (including a
    frame without ``spec``) and on protocol-version mismatches.
    """
    if not isinstance(payload, dict):
        raise DataError(f"request frame must be a JSON object, got {payload!r}")
    _check_version(payload)
    request_id = _check_id(payload.get("id"))
    if "spec" not in payload:
        raise DataError(
            "request frame has no 'spec' (expected {'protocol': 1, "
            "'id': ..., 'spec': {...}})"
        )
    unknown = set(payload) - {"protocol", "id", "spec"}
    if unknown:
        raise DataError(f"unknown request frame fields: {sorted(unknown)}")
    return Request(spec=QuerySpec.from_dict(payload["spec"]), id=request_id)


@dataclass(frozen=True)
class Response:
    """A successful completion frame.

    Attributes:
        result: The op's JSON payload
            (:meth:`~repro.api.spec.QueryResult.payload`).
        id: The originating request's id.
        seconds: Server-side wall-clock total for the request.
        provenance: The :class:`~repro.api.spec.Provenance` dict, when the
            transport carries one.
    """

    result: dict[str, Any]
    id: str | int | None = None
    seconds: float = 0.0
    provenance: dict[str, Any] | None = None

    @classmethod
    def from_result(
        cls, result: QueryResult, request_id: str | int | None = None
    ) -> "Response":
        """Wrap a finished :class:`~repro.api.spec.QueryResult`."""
        return cls(
            result=result.payload(),
            id=request_id,
            seconds=result.timings.get("total", 0.0),
            provenance=(
                result.provenance.to_dict()
                if result.provenance is not None
                else None
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "id": self.id,
            "ok": True,
            "result": self.result,
            "seconds": self.seconds,
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ErrorEnvelope:
    """A failed completion frame.

    Attributes:
        type: Exception class name (``"SketchError"``, ``"DataError"``, ...).
        message: Human-readable failure description.
        code: The library's stable failure code for
            :class:`~repro.exceptions.TsubasaError` subclasses (the same
            numbers the CLI uses as process exit codes); ``None`` for
            non-library failures.
        id: The originating request's id (``None`` when the failure happened
            before an id could be parsed).
        retryable: The server's assertion that re-issuing the identical
            request is safe and may succeed (overload shedding, graceful
            drain). Restored onto the rebuilt exception so
            :func:`~repro.api.resilience.is_retryable` classifies wire
            errors exactly like local ones.
    """

    type: str
    message: str
    code: int | None = None
    id: str | int | None = None
    retryable: bool = False

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        request_id: str | int | None = None,
        retryable: bool = False,
    ) -> "ErrorEnvelope":
        """The envelope for one failed request."""
        code = error_code_for(exc) if isinstance(exc, TsubasaError) else None
        return cls(
            type=type(exc).__name__,
            message=str(exc),
            code=code,
            id=request_id,
            retryable=retryable or bool(getattr(exc, "retryable", False)),
        )

    def to_exception(self) -> Exception:
        """Rebuild the failure as a raisable exception (client side).

        Library failures come back as the same
        :class:`~repro.exceptions.TsubasaError` subclass the server raised,
        so a remote client's error surface matches the in-process client's.
        Anything else degrades to a :class:`~repro.exceptions.TsubasaError`
        tagged with the original type name.
        """
        klass = getattr(exceptions, self.type, None)
        if (
            isinstance(klass, type)
            and issubclass(klass, TsubasaError)
        ):
            exc: Exception = klass(self.message)
        else:
            exc = TsubasaError(f"{self.type}: {self.message}")
        if self.retryable:
            exc.retryable = True  # type: ignore[attr-defined]
        return exc

    def to_dict(self) -> dict[str, Any]:
        error: dict[str, Any] = {"type": self.type, "message": self.message}
        if self.code is not None:
            error["code"] = self.code
        if self.retryable:
            error["retryable"] = True
        return {
            "protocol": PROTOCOL_VERSION,
            "id": self.id,
            "ok": False,
            "error": error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class StreamEvent:
    """One pushed snapshot of a ``subscribe`` op.

    Attributes:
        id: The subscription's request id.
        seq: The hub's global monotonic publish sequence number for this
            snapshot (:class:`~repro.streams.hub.SnapshotHub`). Strictly
            increasing and contiguous within one hub lifetime, shared by
            every subscriber — which is what makes it a resume token: a
            client that saw seq ``s`` reconnects with ``resume_from=s``
            and the hub replays ``s+1, s+2, ...`` from its ring.
        event: Snapshot payload: ``timestamp`` (offset of the newest point
            folded in), ``theta``, ``n_nodes``/``n_edges``, the full
            ``edges`` list (``[a, b, weight]``), and the
            ``appeared``/``disappeared`` edge deltas against the
            subscription's previous event. A *gap* event instead carries
            ``{"gap": true, "missed": ..., "next_seq": ...}`` — the one
            explicit discontinuity marker a resumed subscription may see
            when requested snapshots aged out of the replay ring (or the
            hub restarted).
    """

    id: str | int | None
    seq: int
    event: dict[str, Any]

    def __post_init__(self) -> None:
        if not isinstance(self.seq, numbers.Integral) or self.seq < 0:
            raise DataError(f"stream seq must be a non-negative int, got {self.seq!r}")
        object.__setattr__(self, "seq", int(self.seq))
        if not isinstance(self.event, dict):
            raise DataError(f"stream event must be an object, got {self.event!r}")

    @classmethod
    def from_snapshot(
        cls,
        snapshot: "NetworkSnapshot",
        theta: float,
        seq: int,
        request_id: str | int | None = None,
    ) -> "StreamEvent":
        """Frame one :class:`~repro.streams.ingestion.NetworkSnapshot`."""
        network = snapshot.network
        edges = sorted(network.edge_set())
        return cls(
            id=request_id,
            seq=seq,
            event={
                "timestamp": int(snapshot.timestamp),
                "theta": float(theta),
                "n_nodes": network.n_nodes,
                "n_edges": network.n_edges,
                "edges": [
                    [a, b, network.edge_weight(a, b)] for a, b in edges
                ],
                "appeared": [list(edge) for edge in sorted(snapshot.appeared)],
                "disappeared": [
                    list(edge) for edge in sorted(snapshot.disappeared)
                ],
            },
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "id": self.id,
            "ok": True,
            "seq": self.seq,
            "event": self.event,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def parse_frame(payload: Any) -> Response | ErrorEnvelope | StreamEvent:
    """Parse a server→client frame (the client-side dispatcher).

    Distinguishes the three completion shapes by structure: ``ok: false`` →
    :class:`ErrorEnvelope`, an ``event`` field → :class:`StreamEvent`,
    otherwise :class:`Response`. Raises
    :class:`~repro.exceptions.DataError` on malformed frames.
    """
    if not isinstance(payload, dict):
        raise DataError(f"reply frame must be a JSON object, got {payload!r}")
    _check_version(payload)
    request_id = _check_id(payload.get("id"))
    if payload.get("ok") is False:
        error = payload.get("error")
        if not isinstance(error, dict) or "type" not in error:
            raise DataError(f"malformed error frame: {payload!r}")
        code = error.get("code")
        if code is not None and (
            not isinstance(code, numbers.Integral) or isinstance(code, bool)
        ):
            raise DataError(f"error code must be an integer, got {code!r}")
        return ErrorEnvelope(
            type=str(error["type"]),
            message=str(error.get("message", "")),
            code=None if code is None else int(code),
            id=request_id,
            retryable=bool(error.get("retryable", False)),
        )
    if payload.get("ok") is not True:
        raise DataError(f"reply frame must carry ok=true/false: {payload!r}")
    if "event" in payload:
        if "seq" not in payload:
            raise DataError(f"stream frame missing seq: {payload!r}")
        return StreamEvent(
            id=request_id, seq=payload["seq"], event=payload["event"]
        )
    if "result" not in payload:
        raise DataError(f"response frame missing result: {payload!r}")
    seconds = payload.get("seconds", 0.0)
    if not isinstance(seconds, numbers.Real) or isinstance(seconds, bool):
        raise DataError(f"seconds must be a number, got {seconds!r}")
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise DataError(f"provenance must be an object, got {provenance!r}")
    return Response(
        result=payload["result"],
        id=request_id,
        seconds=float(seconds),
        provenance=provenance,
    )


def value_from_payload(spec: QuerySpec, payload: dict[str, Any]) -> Any:
    """Rebuild the op's natural Python value from its wire payload.

    The inverse of :meth:`~repro.api.spec.QueryResult.payload`, used by
    :class:`~repro.api.remote.TsubasaRemoteClient` so remote results carry
    the same value types as in-process ones. JSON serializes floats with
    shortest-round-trip ``repr``, so numeric values survive the trip
    bit-identically.

    Note the one lossy op: a ``network`` payload carries only the edges
    above threshold, so the rebuilt
    :class:`~repro.core.network.ClimateNetwork` has zero weights for
    non-edge pairs (its adjacency, edge weights, and topology are exact).
    """
    from repro.core.matrix import CorrelationMatrix
    from repro.core.network import ClimateNetwork

    if not isinstance(payload, dict):
        raise DataError(f"result payload must be an object, got {payload!r}")
    op = spec.op
    try:
        if op == "matrix":
            return CorrelationMatrix(
                names=[str(name) for name in payload["names"]],
                values=np.asarray(payload["values"], dtype=np.float64),
            )
        if op == "network":
            names = [str(name) for name in payload["names"]]
            index = {name: i for i, name in enumerate(names)}
            n = len(names)
            adjacency = np.zeros((n, n), dtype=bool)
            weights = np.zeros((n, n), dtype=np.float64)
            for a, b, weight in payload["edges"]:
                i, j = index[a], index[b]
                adjacency[i, j] = adjacency[j, i] = True
                weights[i, j] = weights[j, i] = float(weight)
            return ClimateNetwork(
                names=names,
                adjacency=adjacency,
                weights=weights,
                threshold=float(payload["theta"]),
            )
        if op in ("top_k", "anticorrelated", "pairs_in_range"):
            return [
                (str(a), str(b), float(corr)) for a, b, corr in payload["pairs"]
            ]
        if op == "neighbors":
            return [
                (str(name), float(corr)) for name, corr in payload["neighbors"]
            ]
        if op == "degree":
            return {
                str(name): int(degree)
                for name, degree in payload["degree"].items()
            }
        if op == "diff_network":
            return (
                {(a, b) for a, b in payload["appeared"]},
                {(a, b) for a, b in payload["disappeared"]},
            )
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed {op!r} result payload: {exc!r}"
        ) from exc
    raise DataError(f"op {op!r} has no wire payload form")
