"""Engines-as-a-service: the remote TSUBASA query client.

:class:`TsubasaRemoteClient` mirrors the
:class:`~repro.api.client.TsubasaClient` execute/execute_many surface over
the network, so swapping an in-process backend for a
:class:`~repro.api.server.TsubasaServer` deployment is a one-line change::

    client = TsubasaClient(provider=MmapProvider("sketch.mm"))   # in-process
    client = TsubasaRemoteClient("127.0.0.1:8787")               # remote

Both return :class:`~repro.api.spec.QueryResult` envelopes whose values are
the same Python types (:func:`~repro.api.protocol.value_from_payload`
rebuilds them from the wire payload — numerically bit-identical, since JSON
floats round-trip through shortest ``repr``), and both raise the same
:class:`~repro.exceptions.TsubasaError` subclasses on failure (error
envelopes carry the exception type and are re-raised by name).

Two transports share the protocol:

* ``transport="http"`` — ``POST /v1/query`` per execute and ``POST
  /v1/batch`` per execute_many over one keep-alive HTTP/1.1 connection.
* ``transport="ws"`` — one WebSocket connection; ``execute_many`` pipelines
  every request at once and matches the out-of-order completions by frame
  id (the protocol's point: slow queries don't convoy fast ones).

:meth:`TsubasaRemoteClient.subscribe` consumes a ``subscribe`` op as an
iterator of :class:`~repro.api.protocol.StreamEvent` pushes on a dedicated
WebSocket connection (regardless of the configured transport).

Everything is standard library: ``http.client`` and a minimal RFC 6455
client over ``socket``.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
import time
from collections.abc import Callable, Iterator
from dataclasses import fields, replace
from typing import Any

from repro.api.frames import CONTENT_TYPE_V2, decode_frame, value_from_payload_v2
from repro.api.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    ErrorEnvelope,
    Request,
    Response,
    StreamEvent,
    parse_frame,
    value_from_payload,
)
from repro.api.resilience import (
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
    is_retryable,
    mark_retryable,
)
from repro.api.server import apply_ws_mask, encode_ws_frame, ws_accept_value
from repro.api.spec import Provenance, QueryResult, QuerySpec, WindowSpec
from repro.exceptions import (
    CircuitOpenError,
    DataError,
    DeadlineExceeded,
    ServiceError,
)

__all__ = ["TsubasaRemoteClient"]

_OP_TEXT, _OP_BINARY = 0x1, 0x2
_OP_CLOSE, _OP_PING, _OP_PONG = 0x8, 0x9, 0xA


def _parse_address(address: str) -> tuple[str, int]:
    """``host:port`` (with or without an http/ws scheme) → ``(host, port)``."""
    target = address
    for scheme in ("http://", "ws://", "https://", "wss://"):
        if target.startswith(scheme):
            if scheme in ("https://", "wss://"):
                raise ServiceError(
                    "TLS transports are not supported; terminate TLS in a "
                    "proxy and point the client at the plain listener"
                )
            target = target[len(scheme):]
            break
    target = target.rstrip("/")
    host, sep, port = target.rpartition(":")
    if not sep or not port.isdigit():
        raise DataError(
            f"address must look like 'host:port', got {address!r}"
        )
    return host or "127.0.0.1", int(port)


class _WsClientConnection:
    """A minimal blocking RFC 6455 client connection (text + binary frames)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        handshake = (
            f"GET /v1/ws HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            f"{extra}"
            "\r\n"
        )
        self._sock.sendall(handshake.encode("latin-1"))
        head = self._read_until(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            raise ServiceError(
                f"WebSocket handshake rejected: {status_line!r}"
            )
        accept = None
        for line in head.split(b"\r\n")[1:]:
            name, sep, value = line.decode("latin-1").partition(":")
            if sep and name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        if accept != ws_accept_value(key):
            raise ServiceError("WebSocket handshake returned a bad accept key")

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                # Connection-level, not application-level: the request may
                # never have reached a healthy server, so re-issuing is safe.
                raise mark_retryable(
                    ServiceError("connection closed during WS handshake")
                )
            self._buffer += chunk
        head, self._buffer = self._buffer.split(marker, 1)
        return head

    def _read_exactly(self, n: int) -> bytes:
        while len(self._buffer) < n:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise mark_retryable(
                    ServiceError("server closed the WebSocket connection")
                )
            self._buffer += chunk
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    def send_text(self, text: str) -> None:
        self._sock.sendall(
            encode_ws_frame(_OP_TEXT, text.encode("utf-8"), mask=True)
        )

    def recv_frame(self) -> tuple[int, bytes] | None:
        """The next complete data message: ``(opcode, payload)``.

        ``None`` means the server closed the connection.
        """
        opcode0: int | None = None
        buffer = bytearray()
        while True:
            head = self._read_exactly(2)
            fin = head[0] & 0x80
            opcode = head[0] & 0x0F
            length = head[1] & 0x7F
            if length == 126:
                length = int.from_bytes(self._read_exactly(2), "big")
            elif length == 127:
                length = int.from_bytes(self._read_exactly(8), "big")
            if head[1] & 0x80:  # masked server frame: protocol violation
                mask = self._read_exactly(4)
                payload = apply_ws_mask(self._read_exactly(length), mask)
            else:
                payload = self._read_exactly(length)
            if opcode >= 0x8:
                if opcode == _OP_CLOSE:
                    try:
                        self._sock.sendall(
                            encode_ws_frame(_OP_CLOSE, payload[:2], mask=True)
                        )
                    except OSError:
                        pass
                    return None
                if opcode == _OP_PING:
                    self._sock.sendall(
                        encode_ws_frame(_OP_PONG, payload, mask=True)
                    )
                continue
            if opcode0 is None:
                opcode0 = opcode
            buffer += payload
            if fin:
                return opcode0, bytes(buffer)

    def recv_message(self) -> str | None:
        """The next complete text message (``None`` = server closed)."""
        frame = self.recv_frame()
        if frame is None:
            return None
        return frame[1].decode("utf-8")

    def close(self) -> None:
        try:
            self._sock.sendall(
                encode_ws_frame(_OP_CLOSE, (1000).to_bytes(2, "big"), mask=True)
            )
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class TsubasaRemoteClient:
    """Execute :class:`~repro.api.spec.QuerySpec` requests against a server.

    Args:
        address: The server's listening address — ``"host:port"``,
            optionally with an ``http://`` or ``ws://`` scheme prefix.
        transport: ``"http"`` (default) or ``"ws"`` for query execution;
            subscriptions always use a dedicated WebSocket connection.
        timeout: Socket timeout in seconds for every blocking operation.
        protocol: Wire encoding for results. ``"auto"`` (default) prefers
            the binary columnar v2 and falls back to v1 JSON against
            older servers (over HTTP the server simply ignores the
            ``Accept`` header; over WebSockets the hello exchange is
            rejected with an error envelope). ``1`` forces JSON; ``2``
            requires v2 (a WebSocket connection to a v1-only server
            raises :class:`~repro.exceptions.ServiceError`).
        auth_token: Optional bearer token sent as ``Authorization:
            Bearer <token>`` on every HTTP request and WebSocket
            handshake.
        retry: Optional :class:`~repro.api.resilience.RetryPolicy`. When
            set, idempotent query calls (``execute``/``execute_many`` —
            every TSUBASA query is a pure read) are transparently
            re-issued on connection failures, socket timeouts, and
            server-side 503 overload shedding, with exponential backoff
            and a retry budget. ``None`` (default) propagates every
            failure immediately, exactly as before.
        circuit_breaker: Optional
            :class:`~repro.api.resilience.CircuitBreaker` guarding this
            endpoint. Defaults to a fresh breaker when ``retry`` is set
            (pass an explicit instance to share one across clients), and
            to no breaker otherwise.
    """

    def __init__(
        self,
        address: str,
        transport: str = "http",
        timeout: float = 60.0,
        protocol: str | int = "auto",
        auth_token: str | None = None,
        retry: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
    ) -> None:
        if transport not in ("http", "ws"):
            raise DataError(
                f"transport must be 'http' or 'ws', got {transport!r}"
            )
        if protocol not in ("auto", 1, 2):
            raise DataError(
                f"protocol must be 'auto', 1, or 2, got {protocol!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise DataError(f"retry must be a RetryPolicy, got {retry!r}")
        if circuit_breaker is not None and not isinstance(
            circuit_breaker, CircuitBreaker
        ):
            raise DataError(
                f"circuit_breaker must be a CircuitBreaker, got "
                f"{circuit_breaker!r}"
            )
        self._host, self._port = _parse_address(address)
        self._transport = transport
        self._timeout = timeout
        self._protocol = protocol
        self._want_v2 = protocol in ("auto", 2)
        self._auth_token = auth_token
        self._retry = retry
        if circuit_breaker is None and retry is not None:
            circuit_breaker = CircuitBreaker()
        self._breaker = circuit_breaker
        self._budget = RetryBudget(retry) if retry is not None else None
        self._http: http.client.HTTPConnection | None = None
        self._ws: _WsClientConnection | None = None
        self._ws_protocol: int | None = None
        self._next_id = 0

    # -- plumbing ------------------------------------------------------------

    @property
    def address(self) -> str:
        """The configured ``host:port``."""
        return f"{self._host}:{self._port}"

    @property
    def transport(self) -> str:
        """The configured execution transport."""
        return self._transport

    @property
    def negotiated_protocol(self) -> int | None:
        """The WebSocket session's wire version (``None`` before connect)."""
        return self._ws_protocol

    def close(self) -> None:
        """Close any open connections (idempotent)."""
        if self._http is not None:
            self._http.close()
            self._http = None
        if self._ws is not None:
            self._ws.close()
            self._ws = None
            self._ws_protocol = None

    def __enter__(self) -> "TsubasaRemoteClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- resilience ----------------------------------------------------------

    @property
    def circuit_breaker(self) -> CircuitBreaker | None:
        """The endpoint's breaker (``None`` when resilience is off)."""
        return self._breaker

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The configured retry policy (``None`` = fail fast)."""
        return self._retry

    def _deadline_from(self, timeout: float | None) -> float | None:
        """A per-call monotonic deadline from a relative timeout."""
        if timeout is None:
            return None
        if timeout <= 0:
            raise DataError(f"timeout must be positive, got {timeout!r}")
        return time.monotonic() + float(timeout)

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(
                "call deadline expired on the client before the request "
                "could be (re)sent"
            )
        return remaining

    @staticmethod
    def _stamp(spec: QuerySpec, remaining: float | None) -> QuerySpec:
        """The spec with ``deadline_ms`` set to the remaining call budget.

        Each attempt re-derives the budget so the server sheds work the
        client has already given up on. A tighter deadline already on the
        spec wins.
        """
        if remaining is None:
            return spec
        budget_ms = max(int(remaining * 1000), 1)
        if spec.deadline_ms is not None:
            budget_ms = min(budget_ms, spec.deadline_ms)
        return replace(spec, deadline_ms=budget_ms)

    def _with_retries(
        self, attempt: Callable[[float | None], Any], deadline: float | None
    ) -> Any:
        """Run ``attempt`` under the client's retry policy and breaker.

        ``attempt`` receives the remaining per-call budget in seconds (or
        ``None``) and either returns a result or raises. Retryable
        failures (see :func:`~repro.api.resilience.is_retryable`) are
        re-issued with full-jitter backoff while attempts, budget tokens,
        and the call deadline all hold out; everything else propagates
        immediately. With no policy configured this is a single guarded
        call — the pre-PR-7 behavior plus breaker accounting.
        """
        policy = self._retry
        failures = 0
        while True:
            if self._breaker is not None and not self._breaker.allow():
                raise CircuitOpenError(
                    f"circuit for {self.address} is open after repeated "
                    f"connection failures; failing fast for up to "
                    f"{self._breaker.reset_timeout:.1f}s"
                )
            try:
                result = attempt(self._remaining(deadline))
            except Exception as exc:
                retryable = is_retryable(exc)
                if self._breaker is not None:
                    if retryable:
                        # Transport-level: counts toward opening.
                        self._breaker.record_failure()
                    else:
                        # The server answered (even if with an application
                        # error) — the endpoint is alive.
                        self._breaker.record_success()
                failures += 1
                if (
                    policy is None
                    or not retryable
                    or failures >= policy.max_attempts
                    or (self._budget is not None and not self._budget.spend())
                ):
                    raise
                delay = policy.backoff(failures - 1)
                if deadline is not None and (
                    time.monotonic() + delay >= deadline
                ):
                    raise
                if delay > 0:
                    time.sleep(delay)
                continue
            if self._breaker is not None:
                self._breaker.record_success()
            if self._budget is not None:
                self._budget.refund()
            return result

    @staticmethod
    def _shed_ids(
        answers: dict[Any, tuple[dict[str, Any], list | None]]
    ) -> list[Any]:
        """Keys whose answer is a server-marked-retryable error envelope.

        Works for both wire versions: a decoded v2 frame's meta is the
        same envelope shape as the v1 JSON dict.
        """
        return [
            key
            for key, (envelope, _buffers) in answers.items()
            if isinstance(envelope, dict)
            and isinstance(envelope.get("error"), dict)
            and envelope["error"].get("retryable")
        ]

    # -- connections ---------------------------------------------------------

    def _http_conn(self, remaining: float | None = None) -> http.client.HTTPConnection:
        if self._http is None:
            self._http = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        # Bound this attempt by the tighter of the socket timeout and the
        # call's remaining deadline budget (best effort — ``timeout`` is
        # picked up at connect; an existing socket is adjusted directly).
        budget = (
            self._timeout
            if remaining is None
            else min(self._timeout, remaining)
        )
        self._http.timeout = budget
        if self._http.sock is not None:
            try:
                self._http.sock.settimeout(budget)
            except OSError:
                pass
        return self._http

    def _auth_headers(self) -> dict[str, str]:
        if self._auth_token is None:
            return {}
        return {"Authorization": f"Bearer {self._auth_token}"}

    def _http_round_trip(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        accept_v2: bool = False,
        remaining: float | None = None,
    ) -> tuple[int, str, bytes]:
        """One HTTP exchange, reconnecting once on a stale keep-alive.

        Returns ``(status, content_type, raw_body)`` — the caller picks
        the decoder off the response content type (v2 negotiation). A
        connection-level failure after the reconnect is raised as a
        *retryable* :class:`~repro.exceptions.ServiceError` so the retry
        policy (when configured) can re-issue the call.
        """
        for attempt in (0, 1):
            conn = self._http_conn(remaining)
            try:
                headers = self._auth_headers()
                if body:
                    headers["Content-Type"] = "application/json"
                if accept_v2:
                    headers["Accept"] = CONTENT_TYPE_V2
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, OSError) as exc:
                self._http.close()
                self._http = None
                if attempt:
                    raise mark_retryable(
                        ServiceError(
                            f"HTTP request to {self.address} failed: {exc}"
                        )
                    ) from exc
        return (
            response.status,
            response.getheader("Content-Type", "") or "",
            data,
        )

    def _http_json(
        self, method: str, path: str, body: bytes | None = None
    ) -> Any:
        status, _content_type, data = self._http_round_trip(method, path, body)
        try:
            return json.loads(data)
        except ValueError as exc:
            raise ServiceError(
                f"server returned invalid JSON (HTTP {status})"
            ) from exc

    def _ws_conn(self) -> _WsClientConnection:
        if self._ws is None:
            conn = _WsClientConnection(
                self._host, self._port, self._timeout,
                headers=self._auth_headers(),
            )
            self._ws = conn
            self._ws_protocol = self._negotiate_ws(conn)
        return self._ws

    def _negotiate_ws(self, conn: _WsClientConnection) -> int:
        """The hello exchange: prefer v2, fall back to v1 on rejection."""
        if not self._want_v2:
            return PROTOCOL_VERSION
        hello = {
            "protocol": PROTOCOL_VERSION,
            "id": self._take_id(),
            "hello": {"protocols": list(SUPPORTED_PROTOCOLS)},
        }
        conn.send_text(json.dumps(hello))
        frame = conn.recv_frame()
        if frame is None:
            raise ServiceError("server closed during protocol negotiation")
        try:
            envelope = json.loads(frame[1].decode("utf-8"))
        except ValueError as exc:
            raise ServiceError(
                f"malformed protocol negotiation reply: {exc}"
            ) from exc
        if (
            isinstance(envelope, dict)
            and envelope.get("ok") is True
            and isinstance(envelope.get("result"), dict)
            and isinstance(envelope["result"].get("hello"), dict)
        ):
            return int(envelope["result"]["hello"]["protocol"])
        # A v1-only server rejects the unknown "hello" field with an error
        # envelope — that *is* the downgrade signal.
        if self._protocol == 2:
            raise ServiceError(
                f"server at {self.address} does not speak protocol v2"
            )
        return PROTOCOL_VERSION

    def _recv_envelope(
        self, conn: _WsClientConnection
    ) -> tuple[Any, list | None] | None:
        """One server frame as ``(envelope_dict, buffers-or-None)``."""
        frame = conn.recv_frame()
        if frame is None:
            return None
        opcode, data = frame
        if opcode == _OP_BINARY:
            meta, buffers, _end = decode_frame(data)
            return meta, buffers
        return json.loads(data.decode("utf-8")), None

    # -- result assembly -----------------------------------------------------

    @staticmethod
    def _provenance_from(payload: dict[str, Any] | None) -> Provenance | None:
        if payload is None:
            return None
        known = {f.name for f in fields(Provenance)}
        return Provenance(
            **{key: value for key, value in payload.items() if key in known}
        )

    def _result_from(
        self,
        spec: QuerySpec,
        frame: Response,
        buffers: list | None = None,
    ) -> QueryResult:
        if buffers is not None:
            value = value_from_payload_v2(spec, frame.result, buffers)
        else:
            value = value_from_payload(spec, frame.result)
        return QueryResult(
            spec=spec,
            value=value,
            timings={"total": frame.seconds},
            provenance=self._provenance_from(frame.provenance),
        )

    def _complete(
        self,
        spec: QuerySpec,
        envelope: dict[str, Any],
        buffers: list | None = None,
    ) -> QueryResult:
        frame = parse_frame(envelope)
        if isinstance(frame, ErrorEnvelope):
            raise frame.to_exception()
        if not isinstance(frame, Response):
            raise ServiceError(
                f"expected a response frame, got {type(frame).__name__}"
            )
        return self._result_from(spec, frame, buffers)

    # -- the TsubasaClient surface -------------------------------------------

    def execute(
        self, spec: QuerySpec, timeout: float | None = None
    ) -> QueryResult:
        """Execute one spec remotely; mirrors ``TsubasaClient.execute``.

        Args:
            spec: The query to run.
            timeout: Optional per-call deadline in seconds. Propagated to
                the server as the spec's ``deadline_ms`` (remaining budget
                per attempt) so expired work is shed there too; the call
                raises :class:`~repro.exceptions.DeadlineExceeded` once
                the budget is spent, retries included.
        """
        if not isinstance(spec, QuerySpec):
            raise DataError(f"expected a QuerySpec, got {type(spec)!r}")
        if self._transport == "ws":
            return self._ws_execute_many([spec], timeout=timeout)[0]
        deadline = self._deadline_from(timeout)

        def attempt(remaining: float | None) -> QueryResult:
            request = Request(
                spec=self._stamp(spec, remaining), id=self._take_id()
            )
            status, content_type, data = self._http_round_trip(
                "POST", "/v1/query", request.to_json().encode(),
                accept_v2=self._want_v2, remaining=remaining,
            )
            if content_type.startswith(CONTENT_TYPE_V2):
                meta, buffers, _end = decode_frame(data)
                return self._complete(spec, meta, buffers)
            try:
                envelope = json.loads(data)
            except ValueError as exc:
                raise ServiceError(
                    f"server returned invalid JSON (HTTP {status})"
                ) from exc
            return self._complete(spec, envelope)

        return self._with_retries(attempt, deadline)

    def execute_many(
        self, specs: list[QuerySpec], timeout: float | None = None
    ) -> list[QueryResult]:
        """Execute several specs remotely, in spec order.

        Over HTTP this is one ``/v1/batch`` round trip; over WebSockets the
        requests are pipelined on one connection and completions are
        matched by id as they arrive (out of order). With a retry policy
        configured, only the requests still missing an answer are
        re-issued after a failure — completed work is never re-sent.

        Args:
            specs: The queries to run.
            timeout: Optional per-call deadline in seconds covering the
                whole batch, retries included (see :meth:`execute`).
        """
        for spec in specs:
            if not isinstance(spec, QuerySpec):
                raise DataError(f"expected a QuerySpec, got {type(spec)!r}")
        if not specs:
            return []
        if self._transport == "ws":
            return self._ws_execute_many(list(specs), timeout=timeout)
        return self._http_execute_many(list(specs), timeout)

    def _http_execute_many(
        self, specs: list[QuerySpec], timeout: float | None
    ) -> list[QueryResult]:
        deadline = self._deadline_from(timeout)
        # Answers survive across attempts, keyed by position in ``specs``:
        # a retry re-issues only the still-unanswered requests.
        answers: dict[int, tuple[dict[str, Any], list | None]] = {}

        def attempt(remaining: float | None) -> None:
            pending = [i for i in range(len(specs)) if i not in answers]
            ids: dict[Any, int] = {}
            frames = []
            for index in pending:
                request_id = self._take_id()
                ids[request_id] = index
                frames.append(
                    Request(
                        spec=self._stamp(specs[index], remaining),
                        id=request_id,
                    ).to_dict()
                )
            status, content_type, data = self._http_round_trip(
                "POST", "/v1/batch", json.dumps(frames).encode(),
                accept_v2=self._want_v2, remaining=remaining,
            )
            decoded: list[tuple[dict[str, Any], list | None]]
            if content_type.startswith(CONTENT_TYPE_V2):
                decoded = []
                offset = 0
                while offset < len(data):
                    meta, buffers, offset = decode_frame(data, offset)
                    decoded.append((meta, buffers))
            else:
                try:
                    envelopes = json.loads(data)
                except ValueError as exc:
                    raise ServiceError(
                        f"server returned invalid JSON (HTTP {status})"
                    ) from exc
                if isinstance(envelopes, dict):
                    # A whole-batch failure (bad body, auth) is a single
                    # envelope.
                    frame = parse_frame(envelopes)
                    if isinstance(frame, ErrorEnvelope):
                        raise frame.to_exception()
                if not isinstance(envelopes, list):
                    raise ServiceError(
                        f"batch returned {envelopes!r} for "
                        f"{len(pending)} requests"
                    )
                decoded = [(envelope, None) for envelope in envelopes]
            if len(decoded) != len(pending):
                raise ServiceError(
                    f"batch returned {len(decoded)} frames for "
                    f"{len(pending)} requests"
                )
            for position, (envelope, buffers) in enumerate(decoded):
                frame_id = (
                    envelope.get("id") if isinstance(envelope, dict) else None
                )
                answers[ids.get(frame_id, pending[position])] = (
                    envelope, buffers,
                )
            self._reraise_shed(answers)

        self._with_retries(attempt, deadline)
        return [
            self._complete(spec, *answers[index])
            for index, spec in enumerate(specs)
        ]

    def _reraise_shed(
        self, answers: dict[Any, tuple[dict[str, Any], list | None]]
    ) -> None:
        """Convert server-shed answers back into a retryable failure.

        Only when a retry policy is configured: the shed envelopes are
        dropped from ``answers`` and a retryable error is raised so the
        next attempt re-issues exactly those requests. Without a policy
        the envelopes stay put and surface as exceptions at completion
        time — the pre-PR-7 behavior.
        """
        if self._retry is None:
            return
        shed = self._shed_ids(answers)
        if shed:
            for key in shed:
                del answers[key]
            raise mark_retryable(
                ServiceError(
                    f"server shed {len(shed)} request(s) under overload"
                )
            )

    def _ws_execute_many(
        self, specs: list[QuerySpec], timeout: float | None = None
    ) -> list[QueryResult]:
        deadline = self._deadline_from(timeout)
        # Ids are issued once per call; answers persist across reconnects
        # so a retry re-sends only the requests still outstanding.
        requests = [(self._take_id(), spec) for spec in specs]
        answers: dict[int, tuple[dict[str, Any], list | None]] = {}

        def attempt(remaining: float | None) -> None:
            try:
                conn = self._ws_conn()
                if remaining is not None:
                    # Bound this attempt's socket waits by the remaining
                    # call budget (best effort; a timeout is retryable).
                    try:
                        conn._sock.settimeout(min(self._timeout, remaining))
                    except OSError:
                        pass
                for request_id, spec in requests:
                    if request_id in answers:
                        continue
                    conn.send_text(
                        Request(
                            spec=self._stamp(spec, remaining), id=request_id
                        ).to_json()
                    )
                by_id = {request_id for request_id, _spec in requests}
                while len(answers) < len(requests):
                    received = self._recv_envelope(conn)
                    if received is None:
                        raise mark_retryable(
                            ServiceError(
                                "server closed the connection with "
                                f"{len(requests) - len(answers)} responses "
                                "outstanding"
                            )
                        )
                    envelope, buffers = received
                    frame_id = (
                        envelope.get("id")
                        if isinstance(envelope, dict)
                        else None
                    )
                    if frame_id in by_id and frame_id not in answers:
                        answers[frame_id] = (envelope, buffers)
                    # Anything else (a duplicate from a re-issued request,
                    # a stray push) is unmatchable by construction — so
                    # drop it rather than buffer it forever.
            except (OSError, ServiceError):
                # The connection is suspect; the next attempt (or call)
                # renegotiates from scratch.
                self.close()
                raise
            # Outside the connection guard: shed answers mean the server
            # and socket are healthy, so keep the session open and only
            # re-issue the shed requests.
            self._reraise_shed(answers)

        self._with_retries(attempt, deadline)
        return [
            self._complete(spec, *answers[request_id])
            for request_id, spec in requests
        ]

    # -- streaming -----------------------------------------------------------

    def subscribe(
        self,
        theta: float,
        window: WindowSpec | None = None,
        window_points: int | None = None,
        max_events: int | None = None,
        resume_from: int | None = None,
        auto_resume: bool | None = None,
    ) -> Iterator[StreamEvent]:
        """Consume a ``subscribe`` op as an iterator of stream events.

        Opens a dedicated WebSocket connection (whatever the configured
        transport), sends the subscription request, and yields
        :class:`~repro.api.protocol.StreamEvent` frames in sequence order
        until the server completes the stream, ``max_events`` is reached,
        or an error envelope arrives (raised as the matching
        :class:`~repro.exceptions.TsubasaError` subclass).

        Args:
            theta: Subscription network threshold (must be at or above the
                server's base stream threshold).
            window: The standing query window; must match the server's
                standing window length.
            window_points: Convenience alternative to ``window``: the
                standing window length in raw points (as reported by
                ``/v1/stats`` under ``realtime.window_points``).
            max_events: Stop (and close the connection) after this many
                events; ``None`` consumes until the stream completes.
            resume_from: The last sequence number already seen (e.g. a
                previous event's ``seq``). The server replays ``seq+1``
                onward from its bounded ring, or sends one explicit *gap*
                event (``event["gap"] is True``) when the requested
                snapshots aged out or the stream restarted.
            auto_resume: Transparently reconnect-and-resume from the last
                delivered seq when the connection drops mid-stream.
                Defaults to on when the client has a retry policy, off
                otherwise. Reconnect attempts are bounded by the policy
                (or :class:`~repro.api.resilience.RetryPolicy` defaults)
                and reset after each successful event.
        """
        if (window is None) == (window_points is None):
            raise DataError(
                "subscribe needs exactly one of window or window_points"
            )
        if window is None:
            window = WindowSpec(start=0, stop=int(window_points))
        spec = QuerySpec(
            op="subscribe", window=window, theta=theta,
            resume_from=resume_from,
        )
        if auto_resume is None:
            auto_resume = self._retry is not None
        return self._subscribe_events(spec, max_events, auto_resume)

    def _subscribe_events(
        self, spec: QuerySpec, max_events: int | None, auto_resume: bool
    ) -> Iterator[StreamEvent]:
        policy = self._retry if self._retry is not None else RetryPolicy()
        delivered = 0
        last_seq = spec.resume_from
        failures = 0  # consecutive connection-level failures
        while True:
            current = spec if last_seq is None else replace(
                spec, resume_from=last_seq
            )
            request = Request(spec=current, id=self._take_id())
            conn: _WsClientConnection | None = None
            try:
                conn = _WsClientConnection(
                    self._host, self._port, self._timeout,
                    headers=self._auth_headers(),
                )
                self._negotiate_ws(conn)
                conn.send_text(request.to_json())
                # The first frame is the subscription ack (or an error).
                received = self._recv_envelope(conn)
                if received is None:
                    raise mark_retryable(
                        ServiceError("server closed before acknowledging")
                    )
                ack = parse_frame(received[0])
                if isinstance(ack, ErrorEnvelope):
                    raise ack.to_exception()
                while max_events is None or delivered < max_events:
                    received = self._recv_envelope(conn)
                    if received is None:
                        if auto_resume:
                            # No complete-response frame: the server (or
                            # the path to it) died mid-stream. Resume.
                            raise mark_retryable(
                                ServiceError("connection lost mid-stream")
                            )
                        return
                    frame = parse_frame(received[0])
                    if isinstance(frame, ErrorEnvelope):
                        raise frame.to_exception()
                    if isinstance(frame, Response):
                        return  # stream completed cleanly
                    failures = 0
                    if not frame.event.get("gap"):
                        # Gap markers describe missing data; only real
                        # snapshots advance the resume cursor.
                        last_seq = frame.seq
                    yield frame
                    delivered += 1
                return
            except Exception as exc:
                if not (auto_resume and is_retryable(exc)):
                    raise
                failures += 1
                if failures >= policy.max_attempts:
                    raise
                delay = policy.backoff(failures - 1)
                if delay > 0:
                    time.sleep(delay)
            finally:
                if conn is not None:
                    conn.close()

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The server's ``/v1/stats`` payload (server + service counters)."""
        return self._http_json("GET", "/v1/stats")

    def health(self, deep: bool = False) -> dict[str, Any]:
        """The server's ``/healthz`` payload.

        Args:
            deep: Ask for the readiness probe (``/healthz?deep=1``):
                adds store generation, hub liveness, and in-flight budget
                utilization, with ``ok: false`` when degraded.
        """
        path = "/healthz?deep=1" if deep else "/healthz"
        return self._http_json("GET", path)
