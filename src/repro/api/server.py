"""One request core for every transport, behind three byte adapters.

:class:`TsubasaServer` owns the transport-neutral request core: a decoded
frame goes through :func:`~repro.api.protocol.parse_request` and one id
fallback, then either through the service as a query (a completion comes
back) or through the one subscription loop, which bridges a
:class:`~repro.streams.hub.SnapshotHub` into
:class:`~repro.api.protocol.StreamEvent` envelopes (ack, gap, events, then a
completion or a lag error). Three adapters only move bytes in and
envelopes out:

* **HTTP/1.1** (keep-alive) for request/response:

  ============================  =============================================
  ``POST /v1/query``            one :class:`~repro.api.protocol.Request`
                                frame in, one completion envelope out
  ``POST /v1/batch``            a JSON array of request frames; executed
                                concurrently through the service (windows
                                coalesce), answered as an array in input
                                order
  ``GET /v1/stats``             server + service counters
  ``GET /healthz``              liveness probe
  ============================  =============================================

* **RFC 6455 WebSockets** on ``GET /v1/ws``: each text message is a request
  frame; completions come back **out of order**, matched by ``id``, and
  ``subscribe`` streams into the connection's bounded send queue.
* **JSON lines** (:meth:`TsubasaServer.serve_json_lines`, the default
  ``tsubasa serve`` mode): one request frame per input line, one envelope
  per output line, queries answered in submission order and
  ``subscribe`` streams interleaved with them.

HTTP and WebSocket share one listening socket. Deployment properties:

* **Per-client backpressure** — every WebSocket connection owns a bounded
  send queue drained by a writer task. A consumer that stops reading fills
  its queue and is disconnected (slow-consumer policy) instead of growing
  server memory; the subscription layer applies the same bound upstream
  (:class:`~repro.streams.hub.Subscription`).
* **Concurrent-request limits** — at most ``max_inflight`` requests may be
  executing per WebSocket connection (and per HTTP batch); excess requests
  are rejected immediately with a ``ServiceError`` envelope rather than
  queued without bound.
* **Graceful drain** — :meth:`TsubasaServer.aclose` stops accepting, lets
  in-flight requests finish (bounded by ``drain_timeout``), closes
  WebSocket sessions with a going-away frame, and drains the underlying
  service via its own ``aclose()``. :meth:`TsubasaServer.pumping` gives
  every entry point the same live-stream lifecycle.

Everything is standard library: ``asyncio`` streams, ``hashlib``/``base64``
for the WebSocket handshake. :func:`serve_in_thread` runs the whole stack on
a background event loop for synchronous harnesses (tests, benchmarks, the
smoke script).
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import json
import logging
import os
import socket
import threading
from collections.abc import AsyncIterator, Awaitable, Callable, Iterable
from time import perf_counter
from typing import Any, TextIO
from urllib.parse import parse_qs

from repro.api.frames import (
    CONTENT_TYPE_V2,
    encode_envelope,
    encode_error_v2,
    encode_response_v2,
)
from repro.api.protocol import (
    PROTOCOL_V2,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    ErrorEnvelope,
    Request,
    Response,
    StreamEvent,
    parse_request,
)
from repro.api.service import TsubasaService
from repro.api.spec import WindowSpec
from repro.exceptions import (
    DataError,
    DeadlineExceeded,
    ServiceError,
    StreamError,
    TsubasaError,
)
from repro.streams.hub import SnapshotHub

__all__ = [
    "TsubasaServer",
    "ServerHandle",
    "serve_in_thread",
    "apply_ws_mask",
    "encode_ws_frame",
    "ws_accept_value",
]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_OP_CONT, _OP_TEXT, _OP_BINARY = 0x0, 0x1, 0x2
_OP_CLOSE, _OP_PING, _OP_PONG = 0x8, 0x9, 0xA

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

logger = logging.getLogger("repro.api.server")


class _Completion:
    """One finished request: either a result or the exception that ended it.

    Materializing the wire form is deferred so the transport can pick the
    negotiated encoding (v1 JSON envelope or v2 binary frame) per
    connection.
    """

    __slots__ = ("request_id", "result", "error", "overloaded")

    def __init__(self, request_id, result=None, error=None, overloaded=False):
        self.request_id = request_id
        self.result = result
        self.error = error
        self.overloaded = overloaded

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        """The v1 JSON envelope."""
        if self.error is not None:
            return ErrorEnvelope.from_exception(
                self.error, self.request_id, retryable=self.overloaded
            ).to_dict()
        return Response.from_result(self.result, self.request_id).to_dict()

    def to_v2_bytes(self) -> bytes:
        """The binary v2 frame."""
        if self.error is not None:
            return encode_error_v2(
                ErrorEnvelope.from_exception(
                    self.error, self.request_id, retryable=self.overloaded
                )
            )
        return encode_response_v2(self.result, self.request_id)


class _BadRequest(DataError):
    """An HTTP request that cannot be served (maps to a 4xx envelope).

    A :class:`~repro.exceptions.DataError` subclass so the library's one
    error taxonomy stays total (malformed input, code 3); additionally
    carries the HTTP status the connection loop should answer with.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def apply_ws_mask(data: bytes, mask: bytes) -> bytes:
    """XOR-(un)mask a WebSocket payload (RFC 6455 §5.3)."""
    if not data:
        return b""
    repeated = (mask * (len(data) // 4 + 1))[: len(data)]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(repeated, "big")
    ).to_bytes(len(data), "big")


def encode_ws_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """Encode one WebSocket frame (server frames unmasked, client masked)."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += length.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += length.to_bytes(8, "big")
    if mask:
        key = os.urandom(4)
        return bytes(header) + key + apply_ws_mask(payload, key)
    return bytes(header) + payload


def ws_accept_value(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a handshake key (RFC 6455)."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _window_points(window: WindowSpec, window_size: int) -> int:
    """A window spec's length in raw points (no plan needed)."""
    if window.length is not None:
        return int(window.length)
    if window.stop is not None:
        return int(window.stop - window.start)
    return int(window.n_windows) * window_size


class _WsSession:
    """Per-WebSocket-connection state: bounded send queue + writer task."""

    def __init__(self, server: "TsubasaServer", writer: asyncio.StreamWriter) -> None:
        self.server = server
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=server.send_buffer)
        self.inflight = 0
        self.tasks: set[asyncio.Task] = set()
        self.closing = False
        self.writer_task: asyncio.Task | None = None
        #: Monotonic stamp of the last frame header read from this peer
        #: (any frame counts — data, pong, even an unsolicited ping). The
        #: keepalive task compares it against the idle timeout.
        self.last_recv = perf_counter()
        #: Negotiated wire version for server→client frames (the WS hello
        #: exchange switches this to 2; requests stay JSON text either way).
        self.protocol = PROTOCOL_VERSION
        #: Per-connection max_inflight rejections (summarized at disconnect).
        self.rejections = 0

    def send_envelope(self, payload: dict[str, Any]) -> bool:
        """Queue one buffer-free envelope in the session's wire version."""
        started = perf_counter()
        if self.protocol == PROTOCOL_V2:
            opcode, data = _OP_BINARY, encode_envelope(payload)
        else:
            opcode, data = _OP_TEXT, json.dumps(payload).encode()
        sent = self._enqueue((opcode, data))
        self.server._account_encode(
            self.protocol, perf_counter() - started, len(data) if sent else 0
        )
        return sent

    async def deliver(self, payload: dict[str, Any]) -> bool:
        """:meth:`send_envelope` as the sink the subscription loop awaits."""
        return self.send_envelope(payload)

    def send_completion(self, completion: "_Completion") -> bool:
        """Queue one request completion in the session's wire version."""
        started = perf_counter()
        if self.protocol == PROTOCOL_V2:
            opcode, data = _OP_BINARY, completion.to_v2_bytes()
        else:
            opcode, data = _OP_TEXT, json.dumps(completion.to_dict()).encode()
        sent = self._enqueue((opcode, data))
        self.server._account_encode(
            self.protocol, perf_counter() - started, len(data) if sent else 0
        )
        return sent

    def send_close(self, code: int = 1000, reason: str = "") -> None:
        body = code.to_bytes(2, "big") + reason.encode()[:100]
        self.closing = True
        try:
            self.queue.put_nowait((_OP_CLOSE, body))
        except asyncio.QueueFull:
            # The queue is wedged anyway; the writer task is cancelled on
            # teardown and the transport closed underneath it.
            pass

    def _enqueue(self, item: tuple[int, bytes]) -> bool:
        if self.closing:
            return False
        try:
            self.queue.put_nowait(item)
        except asyncio.QueueFull:
            # The client is not draining its socket: the writer task is
            # parked in drain() against full kernel buffers and the queue
            # bound is spent, so a polite close frame cannot get through
            # either. Abort the transport — freeing the server's memory is
            # the policy; the slow consumer sees a reset.
            self.server.stats["slow_consumer_disconnects"] += 1
            self.abort()
            return False
        return True

    def abort(self) -> None:
        """Force-close a connection whose consumer stopped draining."""
        self.closing = True
        if self.writer_task is not None:
            self.writer_task.cancel()
        transport = self.writer.transport
        try:
            transport.abort()
        except (OSError, RuntimeError):
            pass

    async def run_writer(self) -> None:
        """Drain the send queue onto the socket (one writer per client)."""
        try:
            while True:
                opcode, payload = await self.queue.get()
                self.writer.write(encode_ws_frame(opcode, payload))
                await self.writer.drain()
                if opcode == _OP_CLOSE:
                    return
        except (ConnectionError, asyncio.CancelledError):
            raise
        except OSError:
            return

    def spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)
        return task

    async def teardown(self) -> None:
        self.closing = True
        for task in list(self.tasks):
            task.cancel()
        if self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)
        if self.writer_task is not None and not self.writer_task.done():
            # Give the writer a bounded chance to flush queued frames — in
            # particular the close frame ending this session, so the peer
            # sees a proper WebSocket close instead of a TCP reset. The
            # writer exits on its own after writing a close frame; queue
            # one in case the session ended without (e.g. client EOF).
            self.send_close(1000)
            try:
                await asyncio.wait_for(self.writer_task, timeout=1.0)
            except (
                asyncio.TimeoutError,
                asyncio.CancelledError,
                ConnectionError,
                OSError,
            ):
                self.writer_task.cancel()
                try:
                    await self.writer_task
                except (asyncio.CancelledError, ConnectionError, OSError):
                    pass


class TsubasaServer:
    """The request core over one :class:`TsubasaService`, and its adapters.

    Args:
        service: The query service answering request frames. The server
            owns its drain: :meth:`aclose` calls ``service.aclose()``.
        hub: Optional :class:`~repro.streams.hub.SnapshotHub` enabling the
            ``subscribe`` op on WebSocket connections and JSON lines;
            without one, subscriptions are rejected with a ``ServiceError``
            envelope.
        max_inflight: Concurrent requests allowed per WebSocket connection
            (and per HTTP batch); excess requests get immediate error
            envelopes.
        max_inflight_total: Optional server-wide in-flight request budget
            shared across every connection (per worker process when running
            multi-process acceptors). When the budget is spent, further
            requests are shed immediately with a ``ServiceError`` envelope
            (HTTP 503) instead of queueing; ``None`` disables the budget.
        auth_token: Optional bearer-token auth hook, checked before any
            request body is parsed. A string must equal the
            ``Authorization: Bearer <token>`` header; a callable receives
            the presented token (or ``None``) and returns truthy to admit.
            ``GET /healthz`` stays open for liveness probes.
        enable_v2: Advertise/serve the binary columnar protocol v2. Off,
            the server behaves exactly like a v1-only build — the knob
            exists so tests can exercise client fallback against an "old"
            server.
        send_buffer: Per-WebSocket-client send queue bound, in frames, and
            every subscription's event buffer in the hub. A client that
            falls this many frames behind is disconnected.
        max_body_bytes: Largest accepted HTTP request body.
        max_message_bytes: Largest accepted WebSocket message.
        drain_timeout: Seconds :meth:`aclose` waits for in-flight requests
            before cancelling them.
        ws_write_buffer_bytes: Transport-level write buffer bound per
            WebSocket connection (the asyncio high-water mark and, best
            effort, ``SO_SNDBUF``). Together with ``send_buffer`` this is
            what makes the slow-consumer bound real — without it the
            kernel's default send buffer absorbs hundreds of kilobytes
            before backpressure reaches the send queue.
        ws_ping_interval: Seconds between server-initiated WebSocket
            pings on otherwise-quiet connections. ``0`` disables
            keepalive (pre-PR-7 behavior: only client pings are answered).
        ws_idle_timeout: Seconds of silence — no frame of any kind from
            the peer, pongs included — after which a connection is
            declared dead and aborted, freeing its send queue and any
            subscriptions. Must exceed ``ws_ping_interval`` so a healthy
            peer always gets a ping to answer before the axe falls.
    """

    def __init__(
        self,
        service: TsubasaService,
        hub: SnapshotHub | None = None,
        max_inflight: int = 64,
        send_buffer: int = 64,
        max_body_bytes: int = 16 * 1024 * 1024,
        max_message_bytes: int = 4 * 1024 * 1024,
        drain_timeout: float = 10.0,
        ws_write_buffer_bytes: int = 64 * 1024,
        max_inflight_total: int | None = None,
        auth_token: str | Callable[[str | None], bool] | None = None,
        enable_v2: bool = True,
        ws_ping_interval: float = 20.0,
        ws_idle_timeout: float = 60.0,
    ) -> None:
        if not isinstance(service, TsubasaService):
            raise DataError(f"expected a TsubasaService, got {type(service)!r}")
        if max_inflight <= 0:
            raise DataError("max_inflight must be positive")
        if send_buffer <= 0:
            raise DataError("send_buffer must be positive")
        if max_inflight_total is not None and max_inflight_total <= 0:
            raise DataError("max_inflight_total must be positive or None")
        if ws_ping_interval < 0 or ws_idle_timeout < 0:
            raise DataError("WebSocket keepalive intervals must be >= 0")
        if (
            ws_ping_interval > 0
            and ws_idle_timeout > 0
            and ws_idle_timeout <= ws_ping_interval
        ):
            raise DataError(
                "ws_idle_timeout must exceed ws_ping_interval (a healthy "
                "peer needs at least one ping to answer)"
            )
        self._service = service
        self._hub = hub
        self.max_inflight = max_inflight
        self.send_buffer = send_buffer
        self.max_body_bytes = max_body_bytes
        self.max_message_bytes = max_message_bytes
        self.drain_timeout = drain_timeout
        self.ws_write_buffer_bytes = ws_write_buffer_bytes
        self.max_inflight_total = max_inflight_total
        self.auth_token = auth_token
        self.enable_v2 = enable_v2
        self.ws_ping_interval = ws_ping_interval
        self.ws_idle_timeout = ws_idle_timeout
        self._server: asyncio.base_events.Server | None = None
        self._closing = False
        self._closed = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._ws_sessions: set[_WsSession] = set()
        self._auto_id = 0
        self._inflight_total = 0
        self.stats: dict[str, int] = {
            "connections_total": 0,
            "ws_connections_total": 0,
            "http_requests": 0,
            "ws_requests": 0,
            "subscriptions_opened": 0,
            "slow_consumer_disconnects": 0,
            "overload_rejections": 0,
            "rejected_global_budget": 0,
            "auth_failures": 0,
            "keepalive_disconnects": 0,
        }
        #: Wire-side accounting, keyed by protocol version: how many
        #: requests each version answered, seconds spent encoding
        #: responses, and response bytes queued to sockets.
        self.wire: dict[str, dict[str, float]] = {
            f"v{version}": {
                "requests": 0,
                "encode_seconds": 0.0,
                "bytes_sent": 0,
            }
            for version in SUPPORTED_PROTOCOLS
        }

    def _account_encode(
        self, version: int, seconds: float, nbytes: int
    ) -> None:
        wire = self.wire[f"v{version}"]
        wire["encode_seconds"] += seconds
        wire["bytes_sent"] += nbytes

    # -- lifecycle -----------------------------------------------------------

    @property
    def service(self) -> TsubasaService:
        """The underlying query service."""
        return self._service

    @property
    def hub(self) -> SnapshotHub | None:
        """The realtime snapshot hub, when one is attached."""
        return self._hub

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def host(self) -> str:
        """The bound host (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return str(self._server.sockets[0].getsockname()[0])

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> "TsubasaServer":
        """Bind and start accepting connections (service started too).

        With ``reuse_port`` the listening socket is opened with
        ``SO_REUSEPORT``, letting several acceptor processes share one port
        (the kernel load-balances incoming connections across them). Raises
        :class:`~repro.exceptions.ServiceError` where the platform lacks
        the option.
        """
        if self._closed:
            raise ServiceError("server is closed")
        if self._server is not None:
            return self
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ServiceError(
                "SO_REUSEPORT is not available on this platform; run a "
                "single acceptor"
            )
        await self._service.start()
        kwargs: dict[str, Any] = {"reuse_port": True} if reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port, **kwargs
        )
        return self

    async def serve_forever(self) -> None:
        """Block until the server is closed."""
        if self._server is None:
            raise ServiceError("server is not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, shut down."""
        if self._closed:
            return
        self._closing = True
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight requests complete (their responses still flush to
        # connected clients), bounded by the drain timeout.
        if self._request_tasks:
            await asyncio.wait(
                set(self._request_tasks), timeout=self.drain_timeout
            )
        for task in list(self._request_tasks):
            task.cancel()
        # Give connection handlers a short window to write the drained
        # responses (idle keep-alive connections never finish on their own,
        # so this is a scheduling grace period, not a completion wait)...
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=0.25)
        # ... then tell WebSocket clients we are going away and drop
        # whatever connections remain.
        for session in list(self._ws_sessions):
            session.send_close(1001, "server shutting down")
        if self._ws_sessions:
            await asyncio.sleep(0)  # one cycle for writer tasks to flush
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._service.aclose()

    async def __aenter__(self) -> "TsubasaServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- request handling (transport-independent) ----------------------------

    def _next_id(self) -> str:
        self._auto_id += 1
        return f"auto-{self._auto_id}"

    @staticmethod
    def _frame_id(payload: Any) -> str | int | None:
        """Best-effort id extraction from a frame that failed to parse."""
        if isinstance(payload, dict):
            request_id = payload.get("id")
            if isinstance(request_id, (str, int)) and not isinstance(
                request_id, bool
            ):
                return request_id
        return None

    async def _answer(self, request: Request) -> _Completion:
        """Execute one parsed request through the service."""
        request_id = request.id if request.id is not None else self._next_id()
        if request.spec.op == "subscribe":
            return _Completion(
                request_id,
                error=ServiceError(
                    "subscribe is a streaming op; connect to the WebSocket "
                    "endpoint /v1/ws to consume it"
                ),
            )
        if (
            self.max_inflight_total is not None
            and self._inflight_total >= self.max_inflight_total
        ):
            self.stats["rejected_global_budget"] += 1
            return _Completion(
                request_id,
                error=ServiceError(
                    f"server at capacity (global in-flight budget "
                    f"{self.max_inflight_total} spent); retry later"
                ),
                overloaded=True,
            )
        task = asyncio.get_running_loop().create_task(
            self._service.submit(request.spec)
        )
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)
        self._inflight_total += 1
        try:
            result = await task
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-request envelope
            return _Completion(request_id, error=exc)
        finally:
            self._inflight_total -= 1
        return _Completion(request_id, result=result)

    def _parse_frame(
        self, payload: Any, fallback_id: str | int | None = None
    ) -> Request | _Completion:
        """``parse_request`` plus the id fallback every transport shares.

        A valid frame without an id takes ``fallback_id`` (stdin passes the
        line number; sockets pass nothing and get :meth:`_next_id` ids when
        answered). An invalid frame becomes its error completion, under the
        frame's own id only when that id is itself valid, else under
        ``fallback_id``.
        """
        try:
            request = parse_request(payload)
        except TsubasaError as exc:
            frame_id = self._frame_id(payload)
            return _Completion(
                fallback_id if frame_id is None else frame_id, error=exc
            )
        if request.id is None and fallback_id is not None:
            request = Request(spec=request.spec, id=fallback_id)
        return request

    async def _answer_frame(self, payload: Any) -> _Completion:
        """Parse + execute one raw frame, never raising."""
        parsed = self._parse_frame(payload)
        if isinstance(parsed, _Completion):
            return parsed
        return await self._answer(parsed)

    async def _stream(
        self,
        request: Request,
        send: Callable[[dict[str, Any]], Awaitable[bool]],
    ) -> bool:
        """The subscription loop every streaming transport runs.

        Checks the hub and the window, subscribes, then sends the ack, the
        gap event a resume may owe, one :class:`StreamEvent` per snapshot,
        and last the completion — or the error, when the hub dropped this
        subscriber for lagging. ``send`` queues one envelope and returns
        False once the transport has given up on its consumer; the stream
        then stops without another word. Returns whether the subscriber
        lagged, so the transport can apply its own disconnect policy.
        """
        spec = request.spec
        request_id = request.id if request.id is not None else self._next_id()
        hub = self._hub
        try:
            if hub is None or hub.closed:
                raise ServiceError(
                    "this server has no live stream attached; subscribe is "
                    "unavailable (tsubasa serve attaches one with "
                    "--stream-data DATA, on stdin or with --http)"
                )
            points = _window_points(spec.window, hub.window_size)
            if points != hub.window_points:
                raise StreamError(
                    f"subscribe window selects {points} points, but the "
                    f"standing query window is {hub.window_points} "
                    f"points ({hub.window_points // hub.window_size} "
                    f"basic windows of {hub.window_size})"
                )
            # The same bound as the transport's send queue: the documented
            # per-client backpressure limit applies upstream too.
            subscription = hub.subscribe(
                theta=spec.theta,
                max_pending=self.send_buffer,
                resume_from=spec.resume_from,
            )
        except TsubasaError as exc:
            await send(ErrorEnvelope.from_exception(exc, request_id).to_dict())
            return False
        self.stats["subscriptions_opened"] += 1
        ack = Response(
            result={
                "subscribed": True,
                "theta": subscription.theta,
                "window_points": hub.window_points,
                "window_size": hub.window_size,
                "last_seq": hub.last_seq,
            },
            id=request_id,
        )
        events = 0
        try:
            if not await send(ack.to_dict()):
                return False
            if subscription.pending_gap is not None:
                # The resume point aged out of the replay ring (or the hub
                # was restarted). One explicit gap event tells the client
                # exactly what it missed before normal delivery resumes —
                # silence here would let it believe the stream is
                # contiguous.
                gap = StreamEvent(
                    seq=max(spec.resume_from or 0, 0),
                    event=dict(subscription.pending_gap, gap=True),
                    id=request_id,
                )
                if not await send(gap.to_dict()):
                    return False
            async for snapshot in subscription:
                event = StreamEvent.from_snapshot(
                    snapshot, subscription.theta, subscription.last_seq,
                    request_id,
                )
                if not await send(event.to_dict()):
                    return False
                events += 1
        except StreamError as exc:
            # The hub dropped this subscriber (its own bound): surface the
            # reason; the transport decides whether to disconnect.
            self.stats["slow_consumer_disconnects"] += 1
            await send(ErrorEnvelope.from_exception(exc, request_id).to_dict())
            return True
        finally:
            subscription.close()
        # Clean end of stream: the hub closed (source drained).
        await send(
            Response(
                result={
                    "complete": True,
                    "events": events,
                    "last_seq": subscription.last_seq,
                },
                id=request_id,
            ).to_dict()
        )
        return False

    @contextlib.asynccontextmanager
    async def pumping(
        self,
        source: Iterable[Any] | None,
        interval: float = 0.0,
        max_updates: int | None = None,
    ) -> AsyncIterator[None]:
        """Pump ``source`` into the hub for the duration of the block.

        The live-stream lifecycle every entry point shares: when the source
        drains or the pump crashes, the hub is closed, so subscribers get
        their completion instead of hanging acked but silent, and a crash
        is logged. Leaving the block cancels the pump and closes the hub.
        Without a hub or a source nothing is pumped; a hub is still closed
        on the way out.
        """
        hub = self._hub
        task: asyncio.Task | None = None
        if hub is not None and source is not None:
            task = asyncio.get_running_loop().create_task(
                hub.pump(source, interval=interval, max_updates=max_updates)
            )
            task.add_done_callback(self._pump_done)
        try:
            yield
        finally:
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass  # a crash was reported by _pump_done
            if hub is not None:
                hub.close()

    def _pump_done(self, task: asyncio.Task) -> None:
        if task.cancelled() or self._hub is None:
            return  # shutdown: leaving pumping() closes the hub
        exc = task.exception()
        if exc is not None:
            logger.error("stream pump failed: %s", exc)
        self._hub.close()

    # -- JSON lines ----------------------------------------------------------

    async def serve_json_lines(
        self, stdin: TextIO, stdout: TextIO, max_pending: int = 256
    ) -> dict[str, int]:
        """Serve request frames from ``stdin`` lines until EOF.

        Each line is a request frame (the framed ``{"protocol": 1, "id":
        ..., "spec": {...}}`` form or the legacy inline one) and each
        ``stdout`` line one envelope; a frame without a valid id is
        answered under its line number. Queries are submitted as they
        arrive (so in-flight windows coalesce) and answered in submission
        order. A ``subscribe`` streams its ack, events and completion as
        lines interleaved with them. Once ``max_pending`` envelopes wait
        ahead of the printer the reader stops consuming stdin, so a huge
        piped batch cannot pile up results. EOF stops reading, but open
        subscriptions stream on until the consumer hangs up (a failed
        write) or the stream ends.

        Starts the service; the caller closes the server. Returns what the
        consumer observed: ``ok`` and ``failed`` envelopes written (stream
        events count as ok), the ``malformed`` frames among the failed, and
        the envelopes ``discarded`` after a hangup.
        """
        await self._service.start()
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        hangup = asyncio.Event()
        seen = {"ok": 0, "failed": 0, "malformed": 0, "discarded": 0}

        async def print_lines() -> None:
            # A query holds its place in line as the task answering it;
            # everything else is queued as a ready envelope.
            while (item := await lines.get()) is not None:
                if isinstance(item, asyncio.Task):
                    item = (await item).to_dict()
                if hangup.is_set():
                    seen["discarded"] += 1
                    continue
                try:
                    stdout.write(json.dumps(item) + "\n")
                    stdout.flush()
                except OSError:
                    hangup.set()  # e.g. `tsubasa serve | head`
                    seen["discarded"] += 1
                    continue
                # Stream events carry no "ok" flag; they are successes.
                seen["ok" if item.get("ok", "event" in item) else "failed"] += 1

        async def send(envelope: dict[str, Any]) -> bool:
            await lines.put(envelope)
            return True

        printer = loop.create_task(print_lines())
        streams: set[asyncio.Task] = set()
        n_lines = 0
        while True:
            line = await loop.run_in_executor(None, stdin.readline)
            if not line or hangup.is_set():
                # EOF, or nobody can observe further responses: stop
                # submitting work whose results would be discarded.
                break
            line = line.strip()
            if not line:
                continue
            n_lines += 1
            try:
                payload = json.loads(line)
            except ValueError as exc:
                parsed: Request | _Completion = _Completion(n_lines, error=exc)
            else:
                parsed = self._parse_frame(payload, n_lines)
            if isinstance(parsed, _Completion):
                seen["malformed"] += 1
                await lines.put(parsed.to_dict())
            elif parsed.spec.op == "subscribe":
                task = loop.create_task(self._stream(parsed, send))
                streams.add(task)
                task.add_done_callback(streams.discard)
            else:
                await lines.put(loop.create_task(self._answer(parsed)))
        while streams and not hangup.is_set():
            await asyncio.wait(streams, timeout=0.2)
        for task in list(streams):
            task.cancel()
        await asyncio.gather(*streams, return_exceptions=True)
        await lines.put(None)
        await printer
        return seen

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections_total"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._connection_loop(reader, writer)
        except (
            asyncio.CancelledError,
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._closing:
            try:
                parsed = await self._read_http_request(reader)
            except _BadRequest as exc:
                self._write_http(
                    writer,
                    exc.status,
                    ErrorEnvelope.from_exception(DataError(str(exc))).to_dict(),
                    keep_alive=False,
                )
                await writer.drain()
                return
            if parsed is None:
                return
            method, target, headers, body = parsed
            path, _, query = target.partition("?")
            authorized = path == "/healthz" or self._auth_ok(headers)
            if (
                method == "GET"
                and "websocket" in headers.get("upgrade", "").lower()
            ):
                if not authorized:
                    self.stats["auth_failures"] += 1
                    self._write_http(
                        writer, 401, self._auth_error_payload(),
                        keep_alive=False,
                    )
                    await writer.drain()
                    return
                await self._websocket_session(reader, writer, path, headers)
                return
            self.stats["http_requests"] += 1
            if not authorized:
                self.stats["auth_failures"] += 1
                self._write_http(
                    writer, 401, self._auth_error_payload(), keep_alive=False
                )
                await writer.drain()
                return
            wants_v2 = self.enable_v2 and CONTENT_TYPE_V2 in headers.get(
                "accept", ""
            )
            status, payload, version = await self._route(
                method, path, body, wants_v2, query
            )
            keep_alive = headers.get("connection", "").lower() != "close"
            self._write_http(
                writer, status, payload, keep_alive=keep_alive,
                version=version,
            )
            await writer.drain()
            if not keep_alive:
                return

    async def _read_http_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line or not line.strip():
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError as exc:
            raise _BadRequest(400, f"malformed request line: {line!r}") from exc
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(400, f"malformed header line: {raw!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _BadRequest(400, "invalid Content-Length") from exc
            if length > self.max_body_bytes:
                raise _BadRequest(
                    413, f"request body exceeds {self.max_body_bytes} bytes"
                )
            body = await reader.readexactly(length)
        elif headers.get("transfer-encoding"):
            raise _BadRequest(
                400, "chunked request bodies are not supported; send "
                "Content-Length"
            )
        return method.upper(), target, headers, body

    def _auth_ok(self, headers: dict[str, str]) -> bool:
        """Bearer-token check, before any request body is parsed."""
        if self.auth_token is None:
            return True
        header = headers.get("authorization", "")
        token = header[7:].strip() if header.startswith("Bearer ") else None
        if callable(self.auth_token):
            return bool(self.auth_token(token))
        return token is not None and token == self.auth_token

    @staticmethod
    def _auth_error_payload() -> dict:
        return ErrorEnvelope.from_exception(
            ServiceError(
                "authentication required: send Authorization: Bearer <token>"
            )
        ).to_dict()

    def _write_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | list | bytes,
        keep_alive: bool = True,
        version: int | None = None,
    ) -> None:
        started = perf_counter()
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            content_type = CONTENT_TYPE_V2
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        reason = _HTTP_REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        if version is not None:
            self._account_encode(version, perf_counter() - started, len(body))

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body)
        except ValueError as exc:
            raise DataError(f"request body is not valid JSON: {exc}") from exc

    def _completion_status(self, completion: _Completion) -> int:
        if completion.ok:
            return 200
        if completion.overloaded:
            return 503
        if isinstance(completion.error, DeadlineExceeded):
            return 504
        return 400

    def _encode_completions_http(
        self, completions: list[_Completion], wants_v2: bool
    ) -> dict | list | bytes:
        """The response body for one or many completions.

        v1 keeps the JSON shapes (a single envelope for ``/v1/query``, an
        array for ``/v1/batch``); v2 writes binary frames back to back —
        the frames are self-delimiting, so no array wrapper is needed.
        """
        version = PROTOCOL_V2 if wants_v2 else PROTOCOL_VERSION
        self.wire[f"v{version}"]["requests"] += len(completions)
        if not wants_v2:
            return [c.to_dict() for c in completions]
        started = perf_counter()
        body = b"".join(c.to_v2_bytes() for c in completions)
        self._account_encode(PROTOCOL_V2, perf_counter() - started, 0)
        return body

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        wants_v2: bool = False,
        query: str = "",
    ) -> tuple[int, dict | list | bytes, int | None]:
        if path == "/healthz":
            if method != "GET":
                return 405, self._error_payload("use GET /healthz"), None
            payload = {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "protocols": list(
                    SUPPORTED_PROTOCOLS if self.enable_v2
                    else (PROTOCOL_VERSION,)
                ),
                "pid": os.getpid(),
            }
            if parse_qs(query).get("deep", ["0"])[-1] in ("1", "true"):
                payload.update(self._deep_health())
                if not payload["ok"]:
                    return 503, payload, None
            return 200, payload, None
        if path == "/v1/stats":
            if method != "GET":
                return 405, self._error_payload("use GET /v1/stats"), None
            return 200, self._stats_payload(), None
        if path == "/v1/query":
            if method != "POST":
                return 405, self._error_payload("use POST /v1/query"), None
            try:
                payload = self._parse_body(body)
            except DataError as exc:
                return 400, ErrorEnvelope.from_exception(exc).to_dict(), None
            completion = await self._answer_frame(payload)
            encoded = self._encode_completions_http([completion], wants_v2)
            if not wants_v2:
                encoded = encoded[0]
            return (
                self._completion_status(completion),
                encoded,
                PROTOCOL_V2 if wants_v2 else PROTOCOL_VERSION,
            )
        if path == "/v1/batch":
            if method != "POST":
                return 405, self._error_payload("use POST /v1/batch"), None
            try:
                payload = self._parse_body(body)
            except DataError as exc:
                return 400, ErrorEnvelope.from_exception(exc).to_dict(), None
            if not isinstance(payload, list):
                return 400, ErrorEnvelope.from_exception(
                    DataError("batch body must be a JSON array of frames")
                ).to_dict(), None
            semaphore = asyncio.Semaphore(self.max_inflight)

            async def bounded(frame: Any) -> _Completion:
                async with semaphore:
                    return await self._answer_frame(frame)

            completions = await asyncio.gather(
                *(bounded(frame) for frame in payload)
            )
            return 200, self._encode_completions_http(
                list(completions), wants_v2
            ), PROTOCOL_V2 if wants_v2 else PROTOCOL_VERSION
        return 404, self._error_payload(f"unknown endpoint {path}", code=404), None

    def _deep_health(self) -> dict[str, Any]:
        """Readiness detail for ``GET /healthz?deep=1``.

        Reports what a load balancer needs to drain a sick worker *before*
        it fails requests: the sketch store's commit generation (a reader
        seeing an odd value mid-probe is harmless — it just means a write
        is in flight), the realtime hub's liveness, and how much of the
        in-flight budget is spent. ``ok`` turns false — and the endpoint
        answers 503 — when the hub died underneath live subscribers or the
        admission budget is fully spent.
        """
        detail: dict[str, Any] = {}
        degraded: list[str] = []
        provider = self._service.client.provider
        read_generation = getattr(provider, "read_generation", None)
        if callable(read_generation):
            try:
                detail["store_generation"] = int(read_generation())
            except TsubasaError as exc:
                detail["store_generation"] = None
                degraded.append(f"store unreadable: {exc}")
        if self._hub is not None:
            detail["hub"] = {
                "closed": self._hub.closed,
                "published": self._hub.published,
                "last_seq": self._hub.last_seq,
                "subscriptions": self._hub.n_subscriptions,
            }
            if self._hub.closed:
                degraded.append("snapshot hub is closed")
        inflight = self._inflight_total
        detail["inflight"] = {
            "current": inflight,
            "budget": self.max_inflight_total,
            "utilization": (
                inflight / self.max_inflight_total
                if self.max_inflight_total
                else None
            ),
        }
        if (
            self.max_inflight_total is not None
            and inflight >= self.max_inflight_total
        ):
            degraded.append("in-flight budget spent")
        detail["ok"] = not degraded
        if degraded:
            detail["degraded"] = degraded
        return detail

    @staticmethod
    def _error_payload(message: str, code: int | None = None) -> dict:
        envelope = ErrorEnvelope.from_exception(ServiceError(message))
        payload = envelope.to_dict()
        if code is not None:
            payload["error"]["http_status"] = code
        return payload

    def _stats_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "server": dict(
                self.stats,
                open_connections=len(self._conn_tasks),
                ws_sessions=len(self._ws_sessions),
                inflight_requests=len(self._request_tasks),
                max_inflight_total=self.max_inflight_total,
                pid=os.getpid(),
                wire={key: dict(value) for key, value in self.wire.items()},
            ),
            "service": self._service.stats().to_dict(),
        }
        if self._hub is not None:
            payload["realtime"] = {
                "published": self._hub.published,
                "subscriptions": self._hub.n_subscriptions,
                "dropped_subscriptions": self._hub.dropped_subscriptions,
                "window_points": self._hub.window_points,
                "window_size": self._hub.window_size,
                "base_theta": self._hub.theta,
                "closed": self._hub.closed,
                "last_seq": self._hub.last_seq,
                "replay_capacity": self._hub.replay_capacity,
                "resumed_subscriptions": self._hub.resumed_subscriptions,
                "gapped_resumes": self._hub.gapped_resumes,
            }
        return payload

    # -- WebSockets ----------------------------------------------------------

    async def _websocket_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        path: str,
        headers: dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if path != "/v1/ws" or key is None:
            status = 404 if path != "/v1/ws" else 400
            self._write_http(
                writer,
                status,
                self._error_payload(
                    "WebSocket upgrades are served at /v1/ws", code=status
                ),
                keep_alive=False,
            )
            await writer.drain()
            return
        accept = ws_accept_value(key)
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        self.stats["ws_connections_total"] += 1
        # Bound the transport-level buffering so the per-client send queue
        # is the real backpressure limit, not the kernel's send buffer.
        transport = writer.transport
        try:
            transport.set_write_buffer_limits(high=self.ws_write_buffer_bytes)
            sock = transport.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_SNDBUF,
                    self.ws_write_buffer_bytes,
                )
        except (OSError, AttributeError, NotImplementedError):
            pass  # best effort; the queue bound still applies
        session = _WsSession(self, writer)
        session.writer_task = asyncio.get_running_loop().create_task(
            session.run_writer()
        )
        self._ws_sessions.add(session)
        if self.ws_ping_interval > 0:
            session.spawn(self._ws_keepalive(session))
        try:
            await self._ws_read_loop(reader, session)
        finally:
            self._ws_sessions.discard(session)
            await session.teardown()
            if session.rejections:
                peer = writer.get_extra_info("peername")
                logger.info(
                    "ws session %s closed: %d request(s) rejected over the "
                    "per-connection in-flight limit (%d)",
                    peer, session.rejections, self.max_inflight,
                )

    async def _ws_keepalive(self, session: _WsSession) -> None:
        """Ping quiet peers; abort connections that have gone silent.

        Any frame from the peer (data, pong, even an unsolicited ping)
        refreshes ``session.last_recv``, so a healthy-but-idle client
        stays connected by answering pings while a dead peer — crashed
        process, pulled cable, NAT entry expired — stops refreshing and
        is aborted once the idle timeout elapses. Without this, such
        connections hold their send queue and subscriptions forever.
        """
        while not session.closing:
            await asyncio.sleep(self.ws_ping_interval)
            if session.closing:
                return
            if (
                self.ws_idle_timeout > 0
                and perf_counter() - session.last_recv > self.ws_idle_timeout
            ):
                self.stats["keepalive_disconnects"] += 1
                session.abort()
                return
            session._enqueue((_OP_PING, b"tsb"))

    async def _ws_read_loop(
        self, reader: asyncio.StreamReader, session: _WsSession
    ) -> None:
        while not session.closing:
            message = await self._read_ws_message(reader, session)
            if message is None:
                return
            opcode, data = message
            if opcode == _OP_BINARY:
                session.send_close(1003, "text frames only")
                return
            try:
                payload = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                session.send_envelope(
                    ErrorEnvelope.from_exception(
                        DataError(f"frame is not valid JSON: {exc}")
                    ).to_dict()
                )
                continue
            if (
                self.enable_v2
                and isinstance(payload, dict)
                and "hello" in payload
            ):
                self._handle_ws_hello(session, payload)
                continue
            request = self._parse_frame(payload)
            if isinstance(request, _Completion):
                session.send_envelope(request.to_dict())
                continue
            self.stats["ws_requests"] += 1
            self.wire[f"v{session.protocol}"]["requests"] += 1
            if session.inflight >= self.max_inflight:
                # Subscriptions count too: each holds a task and a bounded
                # hub queue for the connection's lifetime, so they spend
                # the same per-connection budget as requests.
                self.stats["overload_rejections"] += 1
                session.rejections += 1
                session.send_envelope(
                    ErrorEnvelope.from_exception(
                        ServiceError(
                            f"too many in-flight requests on this connection "
                            f"(limit {self.max_inflight}); wait for "
                            "completions before sending more"
                        ),
                        request.id,
                    ).to_dict()
                )
                continue
            session.inflight += 1
            if request.spec.op == "subscribe":
                session.spawn(self._run_subscription(session, request))
            else:
                session.spawn(self._ws_answer(session, request))

    def _handle_ws_hello(
        self, session: _WsSession, payload: dict[str, Any]
    ) -> None:
        """Negotiate the session's wire version from a client hello.

        The hello is a v1 JSON frame (``{"protocol": 1, "hello":
        {"protocols": [1, 2]}}``) so a v1-only server rejects it with a
        clean unknown-field error envelope — which is exactly the signal an
        auto-negotiating client uses to fall back to v1. The ack is always
        a v1 text frame; only frames *after* it switch encodings.
        """
        unknown = set(payload) - {"protocol", "id", "hello"}
        hello = payload.get("hello")
        request_id = self._frame_id(payload)
        if (
            unknown
            or not isinstance(hello, dict)
            or set(hello) - {"protocols"}
            or not isinstance(hello.get("protocols"), list)
        ):
            session.send_envelope(
                ErrorEnvelope.from_exception(
                    DataError(f"malformed hello frame: {payload!r}"),
                    request_id,
                ).to_dict()
            )
            return
        offered = {
            int(v)
            for v in hello["protocols"]
            if isinstance(v, int) and not isinstance(v, bool)
        }
        usable = offered & set(SUPPORTED_PROTOCOLS)
        if not usable:
            session.send_envelope(
                ErrorEnvelope.from_exception(
                    DataError(
                        f"no common protocol version: client offers "
                        f"{sorted(offered)}, server speaks "
                        f"{list(SUPPORTED_PROTOCOLS)}"
                    ),
                    request_id,
                ).to_dict()
            )
            return
        chosen = max(usable)
        ack = Response(
            result={"hello": {"protocol": chosen, "server": "tsubasa"}},
            id=request_id,
        )
        session.send_envelope(ack.to_dict())
        session.protocol = chosen

    async def _ws_answer(self, session: _WsSession, request: Request) -> None:
        try:
            completion = await self._answer(request)
        finally:
            session.inflight -= 1
        session.send_completion(completion)

    async def _run_subscription(
        self, session: _WsSession, request: Request
    ) -> None:
        try:
            if await self._stream(request, session.deliver):
                session.send_close(1008, "subscription lagged")
        finally:
            session.inflight -= 1

    async def _read_ws_message(
        self, reader: asyncio.StreamReader, session: _WsSession
    ) -> tuple[int, bytes] | None:
        """One complete data message (control frames handled inline)."""
        opcode0: int | None = None
        buffer = bytearray()
        while True:
            try:
                head = await reader.readexactly(2)
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
            session.last_recv = perf_counter()
            fin = head[0] & 0x80
            opcode = head[0] & 0x0F
            if head[0] & 0x70:
                session.send_close(1002, "reserved bits set")
                return None
            masked = head[1] & 0x80
            length = head[1] & 0x7F
            if length == 126:
                length = int.from_bytes(await reader.readexactly(2), "big")
            elif length == 127:
                length = int.from_bytes(await reader.readexactly(8), "big")
            if length + len(buffer) > self.max_message_bytes:
                session.send_close(1009, "message too big")
                return None
            if not masked:
                # Clients MUST mask (RFC 6455 §5.1).
                session.send_close(1002, "client frames must be masked")
                return None
            mask = await reader.readexactly(4)
            payload = apply_ws_mask(await reader.readexactly(length), mask)
            if opcode >= 0x8:  # control frame: never fragmented
                if opcode == _OP_CLOSE:
                    session.send_close(1000)
                    return None
                if opcode == _OP_PING:
                    session._enqueue((_OP_PONG, payload))
                continue  # PONG (or unknown control): ignore
            if opcode0 is None:
                if opcode == _OP_CONT:
                    session.send_close(1002, "unexpected continuation frame")
                    return None
                opcode0 = opcode
            elif opcode != _OP_CONT:
                session.send_close(1002, "interleaved data messages")
                return None
            buffer += payload
            if fin:
                return opcode0, bytes(buffer)


# -- synchronous harness -----------------------------------------------------


class ServerHandle:
    """A running server on a background event loop (see :func:`serve_in_thread`).

    Use as a context manager, or call :meth:`stop` explicitly. The handle
    exposes the bound address for remote clients.
    """

    def __init__(self) -> None:
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.host: str | None = None
        self.port: int | None = None

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket."""
        if self.host is None or self.port is None:
            raise ServiceError("server thread is not ready")
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        """``http://host:port`` of the listening socket."""
        return f"http://{self.address}"

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain and stop the background server (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(
    client,
    host: str = "127.0.0.1",
    port: int = 0,
    hub: SnapshotHub | None = None,
    ingestor=None,
    source=None,
    pump_interval: float = 0.0,
    pump_max_updates: int | None = None,
    service_kwargs: dict[str, Any] | None = None,
    server_kwargs: dict[str, Any] | None = None,
) -> ServerHandle:
    """Run a full service + server stack on a background event loop.

    The synchronous-world harness used by tests, benchmarks, and the smoke
    script: construct a :class:`~repro.api.client.TsubasaClient`, hand it
    here, and drive the returned address with a
    :class:`~repro.api.remote.TsubasaRemoteClient`.

    Args:
        client: The :class:`~repro.api.client.TsubasaClient` the service
            executes against (only touched from the server thread).
        host: Bind host.
        port: Bind port (0 = ephemeral; read it off the handle).
        hub: Optional pre-built snapshot hub for subscriptions.
        ingestor: Build a hub around this
            :class:`~repro.streams.ingestion.StreamIngestor` (ignored when
            ``hub`` is given).
        source: Optional batch source pumped through the hub's ingestor in
            the background for live subscriptions.
        pump_interval: Pause between pumped batches, in seconds.
        pump_max_updates: Stop the pump after this many snapshots.
        service_kwargs: Extra :class:`TsubasaService` arguments.
        server_kwargs: Extra :class:`TsubasaServer` arguments.

    Returns:
        A started :class:`ServerHandle` (raises if startup failed).
    """
    handle = ServerHandle()

    def main() -> None:
        async def run() -> None:
            service = TsubasaService(client, **(service_kwargs or {}))
            the_hub = hub
            if the_hub is None and ingestor is not None:
                the_hub = SnapshotHub(ingestor)
            server = TsubasaServer(
                service, hub=the_hub, **(server_kwargs or {})
            )
            try:
                await server.start(host=host, port=port)
            except BaseException as exc:
                handle._error = exc
                handle._ready.set()
                raise
            handle._loop = asyncio.get_running_loop()
            handle._shutdown = asyncio.Event()
            handle.host = server.host
            handle.port = server.port
            async with server.pumping(
                source, interval=pump_interval, max_updates=pump_max_updates
            ):
                handle._ready.set()
                await handle._shutdown.wait()
            await server.aclose()

        try:
            asyncio.run(run())
        except BaseException as exc:  # noqa: BLE001 - surfaced via handle
            if handle._error is None:
                handle._error = exc
                handle._ready.set()

    thread = threading.Thread(
        target=main, name="tsubasa-server", daemon=True
    )
    handle._thread = thread
    thread.start()
    handle._ready.wait(timeout=30.0)
    if handle._error is not None:
        raise ServiceError(
            f"server thread failed to start: {handle._error!r}"
        ) from handle._error
    if handle.port is None:
        handle.stop()
        raise ServiceError("server thread did not become ready in time")
    return handle
