"""The HTTP and WebSocket transports answer bad frames alike.

Both run the server's one request core: the same parse, the same error
envelopes, the same subscription checks. Each server here is configured
through the CLI's own helpers from the same flags, receives the same frames,
and must reject each with the same error ``type`` and ``code``. A frame
whose own id is invalid is answered under no id on both. ``subscribe``
frames run over WebSocket only: HTTP answers every one of them with the
"connect to /v1/ws" error, whatever the stream's state.

A valid non-aligned query, served from an mmap store's prefix tables plus
its raw head/tail fragments, must come back identical over HTTP and
WebSocket with protocols v1 and v2.
"""

from __future__ import annotations

import contextlib
import http.client
import json

import numpy as np
import pytest

from repro.api.remote import TsubasaRemoteClient, _WsClientConnection
from repro.api.server import serve_in_thread
from repro.api.spec import QuerySpec, WindowSpec
from repro.cli import _open_client, _open_store, _open_stream, build_parser, main
from repro.core.prefix import PREFIX_ATOL

STANDING = {"end": 399, "length": 400}  # every window the store holds

#: (frame, expected error type, expected error code) on any server.
COMMON_FRAMES = [
    ({"protocol": 1, "id": True, "spec": {"op": "matrix", "window": STANDING}},
     "DataError", 3),
    ({"protocol": 1, "id": [1], "spec": {"op": "matrix", "window": STANDING}},
     "DataError", 3),
    ({"protocol": 1, "id": "op", "spec": {"op": "nope", "window": STANDING}},
     "DataError", 3),
]

#: The same, plus the subscribe frames a live server rejects.
LIVE_FRAMES = COMMON_FRAMES + [
    ({"protocol": 1, "id": "window",
      "spec": {"op": "subscribe", "window": {"end": 399, "length": 200},
               "theta": 0.8}},
     "StreamError", 6),
    ({"protocol": 1, "id": "low",
      "spec": {"op": "subscribe", "window": STANDING, "theta": 0.5}},
     "StreamError", 6),
]

#: The same, plus a subscribe sent to a server without a live stream.
NO_STREAM_FRAMES = COMMON_FRAMES + [
    ({"protocol": 1, "id": "dead",
      "spec": {"op": "subscribe", "window": STANDING, "theta": 0.8}},
     "ServiceError", 7),
]


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "data.npz"
    argv = ["generate", "--stations", "12", "--points", "400", "--seed", "5"]
    assert main([*argv, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def store_file(dataset_file):
    path = dataset_file.parent / "sketch.db"
    argv = ["sketch", "--data", str(dataset_file), "--window-size", "50"]
    assert main([*argv, "--store", str(path)]) == 0
    return path


def _serve_args(store, dataset, live):
    argv = ["serve", "--store", str(store), "--http", "127.0.0.1:0"]
    if live:
        argv += ["--stream-data", str(dataset), "--stream-interval", "0.01"]
    return argv


@contextlib.contextmanager
def _served(store, dataset, live):
    """A server built by the CLI's helpers from ``serve``'s own flags."""
    args = build_parser().parse_args(_serve_args(store, dataset, live))
    with _open_store(args.store) as handle:
        client = _open_client(handle, args)
        hub, source = _open_stream(client, args)
        server = serve_in_thread(
            client,
            hub=hub,
            source=source,
            pump_interval=args.stream_interval,
            server_kwargs={"send_buffer": args.send_buffer},
        )
        try:
            yield server
        finally:
            server.stop()


def _over_http(server, frames):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    replies = []
    for frame in frames:
        conn.request("POST", "/v1/query", body=json.dumps(frame).encode())
        replies.append(json.loads(conn.getresponse().read()))
    conn.close()
    return replies


def _over_ws(server, frames):
    conn = _WsClientConnection(server.host, server.port, timeout=30)
    replies = []
    for frame in frames:
        conn.send_text(json.dumps(frame))
        replies.append(json.loads(conn.recv_message()))
    conn.close()
    return replies


@pytest.fixture(params=["http", "ws"])
def exchange(request, store_file, dataset_file):
    """Send frames over one transport; the replies, in frame order."""

    def run(frames, live):
        send = _over_http if request.param == "http" else _over_ws
        with _served(store_file, dataset_file, live) as server:
            return send(server, frames)

    run.transport = request.param
    return run


@pytest.mark.parametrize(
    "frames, live",
    [(LIVE_FRAMES, True), (NO_STREAM_FRAMES, False)],
    ids=["live", "no-stream"],
)
def test_bad_frames_get_the_same_errors(exchange, frames, live):
    if exchange.transport == "http":
        frames = COMMON_FRAMES  # the subscribe rows are WebSocket only
    replies = exchange([frame for frame, _, _ in frames], live)
    got = [(r["ok"], r["error"]["type"], r["error"]["code"]) for r in replies]
    assert got == [(False, kind, code) for _, kind, code in frames]


def test_invalid_id_is_never_echoed(exchange):
    frames = [frame for frame, _, _ in COMMON_FRAMES[:2]]
    replies = exchange(frames, False)
    # Compared as JSON, so an echoed ``true`` cannot pass for ``1``.
    assert json.dumps([reply["id"] for reply in replies]) == "[null, null]"


def test_non_aligned_query_rides_the_prefix_path_on_every_wire(dataset_file):
    store = dataset_file.parent / "sketch.mm"
    argv = ["sketch", "--data", str(dataset_file), "--window-size", "50"]
    argv += ["--store", str(store), "--store-backend", "mmap", "--prefix"]
    assert main(argv) == 0
    args = build_parser().parse_args(
        ["serve", "--store", str(store), "--backend", "mmap",
         "--data", str(dataset_file), "--http", "127.0.0.1:0"]
    )
    # Points 16..386: a head fragment, windows 1..6, a tail fragment.
    spec = QuerySpec(op="matrix", window=WindowSpec(end=386, length=371))
    results = {}
    with _open_store(args.store) as handle:
        with serve_in_thread(_open_client(handle, args)) as server:
            for transport in ("http", "ws"):
                for protocol in (1, 2):
                    with TsubasaRemoteClient(
                        server.address, transport=transport, protocol=protocol
                    ) as remote:
                        results[transport, protocol] = remote.execute(spec)
    assert {key: r.provenance.path for key, r in results.items()} == {
        key: "prefix" for key in results
    }
    values = results["http", 1].value.values
    for result in results.values():
        np.testing.assert_array_equal(result.value.values, values)
    raw = np.load(dataset_file)["values"]
    np.testing.assert_allclose(
        values, np.corrcoef(raw[:, 16:387]), rtol=0.0, atol=PREFIX_ATOL
    )
