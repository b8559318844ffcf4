"""The JSON-lines and WebSocket transports answer bad frames alike.

Both run the server's one request core: the same parse and id fallback,
the same subscription checks. Each transport here is configured through the
CLI's own helpers from the same flags, receives the same frames, and must
reject each with the same error ``type`` and ``code``. The one permitted
difference is the id of a frame whose own id is invalid: stdin answers it
under the frame's line number, a WebSocket (which has no line numbers)
under no id.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api.remote import _WsClientConnection
from repro.api.server import serve_in_thread
from repro.cli import _open_client, _open_store, _open_stream, build_parser, main

STANDING = {"end": 399, "length": 400}  # every window the store holds

#: (frame, expected error type, expected error code) on a live server.
LIVE_FRAMES = [
    ({"protocol": 1, "id": True, "spec": {"op": "matrix", "window": STANDING}},
     "DataError", 3),
    ({"protocol": 1, "id": [1], "spec": {"op": "matrix", "window": STANDING}},
     "DataError", 3),
    ({"protocol": 1, "id": "op", "spec": {"op": "nope", "window": STANDING}},
     "DataError", 3),
    ({"protocol": 1, "id": "window",
      "spec": {"op": "subscribe", "window": {"end": 399, "length": 200},
               "theta": 0.8}},
     "StreamError", 6),
    ({"protocol": 1, "id": "low",
      "spec": {"op": "subscribe", "window": STANDING, "theta": 0.5}},
     "StreamError", 6),
]

#: The same frame sent to a server without a live stream.
NO_STREAM_FRAMES = [
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


def _valid_id(frame):
    frame_id = frame.get("id")
    if isinstance(frame_id, (str, int)) and not isinstance(frame_id, bool):
        return frame_id
    return None


def _serve_args(store, dataset, live):
    argv = ["serve", "--store", str(store)]
    if live:
        argv += ["--stream-data", str(dataset), "--stream-interval", "0.01"]
    return argv


def _over_stdin(monkeypatch, capsys, store, dataset, frames, live):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO("".join(json.dumps(frame) + "\n" for frame in frames)),
    )
    assert main(_serve_args(store, dataset, live)) == 0
    by_id = {}
    for line in capsys.readouterr().out.splitlines():
        envelope = json.loads(line)
        by_id[envelope["id"]] = envelope
    # A frame without a valid id of its own is answered under its line.
    return [
        by_id[_valid_id(frame) if _valid_id(frame) is not None else number]
        for number, frame in enumerate(frames, start=1)
    ]


def _over_ws(store, dataset, frames, live):
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
            conn = _WsClientConnection(server.host, server.port, timeout=30)
            replies = []
            for frame in frames:
                conn.send_text(json.dumps(frame))
                replies.append(json.loads(conn.recv_message()))
            conn.close()
        finally:
            server.stop()
    return replies


@pytest.fixture(params=["stdin", "ws"])
def exchange(request, monkeypatch, capsys, store_file, dataset_file):
    """Send frames over one transport; the replies, in frame order."""

    def run(frames, live):
        if request.param == "stdin":
            return _over_stdin(
                monkeypatch, capsys, store_file, dataset_file, frames, live
            )
        return _over_ws(store_file, dataset_file, frames, live)

    run.transport = request.param
    return run


@pytest.mark.parametrize(
    "frames, live",
    [(LIVE_FRAMES, True), (NO_STREAM_FRAMES, False)],
    ids=["live", "no-stream"],
)
def test_bad_frames_get_the_same_errors(exchange, frames, live):
    replies = exchange([frame for frame, _, _ in frames], live)
    got = [(r["ok"], r["error"]["type"], r["error"]["code"]) for r in replies]
    assert got == [(False, kind, code) for _, kind, code in frames]


def test_invalid_id_is_never_echoed(exchange):
    frames = [frame for frame, _, _ in LIVE_FRAMES[:2]]
    replies = exchange(frames, False)
    # Compared as JSON, so an echoed ``true`` cannot pass for ``1``.
    fallback = "[1, 2]" if exchange.transport == "stdin" else "[null, null]"
    assert json.dumps([reply["id"] for reply in replies]) == fallback
