"""The benchmark's traced run finds every hook it wraps on the serving path.

``servebench/layers.py`` wraps program functions by name, and
``servebench/launcher.py`` patches two CLI helpers. A rename would otherwise
only show up when the traced benchmark runs; here it fails tier-1. While
the hooks are installed, one query and one live subscription go over a
WebSocket, and the spans of the request core and the stream path must be
recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import cli
from repro.api.client import TsubasaClient
from repro.api.remote import TsubasaRemoteClient
from repro.api.server import serve_in_thread
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.realtime import TsubasaRealtime
from repro.core.sketch import build_sketch
from repro.engine.providers import InMemoryProvider
from repro.streams.ingestion import StreamIngestor
from repro.streams.sources import ReplaySource

SERVEBENCH = Path(__file__).resolve().parent.parent / "servebench"


@pytest.fixture()
def tracer():
    if str(SERVEBENCH) not in sys.path:
        sys.path.insert(0, str(SERVEBENCH))
    import layers
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install_server(tracer)
        layers.install_client(tracer)
        yield tracer
    finally:
        tracer.unwrap()


def test_launcher_patch_points_exist():
    assert callable(cli._open_stream)
    assert callable(cli._replay_forever)


def test_traced_layers_see_queries_and_stream_events(tracer, small_dataset):
    sketch = build_sketch(small_dataset.values, 50, names=small_dataset.names)
    engine = TsubasaRealtime(
        small_dataset.values[:, :300], 50, names=small_dataset.names
    )
    handle = serve_in_thread(
        TsubasaClient(provider=InMemoryProvider(sketch)),
        ingestor=StreamIngestor(engine, theta=0.4),
        source=ReplaySource(small_dataset.values, 50, start=300),
        pump_interval=0.05,
    )
    try:
        with TsubasaRemoteClient(
            handle.address, transport="ws", protocol=2
        ) as client:
            client.execute(
                QuerySpec(op="degree", window=WindowSpec(end=599, length=200),
                          theta=0.4)
            )
            events = list(
                client.subscribe(theta=0.4, window_points=300, max_events=2)
            )
    finally:
        handle.stop()
    assert len(events) == 2
    recorded = {record[1] for record in tracer.records}
    assert {
        "protocol.parse_request",
        "server.answer",
        "service.submit",
        "frames.encode_response",
        "remote.decode_frame",
        "streams.ingestor_push",
        "streams.hub_publish",
        "protocol.stream_event",
        "server.send_event",
    } <= recorded
