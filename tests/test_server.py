"""Tests for the HTTP/WebSocket server and the remote client.

The acceptance bar for engines-as-a-service: remote execution must be
bit-identical to in-process execution across every backend, concurrent
WebSocket clients must not perturb each other, subscriptions must deliver
ordered live snapshots, and the backpressure/drain policies must actually
fire.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.remote import TsubasaRemoteClient, _WsClientConnection
from repro.api.server import serve_in_thread
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.realtime import TsubasaRealtime
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    InMemoryProvider,
    MmapProvider,
)
from repro.exceptions import ServiceError, SketchError, StreamError
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore
from repro.streams.ingestion import StreamIngestor
from repro.streams.sources import ReplaySource, SyntheticSource

WINDOW = WindowSpec(end=599, length=200)

MIXED_SPECS = [
    QuerySpec(op="network", window=WINDOW, theta=0.4),
    QuerySpec(op="top_k", window=WINDOW, k=5),
    QuerySpec(op="matrix", window=WindowSpec(end=599, length=300)),
    QuerySpec(op="degree", window=WINDOW, theta=0.4),
    QuerySpec(op="pairs_in_range", window=WINDOW, low=0.2, high=0.8),
    QuerySpec(
        op="diff_network",
        window=WINDOW,
        baseline=WindowSpec(end=399, length=200),
        theta=0.4,
    ),
]


def make_sketch(dataset):
    return build_sketch(dataset.values, 50, names=dataset.names)


class _SlowProvider(InMemoryProvider):
    """An in-memory backend whose large selections take a while.

    Selections above ``slow_windows`` basic windows sleep before answering,
    which makes completion-order and in-flight-limit tests deterministic.
    """

    backend_name = "slow"

    def __init__(self, sketch, slow_windows=8, delay=0.4):
        super().__init__(sketch)
        self._slow_windows = slow_windows
        self._delay = delay

    def window_stats(self, indices):
        if np.asarray(indices).size > self._slow_windows:
            time.sleep(self._delay)
        return super().window_stats(indices)


@pytest.fixture(scope="module")
def server(small_dataset):
    """One shared memory-backed server for read-only request tests."""
    client = TsubasaClient(provider=InMemoryProvider(make_sketch(small_dataset)))
    with serve_in_thread(client, service_kwargs={"max_workers": 2}) as handle:
        yield handle
        handle.stop()


@pytest.fixture(scope="module")
def local_results(small_dataset):
    client = TsubasaClient(provider=InMemoryProvider(make_sketch(small_dataset)))
    return [client.execute(spec) for spec in MIXED_SPECS]


def assert_results_match(remote, local):
    assert remote.spec == local.spec
    if remote.spec.op == "matrix":
        assert remote.value.names == local.value.names
        np.testing.assert_array_equal(remote.value.values, local.value.values)
    elif remote.spec.op == "network":
        assert remote.value.edge_set() == local.value.edge_set()
        for a, b in local.value.edge_set():
            assert remote.value.edge_weight(a, b) == local.value.edge_weight(a, b)
    else:
        assert remote.value == local.value


class TestHttpEndpoints:
    def test_healthz_and_stats(self, server):
        with TsubasaRemoteClient(server.address) as client:
            health = client.health()
            assert health["ok"] is True
            assert health["protocol"] == 1
            assert health["protocols"] == [1, 2]
            assert health["pid"] > 0
            stats = client.stats()
        assert stats["protocol"] == 1
        assert "service" in stats and "server" in stats
        assert stats["server"]["connections_total"] >= 1

    def test_unknown_endpoint_404(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", "/nope")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 404
        assert payload["ok"] is False

    def test_method_mismatch_405(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", "/v1/query")
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 405

    def test_invalid_json_body_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("POST", "/v1/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "DataError"
        assert payload["error"]["code"] == 3

    def test_protocol_version_negotiation(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        frame = {"protocol": 3, "spec": MIXED_SPECS[0].to_dict()}
        conn.request("POST", "/v1/query", body=json.dumps(frame).encode())
        payload = json.loads(conn.getresponse().read())
        conn.close()
        assert payload["ok"] is False
        assert "unsupported protocol version 3" in payload["error"]["message"]

    def test_keep_alive_reuses_connection(self, server):
        with TsubasaRemoteClient(server.address) as client:
            first = client.execute(MIXED_SPECS[1])
            second = client.execute(MIXED_SPECS[1])
        assert first.value == second.value

    def test_subscribe_rejected_over_http(self, server):
        spec = QuerySpec(
            op="subscribe", window=WindowSpec(start=0, stop=600), theta=0.5
        )
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        frame = {"protocol": 1, "id": "s", "spec": spec.to_dict()}
        conn.request("POST", "/v1/query", body=json.dumps(frame).encode())
        payload = json.loads(conn.getresponse().read())
        conn.close()
        assert payload["ok"] is False
        assert "WebSocket" in payload["error"]["message"]


class TestRemoteExecution:
    @pytest.mark.parametrize("transport", ["http", "ws"])
    def test_mixed_ops_bit_identical(self, server, local_results, transport):
        with TsubasaRemoteClient(server.address, transport=transport) as client:
            remote = [client.execute(spec) for spec in MIXED_SPECS]
        for got, want in zip(remote, local_results):
            assert_results_match(got, want)

    @pytest.mark.parametrize("transport", ["http", "ws"])
    def test_execute_many(self, server, local_results, transport):
        with TsubasaRemoteClient(server.address, transport=transport) as client:
            remote = client.execute_many(MIXED_SPECS)
        for got, want in zip(remote, local_results):
            assert_results_match(got, want)

    def test_remote_errors_mirror_local_types(self, server):
        bad = QuerySpec(op="matrix", window=WindowSpec(end=599, length=123))
        with TsubasaRemoteClient(server.address) as client:
            with pytest.raises(SketchError):
                client.execute(bad)
        with TsubasaRemoteClient(server.address, transport="ws") as client:
            with pytest.raises(SketchError):
                client.execute(bad)

    def test_provenance_travels(self, server):
        with TsubasaRemoteClient(server.address) as client:
            result = client.execute(MIXED_SPECS[0])
        assert result.provenance is not None
        assert result.provenance.backend == "memory"
        assert result.timings["total"] > 0.0

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "mmap"])
    def test_bit_identical_across_backends(
        self, tmp_path, small_dataset, backend
    ):
        """The acceptance criterion: remote == in-process, per backend."""
        sketch = make_sketch(small_dataset)
        if backend == "memory":
            make_provider = lambda: InMemoryProvider(sketch)  # noqa: E731
        elif backend == "sqlite":
            path = tmp_path / "sketch.db"
            with SqliteSketchStore(path) as store:
                save_sketch(store, sketch)
                loaded = load_sketch(store)
            make_provider = lambda: InMemoryProvider(loaded)  # noqa: E731
        else:
            path = tmp_path / "sketch.mm"
            with MmapStore(path) as store:
                save_sketch(store, sketch)
            make_provider = lambda: MmapProvider(MmapStore(path, mode="r"))  # noqa: E731
        local = [
            TsubasaClient(provider=make_provider()).execute(spec)
            for spec in MIXED_SPECS
        ]
        client = TsubasaClient(provider=make_provider())
        with serve_in_thread(client) as handle:
            for transport in ("http", "ws"):
                with TsubasaRemoteClient(
                    handle.address, transport=transport
                ) as remote:
                    for spec, want in zip(MIXED_SPECS, local):
                        assert_results_match(remote.execute(spec), want)
            handle.stop()


class TestConcurrentClients:
    def test_32_ws_clients_bit_identical(self, server, local_results):
        """≥32 concurrent WebSocket clients, each pipelining the mixed
        workload, all bit-identical to serial in-process execution."""
        n_clients = 32

        def worker(i: int):
            with TsubasaRemoteClient(server.address, transport="ws") as client:
                return client.execute_many(MIXED_SPECS)

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            all_results = list(pool.map(worker, range(n_clients)))
        assert len(all_results) == n_clients
        for results in all_results:
            for got, want in zip(results, local_results):
                assert_results_match(got, want)

    def test_out_of_order_completion(self, small_dataset):
        """A fast request overtakes a slow one on the same connection; the
        protocol ids keep them straight."""
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset))
        )
        with serve_in_thread(
            client, service_kwargs={"max_workers": 2}
        ) as handle:
            conn = _WsClientConnection(handle.host, handle.port, timeout=30)
            slow = QuerySpec(op="matrix", window=WindowSpec(end=599, length=600))
            fast = QuerySpec(op="matrix", window=WindowSpec(end=599, length=100))
            conn.send_text(json.dumps(
                {"protocol": 1, "id": "slow", "spec": slow.to_dict()}
            ))
            conn.send_text(json.dumps(
                {"protocol": 1, "id": "fast", "spec": fast.to_dict()}
            ))
            order = []
            for _ in range(2):
                envelope = json.loads(conn.recv_message())
                assert envelope["ok"], envelope
                order.append(envelope["id"])
            conn.close()
            handle.stop()
        assert order == ["fast", "slow"]

    def test_per_connection_inflight_limit(self, small_dataset):
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset))
        )
        with serve_in_thread(
            client, server_kwargs={"max_inflight": 1}
        ) as handle:
            conn = _WsClientConnection(handle.host, handle.port, timeout=30)
            slow = QuerySpec(op="matrix", window=WindowSpec(end=599, length=600))
            for i in range(3):
                conn.send_text(json.dumps(
                    {"protocol": 1, "id": i, "spec": slow.to_dict()}
                ))
            envelopes = [json.loads(conn.recv_message()) for _ in range(3)]
            conn.close()
            handle.stop()
        rejected = [e for e in envelopes if not e["ok"]]
        accepted = [e for e in envelopes if e["ok"]]
        assert len(rejected) == 2
        assert len(accepted) == 1
        for envelope in rejected:
            assert envelope["error"]["type"] == "ServiceError"
            assert "in-flight" in envelope["error"]["message"]


class TestGracefulDrain:
    def test_inflight_request_completes_during_drain(self, small_dataset):
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset), delay=0.6)
        )
        handle = serve_in_thread(client)
        spec = QuerySpec(op="matrix", window=WindowSpec(end=599, length=600))
        outcome = {}

        def run_query():
            with TsubasaRemoteClient(handle.address, timeout=30) as remote:
                outcome["result"] = remote.execute(spec)

        thread = threading.Thread(target=run_query)
        thread.start()
        time.sleep(0.2)  # request is in flight inside the slow provider
        handle.stop()  # graceful drain must let it finish
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "result" in outcome, "in-flight request was dropped on drain"
        assert outcome["result"].value.values.shape == (20, 20)
        # And the listener is really gone.
        with pytest.raises(OSError):
            probe = socket.create_connection(
                (handle.host, handle.port), timeout=2
            )
            probe.close()


class TestSubscriptions:
    @pytest.fixture()
    def live_server(self, small_dataset):
        """A server with a realtime hub replaying the dataset's tail."""
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        engine = TsubasaRealtime(
            small_dataset.values[:, :300], 50, names=small_dataset.names
        )
        ingestor = StreamIngestor(engine, theta=0.4)
        source = ReplaySource(small_dataset.values, 50, start=300)
        handle = serve_in_thread(
            client,
            ingestor=ingestor,
            source=source,
            pump_interval=0.15,
        )
        yield handle
        handle.stop()

    def test_delivers_ordered_snapshots(self, live_server):
        with TsubasaRemoteClient(live_server.address) as client:
            events = list(
                client.subscribe(theta=0.4, window_points=300, max_events=3)
            )
        assert len(events) >= 3
        # Seq numbers are the hub's global publish counter: contiguous, but
        # the first one depends on how many snapshots the pump published
        # before this subscriber attached.
        seqs = [event.seq for event in events]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        timestamps = [event.event["timestamp"] for event in events]
        assert timestamps == sorted(timestamps)
        assert all(t2 - t1 == 50 for t1, t2 in zip(timestamps, timestamps[1:]))
        for event in events:
            assert event.event["theta"] == 0.4
            assert event.event["n_nodes"] == 20
            assert isinstance(event.event["edges"], list)
            assert isinstance(event.event["appeared"], list)

    def test_per_subscription_theta_filters(self, live_server):
        with TsubasaRemoteClient(live_server.address) as client:
            events = list(
                client.subscribe(theta=0.7, window_points=300, max_events=3)
            )
        assert len(events) >= 1
        for event in events:
            assert event.event["theta"] == 0.7
            for _a, _b, weight in event.event["edges"]:
                assert weight > 0.7

    def test_window_mismatch_rejected(self, live_server):
        with TsubasaRemoteClient(live_server.address) as client:
            with pytest.raises(StreamError, match="standing query window"):
                list(client.subscribe(theta=0.5, window_points=100))

    def test_sub_base_theta_rejected(self, live_server):
        with TsubasaRemoteClient(live_server.address) as client:
            with pytest.raises(StreamError, match="base"):
                list(client.subscribe(theta=0.1, window_points=300))

    def test_subscribe_without_hub_rejected(self, server):
        with TsubasaRemoteClient(server.address) as client:
            with pytest.raises(ServiceError, match="no live stream"):
                list(client.subscribe(theta=0.5, window_points=600))

    def test_slow_consumer_is_disconnected(self, small_dataset):
        """A subscriber that stops reading is dropped once the enforced
        per-client bound (send queue + bounded socket buffers) fills."""
        rng = np.random.default_rng(7)
        loadings = rng.normal(size=(20, 4))
        engine = TsubasaRealtime(
            small_dataset.values[:, :300], 50, names=small_dataset.names
        )
        ingestor = StreamIngestor(engine, theta=0.1, keep_history=False)
        source = SyntheticSource(loadings, batch_size=50, seed=8)
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        handle = serve_in_thread(
            client,
            ingestor=ingestor,
            source=source,
            pump_interval=0.002,
            server_kwargs={
                "send_buffer": 1,
                "ws_write_buffer_bytes": 4096,
            },
        )
        try:
            conn = _WsClientConnection(handle.host, handle.port, timeout=30)
            # Keep the client's receive window tiny so kernel buffering
            # cannot hide the lag.
            conn._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            spec = QuerySpec(
                op="subscribe", window=WindowSpec(start=0, stop=300), theta=0.1
            )
            conn.send_text(json.dumps(
                {"protocol": 1, "id": "lazy", "spec": spec.to_dict()}
            ))
            # Read the ack only, then stop draining entirely.
            ack = json.loads(conn.recv_message())
            assert ack["ok"], ack
            deadline = time.time() + 30
            disconnects = 0
            with TsubasaRemoteClient(handle.address) as probe:
                while time.time() < deadline:
                    stats = probe.stats()
                    disconnects = stats["server"]["slow_consumer_disconnects"]
                    if disconnects:
                        break
                    time.sleep(0.2)
            assert disconnects >= 1, "slow consumer was never disconnected"
            conn.close()
        finally:
            handle.stop()


class TestServeHttpCli:
    def test_cli_serves_and_drains_on_sigterm(self, tmp_path):
        """`tsubasa serve --http` end to end as a subprocess: announce,
        answer a remote batch, exit cleanly on SIGTERM."""
        data = tmp_path / "data.npz"
        store = tmp_path / "sketch.mm"
        env_cmd = [sys.executable, "-m", "repro.cli"]
        subprocess.run(
            [*env_cmd, "generate", "--stations", "10", "--points", "400",
             "--seed", "3", "--out", str(data)],
            check=True,
        )
        subprocess.run(
            [*env_cmd, "sketch", "--data", str(data), "--window-size", "50",
             "--store", str(store), "--store-backend", "mmap"],
            check=True,
        )
        process = subprocess.Popen(
            [*env_cmd, "serve", "--store", str(store), "--backend", "mmap",
             "--http", "127.0.0.1:0"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "serving on http://" in banner
            address = banner.split("http://", 1)[1].split()[0]
            specs = [
                QuerySpec(op="network",
                          window=WindowSpec(end=399, length=200), theta=0.4),
                QuerySpec(op="top_k",
                          window=WindowSpec(end=399, length=200), k=3),
            ]
            with TsubasaRemoteClient(address) as client:
                assert client.health()["ok"] is True
                results = client.execute_many(specs)
            assert results[0].value.n_nodes == 10
            assert len(results[1].value) == 3
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "served 2 ok / 0 failed" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestProtocolAbuse:
    """Malformed transports get clean closes, never a wedged server."""

    @pytest.fixture()
    def strict_server(self, small_dataset):
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        with serve_in_thread(
            client, server_kwargs={"max_message_bytes": 1024}
        ) as handle:
            yield handle
            handle.stop()

    def test_oversized_ws_message_closed(self, strict_server):
        conn = _WsClientConnection(
            strict_server.host, strict_server.port, timeout=10
        )
        conn.send_text("x" * 4096)
        assert conn.recv_message() is None  # close frame, not a TCP reset
        conn.close()

    def test_unmasked_client_frame_closed(self, strict_server):
        from repro.api.server import encode_ws_frame

        conn = _WsClientConnection(
            strict_server.host, strict_server.port, timeout=10
        )
        conn._sock.sendall(encode_ws_frame(0x1, b'{"spec": {}}', mask=False))
        assert conn.recv_message() is None
        conn.close()

    def test_binary_frame_closed(self, strict_server):
        from repro.api.server import encode_ws_frame

        conn = _WsClientConnection(
            strict_server.host, strict_server.port, timeout=10
        )
        conn._sock.sendall(encode_ws_frame(0x2, b"\x00\x01", mask=True))
        assert conn.recv_message() is None
        conn.close()

    def test_oversized_http_body_413(self, strict_server):
        probe = socket.create_connection(
            (strict_server.host, strict_server.port), timeout=10
        )
        probe.sendall(
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\n"
        )
        status = probe.recv(65536).decode().split("\r\n")[0]
        probe.close()
        assert " 413 " in status

    def test_server_survives_abuse(self, strict_server):
        conn = _WsClientConnection(
            strict_server.host, strict_server.port, timeout=10
        )
        conn.send_text("definitely not json")
        error = json.loads(conn.recv_message())
        assert error["ok"] is False
        conn.close()
        with TsubasaRemoteClient(strict_server.address) as client:
            assert client.health()["ok"] is True


class TestSubscriptionLimits:
    def test_subscriptions_count_against_inflight_cap(self, small_dataset):
        """One connection cannot open unbounded subscriptions: they spend
        the same per-connection budget as requests."""
        engine = TsubasaRealtime(
            small_dataset.values[:, :300], 50, names=small_dataset.names
        )
        ingestor = StreamIngestor(engine, theta=0.4)
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        handle = serve_in_thread(
            client,
            ingestor=ingestor,
            server_kwargs={"max_inflight": 2},
        )
        try:
            conn = _WsClientConnection(handle.host, handle.port, timeout=30)
            spec = QuerySpec(
                op="subscribe", window=WindowSpec(start=0, stop=300), theta=0.4
            )
            for i in range(4):
                conn.send_text(json.dumps(
                    {"protocol": 1, "id": i, "spec": spec.to_dict()}
                ))
            envelopes = [json.loads(conn.recv_message()) for _ in range(4)]
            conn.close()
        finally:
            handle.stop()
        acks = [e for e in envelopes if e["ok"]]
        rejections = [e for e in envelopes if not e["ok"]]
        assert len(acks) == 2
        assert len(rejections) == 2
        for envelope in rejections:
            assert "in-flight" in envelope["error"]["message"]


class TestServeHttpStreamCli:
    def test_stream_data_serves_subscriptions(self, tmp_path):
        """`serve --http --stream-data` on a FULLY sketched dataset still
        streams (the feed loops as a simulated live source)."""
        data = tmp_path / "data.npz"
        store = tmp_path / "sketch.mm"
        env_cmd = [sys.executable, "-m", "repro.cli"]
        subprocess.run(
            [*env_cmd, "generate", "--stations", "8", "--points", "400",
             "--seed", "2", "--out", str(data)],
            check=True,
        )
        subprocess.run(
            [*env_cmd, "sketch", "--data", str(data), "--window-size", "50",
             "--store", str(store), "--store-backend", "mmap"],
            check=True,
        )
        process = subprocess.Popen(
            [*env_cmd, "serve", "--store", str(store), "--backend", "mmap",
             "--http", "127.0.0.1:0",
             "--stream-data", str(data), "--stream-theta", "0.3",
             "--stream-windows", "4", "--stream-interval", "0.05"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "serving on http://" in banner
            address = banner.split("http://", 1)[1].split()[0]
            with TsubasaRemoteClient(address) as client:
                events = list(client.subscribe(
                    theta=0.3, window_points=200, max_events=3
                ))
            assert len(events) == 3
            seqs = [e.seq for e in events]
            assert seqs == list(range(seqs[0], seqs[0] + 3))
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "1 subscriptions" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
