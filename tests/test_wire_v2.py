"""End-to-end tests for wire protocol v2 negotiation and serving policies.

Covers the tentpole contract of wire-speed serving: per-connection
negotiation (HTTP ``Accept`` and the WebSocket hello), transparent
fallback against v1-only servers, bit-identical decoding across every
backend, bearer-token auth, the server-wide admission budget, and the
per-protocol wire accounting in ``/v1/stats``.
"""

from __future__ import annotations

import http.client
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.frames import CONTENT_TYPE_V2, decode_frame
from repro.api.remote import TsubasaRemoteClient, _WsClientConnection
from repro.api.server import serve_in_thread
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    InMemoryProvider,
    MmapProvider,
)
from repro.exceptions import ServiceError
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore

WINDOW = WindowSpec(end=599, length=200)

BUFFER_SPECS = [
    QuerySpec(op="matrix", window=WINDOW),
    QuerySpec(op="network", window=WINDOW, theta=0.4),
]

JSON_SPECS = [
    QuerySpec(op="top_k", window=WINDOW, k=5),
    QuerySpec(op="degree", window=WINDOW, theta=0.4),
    QuerySpec(op="pairs_in_range", window=WINDOW, low=0.2, high=0.8),
]


def make_sketch(dataset):
    return build_sketch(dataset.values, 50, names=dataset.names)


class _SlowProvider(InMemoryProvider):
    backend_name = "slow"

    def __init__(self, sketch, delay=0.4):
        super().__init__(sketch)
        self._delay = delay

    def window_stats(self, indices):
        time.sleep(self._delay)
        return super().window_stats(indices)


@pytest.fixture(scope="module")
def v2_server(small_dataset):
    client = TsubasaClient(provider=InMemoryProvider(make_sketch(small_dataset)))
    with serve_in_thread(client, service_kwargs={"max_workers": 2}) as handle:
        yield handle
        handle.stop()


@pytest.fixture(scope="module")
def v1_only_server(small_dataset):
    """A pre-v2 server: same stack with the v2 encoding disabled."""
    client = TsubasaClient(provider=InMemoryProvider(make_sketch(small_dataset)))
    with serve_in_thread(client, server_kwargs={"enable_v2": False}) as handle:
        yield handle
        handle.stop()


@pytest.fixture(scope="module")
def local_client(small_dataset):
    return TsubasaClient(provider=InMemoryProvider(make_sketch(small_dataset)))


def assert_same_result(remote, local):
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


class TestHttpNegotiation:
    def test_v2_reply_is_binary_with_v2_content_type(self, v2_server):
        conn = http.client.HTTPConnection(
            v2_server.host, v2_server.port, timeout=10
        )
        frame = {"protocol": 1, "id": 1, "spec": BUFFER_SPECS[0].to_dict()}
        conn.request(
            "POST", "/v1/query", body=json.dumps(frame).encode(),
            headers={"Accept": CONTENT_TYPE_V2},
        )
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == CONTENT_TYPE_V2
        meta, buffers, offset = decode_frame(body)
        assert offset == len(body)
        assert meta["ok"] is True and meta["id"] == 1
        assert len(buffers) == 1  # the raw correlation matrix

    def test_without_accept_header_reply_stays_v1_json(self, v2_server):
        conn = http.client.HTTPConnection(
            v2_server.host, v2_server.port, timeout=10
        )
        frame = {"protocol": 1, "id": 1, "spec": BUFFER_SPECS[0].to_dict()}
        conn.request("POST", "/v1/query", body=json.dumps(frame).encode())
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.getheader("Content-Type") == "application/json"
        assert payload["protocol"] == 1
        assert payload["ok"] is True

    def test_v2_batch_is_concatenated_frames(self, v2_server, local_client):
        with TsubasaRemoteClient(v2_server.address) as client:
            results = client.execute_many(BUFFER_SPECS + JSON_SPECS)
        assert client.negotiated_protocol in (None, 2)
        for spec, result in zip(BUFFER_SPECS + JSON_SPECS, results):
            assert_same_result(result, local_client.execute(spec))

    def test_malformed_binary_reply_rejected_by_client(self, v2_server):
        # A truncated/garbled frame must surface as a protocol error, not
        # a crash or silent garbage.
        from repro.exceptions import DataError

        with pytest.raises(DataError):
            decode_frame(b"TSB2\x00")


class TestWsNegotiation:
    def test_hello_negotiates_v2(self, v2_server, local_client):
        with TsubasaRemoteClient(v2_server.address, transport="ws") as client:
            result = client.execute(BUFFER_SPECS[0])
            assert client.negotiated_protocol == 2
            assert_same_result(result, local_client.execute(BUFFER_SPECS[0]))

    def test_explicit_v1_never_negotiates(self, v2_server, local_client):
        with TsubasaRemoteClient(
            v2_server.address, transport="ws", protocol=1
        ) as client:
            result = client.execute(BUFFER_SPECS[0])
            assert client.negotiated_protocol == 1
            assert_same_result(result, local_client.execute(BUFFER_SPECS[0]))

    def test_auto_falls_back_against_v1_only_server(
        self, v1_only_server, local_client
    ):
        with TsubasaRemoteClient(
            v1_only_server.address, transport="ws"
        ) as client:
            result = client.execute(BUFFER_SPECS[0])
            assert client.negotiated_protocol == 1
            assert_same_result(result, local_client.execute(BUFFER_SPECS[0]))

    def test_strict_v2_raises_against_v1_only_server(self, v1_only_server):
        with TsubasaRemoteClient(
            v1_only_server.address, transport="ws", protocol=2
        ) as client:
            with pytest.raises(ServiceError, match="protocol v2"):
                client.execute(BUFFER_SPECS[0])

    def test_http_auto_falls_back_against_v1_only_server(
        self, v1_only_server, local_client
    ):
        with TsubasaRemoteClient(v1_only_server.address) as client:
            result = client.execute(BUFFER_SPECS[0])
            assert_same_result(result, local_client.execute(BUFFER_SPECS[0]))

    def test_mixed_v1_and_v2_clients_share_a_server(
        self, v2_server, local_client
    ):
        def run(protocol):
            with TsubasaRemoteClient(
                v2_server.address, transport="ws", protocol=protocol
            ) as client:
                return [client.execute(s) for s in BUFFER_SPECS + JSON_SPECS]

        with ThreadPoolExecutor(4) as pool:
            batches = list(pool.map(run, [1, 2, "auto", 1]))
        locals_ = [local_client.execute(s) for s in BUFFER_SPECS + JSON_SPECS]
        for batch in batches:
            for remote, local in zip(batch, locals_):
                assert_same_result(remote, local)

    def test_v2_decode_equals_v1_decode_exactly(self, v2_server):
        # The bit-identity contract, stated directly: both protocol
        # encodings of the same answer decode to identical arrays.
        with TsubasaRemoteClient(
            v2_server.address, transport="ws", protocol=1
        ) as v1c:
            v1_results = [v1c.execute(s) for s in BUFFER_SPECS]
        with TsubasaRemoteClient(
            v2_server.address, transport="ws", protocol=2
        ) as v2c:
            v2_results = [v2c.execute(s) for s in BUFFER_SPECS]
        np.testing.assert_array_equal(
            v2_results[0].value.values, v1_results[0].value.values
        )
        np.testing.assert_array_equal(
            v2_results[1].value.weights, v1_results[1].value.weights
        )
        np.testing.assert_array_equal(
            v2_results[1].value.adjacency, v1_results[1].value.adjacency
        )


class TestBitIdentityAcrossBackends:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "mmap"])
    def test_v2_matches_in_process(self, backend, small_dataset, tmp_path):
        sketch = make_sketch(small_dataset)
        if backend == "memory":
            provider = InMemoryProvider(sketch)
        elif backend == "sqlite":
            with SqliteSketchStore(tmp_path / "wire.db") as store:
                save_sketch(store, sketch)
                provider = InMemoryProvider(load_sketch(store))
        else:
            with MmapStore(tmp_path / "wire.mm") as store:
                save_sketch(store, sketch)
            provider = MmapProvider(MmapStore(tmp_path / "wire.mm"))
        client = TsubasaClient(provider=provider)
        local = [client.execute(s) for s in BUFFER_SPECS + JSON_SPECS]
        with serve_in_thread(client) as handle:
            for transport in ("http", "ws"):
                with TsubasaRemoteClient(
                    handle.address, transport=transport
                ) as remote:
                    for spec, expected in zip(BUFFER_SPECS + JSON_SPECS, local):
                        assert_same_result(remote.execute(spec), expected)
            handle.stop()


class TestAuth:
    @pytest.fixture(scope="class")
    def auth_server(self, small_dataset):
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        with serve_in_thread(
            client, server_kwargs={"auth_token": "swordfish"}
        ) as handle:
            yield handle
            handle.stop()

    def test_http_without_token_is_401(self, auth_server):
        conn = http.client.HTTPConnection(
            auth_server.host, auth_server.port, timeout=10
        )
        frame = {"protocol": 1, "id": 1, "spec": BUFFER_SPECS[0].to_dict()}
        conn.request("POST", "/v1/query", body=json.dumps(frame).encode())
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 401
        assert payload["ok"] is False
        assert "auth" in payload["error"]["message"].lower()

    def test_ws_handshake_without_token_rejected(self, auth_server):
        with pytest.raises(ServiceError, match="401"):
            _WsClientConnection(auth_server.host, auth_server.port, timeout=10)

    def test_healthz_stays_open(self, auth_server):
        with TsubasaRemoteClient(auth_server.address) as client:
            assert client.health()["ok"] is True

    def test_token_clients_work_on_both_transports(
        self, auth_server, local_client
    ):
        for transport in ("http", "ws"):
            with TsubasaRemoteClient(
                auth_server.address, transport=transport,
                auth_token="swordfish",
            ) as client:
                assert_same_result(
                    client.execute(BUFFER_SPECS[0]),
                    local_client.execute(BUFFER_SPECS[0]),
                )

    def test_auth_failures_counted(self, auth_server):
        with TsubasaRemoteClient(
            auth_server.address, auth_token="swordfish"
        ) as client:
            stats = client.stats()
        assert stats["server"]["auth_failures"] >= 1


class TestGlobalAdmission:
    def test_budget_sheds_with_overloaded_envelope(self, small_dataset):
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset), delay=0.3)
        )
        with serve_in_thread(
            client,
            service_kwargs={"max_workers": 2},
            server_kwargs={"max_inflight_total": 1},
        ) as handle:

            def run(i):
                with TsubasaRemoteClient(handle.address) as remote:
                    try:
                        remote.execute(
                            QuerySpec(
                                op="matrix",
                                window=WindowSpec(
                                    end=599, length=100 + 100 * (i % 3)
                                ),
                            )
                        )
                        return "ok"
                    except ServiceError as exc:
                        assert "capacity" in str(exc)
                        return "shed"

            with ThreadPoolExecutor(8) as pool:
                outcomes = list(pool.map(run, range(16)))
            assert "ok" in outcomes and "shed" in outcomes
            with TsubasaRemoteClient(handle.address) as remote:
                stats = remote.stats()
            assert stats["server"]["rejected_global_budget"] == (
                outcomes.count("shed")
            )
            assert stats["server"]["max_inflight_total"] == 1
            handle.stop()

    def test_shed_http_request_is_503(self, small_dataset):
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset), delay=0.5)
        )
        with serve_in_thread(
            client,
            service_kwargs={"max_workers": 2},
            server_kwargs={"max_inflight_total": 1},
        ) as handle:
            with ThreadPoolExecutor(2) as pool:
                slow = pool.submit(
                    TsubasaRemoteClient(handle.address).execute,
                    BUFFER_SPECS[0],
                )
                time.sleep(0.15)  # let the first request occupy the budget
                conn = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=10
                )
                frame = {
                    "protocol": 1, "id": 9,
                    "spec": QuerySpec(
                        op="matrix", window=WindowSpec(end=599, length=300)
                    ).to_dict(),
                }
                conn.request(
                    "POST", "/v1/query", body=json.dumps(frame).encode()
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                conn.close()
                slow.result()
            assert response.status == 503
            assert payload["ok"] is False
            assert payload["error"]["type"] == "ServiceError"
            handle.stop()


class TestWireStats:
    def test_per_protocol_breakdown(self, small_dataset):
        client = TsubasaClient(
            provider=InMemoryProvider(make_sketch(small_dataset))
        )
        with serve_in_thread(client) as handle:
            with TsubasaRemoteClient(handle.address, protocol=1) as v1c:
                v1c.execute(BUFFER_SPECS[0])
            with TsubasaRemoteClient(handle.address, protocol=2) as v2c:
                v2c.execute(BUFFER_SPECS[0])
                v2c.execute_many(BUFFER_SPECS)
                stats = v2c.stats()
            wire = stats["server"]["wire"]
            handle.stop()
        assert wire["v1"]["requests"] >= 1
        assert wire["v2"]["requests"] >= 3
        for version in ("v1", "v2"):
            assert wire[version]["bytes_sent"] > 0
            assert wire[version]["encode_seconds"] >= 0.0

    def test_per_connection_rejections_logged_and_counted(
        self, small_dataset, caplog
    ):
        client = TsubasaClient(
            provider=_SlowProvider(make_sketch(small_dataset), delay=0.4)
        )
        with serve_in_thread(
            client, server_kwargs={"max_inflight": 1}
        ) as handle:
            with caplog.at_level(logging.INFO, logger="repro.api.server"):
                conn = _WsClientConnection(handle.host, handle.port, timeout=30)
                slow = QuerySpec(
                    op="matrix", window=WindowSpec(end=599, length=600)
                )
                for i in range(3):
                    conn.send_text(json.dumps(
                        {"protocol": 1, "id": i, "spec": slow.to_dict()}
                    ))
                envelopes = [
                    json.loads(conn.recv_message()) for _ in range(3)
                ]
                conn.close()
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and not any(
                    "rejected over the per-connection" in r.message
                    for r in caplog.records
                ):
                    time.sleep(0.05)
            with TsubasaRemoteClient(handle.address) as remote:
                stats = remote.stats()
            handle.stop()
        assert sum(1 for e in envelopes if not e["ok"]) == 2
        assert stats["server"]["overload_rejections"] == 2
        assert any(
            "2 request(s) rejected over the per-connection" in r.message
            for r in caplog.records
        )
