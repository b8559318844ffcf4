"""Tests for the versioned wire protocol (repro.api.protocol)."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.protocol import (
    PROTOCOL_VERSION,
    ErrorEnvelope,
    Request,
    Response,
    StreamEvent,
    parse_frame,
    parse_request,
    value_from_payload,
)
from repro.api.server import serve_in_thread
from repro.api.spec import QuerySpec, WindowSpec
from repro.core.sketch import build_sketch
from repro.engine.providers import InMemoryProvider
from repro.exceptions import (
    DataError,
    ServiceError,
    SketchError,
    TsubasaError,
    error_code_for,
)

WINDOW = WindowSpec(end=599, length=200)


def spec_for(op: str, **extra) -> QuerySpec:
    defaults = {
        "matrix": {},
        "network": {"theta": 0.5},
        "top_k": {"k": 5},
        "anticorrelated": {"k": 5},
        "neighbors": {"node": "stn000", "theta": 0.5},
        "pairs_in_range": {"low": 0.2, "high": 0.6},
        "degree": {"theta": 0.5},
        "diff_network": {
            "baseline": WindowSpec(end=399, length=200),
            "theta": 0.5,
        },
    }[op]
    defaults.update(extra)
    return QuerySpec(op=op, window=WINDOW, **defaults)


class TestRequestFrames:
    def test_framed_round_trip(self):
        request = Request(spec=spec_for("network"), id="dash-7")
        payload = json.loads(request.to_json())
        assert payload["protocol"] == PROTOCOL_VERSION
        parsed = parse_request(payload)
        assert parsed.spec == request.spec
        assert parsed.id == "dash-7"

    def test_inline_form_is_rejected(self, small_dataset):
        """Spec fields at the frame's top level are not a request frame,
        neither to ``parse_request`` nor over HTTP ``/v1/query``."""
        inline = {"id": 3, **spec_for("network").to_dict()}
        with pytest.raises(DataError, match="no 'spec'"):
            parse_request(inline)
        provider = InMemoryProvider(
            build_sketch(small_dataset.values, 50, names=small_dataset.names)
        )
        with serve_in_thread(TsubasaClient(provider=provider)) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            conn.request("POST", "/v1/query", body=json.dumps(inline).encode())
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
        assert response.status == 400
        assert payload["ok"] is False
        assert payload["id"] == 3
        assert payload["error"]["type"] == "DataError"
        assert payload["error"]["code"] == 3

    def test_missing_id_is_none(self):
        parsed = parse_request({"spec": spec_for("matrix").to_dict()})
        assert parsed.id is None

    @pytest.mark.parametrize("bad_id", [1.5, True, ["x"], {"a": 1}])
    def test_rejects_non_scalar_ids(self, bad_id):
        with pytest.raises(DataError):
            parse_request(
                {"id": bad_id, "spec": spec_for("matrix").to_dict()}
            )

    def test_version_negotiation(self):
        frame = {"protocol": 3, "spec": spec_for("matrix").to_dict()}
        with pytest.raises(DataError, match="unsupported protocol version 3"):
            parse_request(frame)
        # Explicit known versions and omitted version all parse; v2 requests
        # are framed identically to v1 (only completions change encoding).
        assert parse_request(
            {"protocol": 1, "spec": spec_for("matrix").to_dict()}
        ).spec == spec_for("matrix")
        assert parse_request(
            {"protocol": 2, "spec": spec_for("matrix").to_dict()}
        ).spec == spec_for("matrix")

    @pytest.mark.parametrize(
        "frame",
        [
            "not a dict",
            42,
            None,
            [],
            {"protocol": "one", "spec": {"op": "matrix"}},
            {"spec": {"op": "matrix"}},  # spec missing window
            {"spec": spec_for("matrix").to_dict(), "extra": 1},
            {"spec": {"op": "matrix", "window": {"end": 599, "length": 200},
                      "bogus": True}},
        ],
    )
    def test_rejects_malformed_frames(self, frame):
        with pytest.raises(DataError):
            parse_request(frame)

    def test_subscribe_spec_parses(self):
        parsed = parse_request(
            {"spec": {"op": "subscribe",
                      "window": {"start": 0, "stop": 300},
                      "theta": 0.6}}
        )
        assert parsed.spec.op == "subscribe"
        assert parsed.spec.theta == 0.6


class TestCompletionFrames:
    def test_response_round_trip(self):
        response = Response(
            result={"pairs": [["a", "b", 0.9]]},
            id=11,
            seconds=0.25,
            provenance={"backend": "mmap"},
        )
        parsed = parse_frame(json.loads(response.to_json()))
        assert isinstance(parsed, Response)
        assert parsed == response

    def test_error_round_trip_and_code_taxonomy(self):
        exc = SketchError("window not aligned")
        envelope = ErrorEnvelope.from_exception(exc, "q1")
        assert envelope.code == error_code_for(exc) == 2
        parsed = parse_frame(json.loads(envelope.to_json()))
        assert isinstance(parsed, ErrorEnvelope)
        assert parsed == envelope
        rebuilt = parsed.to_exception()
        assert isinstance(rebuilt, SketchError)
        assert str(rebuilt) == "window not aligned"

    def test_non_library_error_envelope(self):
        envelope = ErrorEnvelope.from_exception(RuntimeError("numpy blew up"))
        assert envelope.code is None
        rebuilt = envelope.to_exception()
        assert isinstance(rebuilt, TsubasaError)
        assert "RuntimeError" in str(rebuilt)

    def test_stream_event_round_trip(self):
        event = StreamEvent(
            id="sub", seq=4,
            event={"timestamp": 450, "n_edges": 3, "edges": []},
        )
        parsed = parse_frame(json.loads(event.to_json()))
        assert isinstance(parsed, StreamEvent)
        assert parsed == event

    @pytest.mark.parametrize(
        "frame",
        [
            {"protocol": 1, "ok": False},          # error without error body
            {"protocol": 1, "ok": True},           # neither result nor event
            {"protocol": 1, "id": 1, "ok": True, "event": {}},  # missing seq
            {"protocol": 1, "id": 1, "ok": "yes", "result": {}},
            {"protocol": 3, "id": 1, "ok": True, "result": {}},
            {"protocol": 1, "id": 1, "ok": True, "result": {},
             "seconds": "fast"},
            [],
        ],
    )
    def test_rejects_malformed_completions(self, frame):
        with pytest.raises(DataError):
            parse_frame(frame)

    def test_subscribe_is_rejected_by_inprocess_surfaces(self, small_matrix):
        client = TsubasaClient(
            provider=InMemoryProvider(build_sketch(small_matrix, 50))
        )
        with pytest.raises(ServiceError, match="streaming"):
            client.execute(
                QuerySpec(op="subscribe", window=WINDOW, theta=0.5)
            )


class TestValuePayloadInverse:
    """value_from_payload is the exact inverse of QueryResult.payload."""

    @pytest.fixture()
    def client(self, small_dataset):
        sketch = build_sketch(
            small_dataset.values, 50, names=small_dataset.names
        )
        return TsubasaClient(provider=InMemoryProvider(sketch))

    @pytest.mark.parametrize(
        "op",
        ["matrix", "top_k", "anticorrelated", "neighbors",
         "pairs_in_range", "degree", "diff_network"],
    )
    def test_bit_identical_round_trip(self, client, op):
        spec = spec_for(op)
        result = client.execute(spec)
        # Through real JSON, like the wire does.
        payload = json.loads(json.dumps(result.payload()))
        value = value_from_payload(spec, payload)
        if op == "matrix":
            assert value.names == result.value.names
            np.testing.assert_array_equal(value.values, result.value.values)
        else:
            assert value == result.value

    def test_network_round_trip(self, client):
        spec = spec_for("network")
        result = client.execute(spec)
        payload = json.loads(json.dumps(result.payload()))
        network = value_from_payload(spec, payload)
        original = result.value
        assert network.names == original.names
        assert network.threshold == original.threshold
        assert network.edge_set() == original.edge_set()
        np.testing.assert_array_equal(network.adjacency, original.adjacency)
        for a, b in original.edge_set():
            assert network.edge_weight(a, b) == original.edge_weight(a, b)

    def test_malformed_payload_raises_data_error(self):
        with pytest.raises(DataError):
            value_from_payload(spec_for("matrix"), {"names": ["a"]})
        with pytest.raises(DataError):
            value_from_payload(spec_for("degree"), {"degree": "nope"})
        with pytest.raises(DataError):
            value_from_payload(spec_for("matrix"), "not an object")
