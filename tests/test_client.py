"""Tests for the TsubasaClient facade (repro.api.client).

The acceptance bar: every existing engine/CLI query path routed through
QuerySpec/TsubasaClient produces *bit-identical* output, across every sketch
backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.client import TsubasaClient
from repro.api.spec import QuerySpec, WindowSpec
from repro.approx.sketch import build_approx_sketch
from repro.core.exact import query_correlation_matrix
from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork
from repro.core.queries import (
    degree_at_threshold,
    most_anticorrelated_pairs,
    neighbors,
    pairs_in_range,
    top_k_pairs,
)
from repro.core.segmentation import QueryWindow
from repro.core.sketch import build_sketch
from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
)
from repro.exceptions import DataError, SketchError
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import load_sketch, save_sketch
from repro.storage.sqlite_store import SqliteSketchStore

B = 50
ALIGNED = WindowSpec(end=599, length=200)
ARBITRARY = WindowSpec(end=587, length=173)
EARLIER = WindowSpec(end=399, length=200)


@pytest.fixture(scope="module")
def data(request):
    from repro.data.synthetic import generate_station_dataset

    return generate_station_dataset(n_stations=16, n_points=600, seed=3).values


@pytest.fixture(scope="module")
def sketch(data):
    return build_sketch(data, B)


@pytest.fixture(scope="module")
def reference(sketch, data):
    """The pre-API ground truth: the functional Lemma-1 query path."""
    provider = InMemoryProvider(sketch, data=data)

    def matrix(window: WindowSpec) -> np.ndarray:
        query = window.resolve(provider.plan)
        selection = provider.plan.align(query)
        return query_correlation_matrix(provider, selection)

    return matrix


#: Provenance backend names where the parametrized id differs.
BACKEND_NAMES = {"store": "memory"}


def make_provider(backend: str, sketch, data, tmp_path):
    if backend == "memory":
        return InMemoryProvider(sketch, data=data)
    if backend == "store":
        # A SQLite store serves through the in-memory backend once loaded:
        # the round trip must not change a single bit.
        with SqliteSketchStore(tmp_path / "client.db") as store:
            save_sketch(store, sketch)
            return InMemoryProvider(load_sketch(store), data=data)
    if backend == "mmap":
        with MmapStore(tmp_path / "client.mm") as store:
            save_sketch(store, sketch)
        return MmapProvider(tmp_path / "client.mm", data=data)
    if backend == "chunked":
        return ChunkedBuildProvider(data, B)
    raise AssertionError(backend)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["memory", "store", "mmap", "chunked"])
    @pytest.mark.parametrize("window", [ALIGNED, ARBITRARY])
    def test_matrix_identical_across_backends(
        self, backend, window, sketch, data, reference, tmp_path
    ):
        client = TsubasaClient(
            provider=make_provider(backend, sketch, data, tmp_path)
        )
        result = client.execute(QuerySpec(op="matrix", window=window))
        if backend == "chunked":
            # The on-demand build computes covariances by row blocks; it is
            # numerically equal, not bit-identical (same contract as the
            # provider suite).
            np.testing.assert_allclose(
                result.value.values, reference(window), atol=1e-10
            )
        else:
            np.testing.assert_array_equal(result.value.values, reference(window))
        assert result.provenance.backend == BACKEND_NAMES.get(backend, backend)

    def test_engine_method_delegation_is_bit_identical(
        self, sketch, data, reference
    ):
        from repro.core.exact import TsubasaHistorical

        engine = TsubasaHistorical(provider=InMemoryProvider(sketch, data=data))
        for window in (ALIGNED, ARBITRARY):
            matrix = engine.correlation_matrix(
                QueryWindow(end=window.end, length=window.length)
            )
            np.testing.assert_array_equal(matrix.values, reference(window))

    def test_network_matches_manual_threshold(self, sketch, data, reference):
        client = TsubasaClient(provider=InMemoryProvider(sketch, data=data))
        result = client.execute(
            QuerySpec(op="network", window=ALIGNED, theta=0.4)
        )
        manual = ClimateNetwork.from_matrix(
            CorrelationMatrix(names=sketch.names, values=reference(ALIGNED)),
            0.4,
        )
        assert result.value.edge_set() == manual.edge_set()


class TestOperators:
    @pytest.fixture(scope="class")
    def client(self, sketch, data):
        return TsubasaClient(provider=InMemoryProvider(sketch, data=data))

    @pytest.fixture(scope="class")
    def matrix(self, client):
        return client.execute(QuerySpec(op="matrix", window=ALIGNED)).value

    def test_top_k(self, client, matrix):
        result = client.execute(QuerySpec(op="top_k", window=ALIGNED, k=5))
        assert result.value == top_k_pairs(matrix, 5)

    def test_anticorrelated(self, client, matrix):
        result = client.execute(
            QuerySpec(op="anticorrelated", window=ALIGNED, k=5)
        )
        assert result.value == most_anticorrelated_pairs(matrix, 5)

    def test_neighbors(self, client, matrix):
        name = matrix.names[0]
        result = client.execute(
            QuerySpec(op="neighbors", window=ALIGNED, node=name, theta=0.3)
        )
        assert result.value == neighbors(matrix, name, 0.3)

    def test_pairs_in_range(self, client, matrix):
        result = client.execute(
            QuerySpec(op="pairs_in_range", window=ALIGNED, low=0.2, high=0.5)
        )
        assert result.value == pairs_in_range(matrix, 0.2, 0.5)

    def test_degree(self, client, matrix):
        result = client.execute(
            QuerySpec(op="degree", window=ALIGNED, theta=0.4)
        )
        assert result.value == degree_at_threshold(matrix, 0.4)

    def test_diff_network(self, client):
        result = client.execute(
            QuerySpec(
                op="diff_network",
                window=ALIGNED,
                baseline=EARLIER,
                theta=0.4,
            )
        )
        current = client.execute(
            QuerySpec(op="network", window=ALIGNED, theta=0.4)
        ).value.edge_set()
        previous = client.execute(
            QuerySpec(op="network", window=EARLIER, theta=0.4)
        ).value.edge_set()
        appeared, disappeared = result.value
        assert appeared == current - previous
        assert disappeared == previous - current

    def test_payloads_are_json_compatible(self, client, matrix):
        import json

        specs = [
            QuerySpec(op="matrix", window=ALIGNED),
            QuerySpec(op="network", window=ALIGNED, theta=0.4),
            QuerySpec(op="top_k", window=ALIGNED, k=3),
            QuerySpec(op="neighbors", window=ALIGNED, node=matrix.names[0],
                      theta=0.3),
            QuerySpec(op="pairs_in_range", window=ALIGNED, low=0.1, high=0.3),
            QuerySpec(op="degree", window=ALIGNED, theta=0.4),
            QuerySpec(op="diff_network", window=ALIGNED, baseline=EARLIER,
                      theta=0.4),
        ]
        for result in client.execute_many(specs):
            json.dumps(result.payload())  # must not raise


class TestExecuteMany:
    def test_shares_matrix_computations(self, sketch, data, counting_provider):
        provider = counting_provider(sketch, data=data)
        client = TsubasaClient(provider=provider)
        reads_before = provider.windows_read
        results = client.execute_many(
            [
                QuerySpec(op="network", window=ALIGNED, theta=0.4),
                QuerySpec(op="top_k", window=ALIGNED, k=3),
                QuerySpec(op="degree", window=ALIGNED, theta=0.4),
            ]
        )
        # One matrix pass: 4 windows read once, not three times.
        assert provider.windows_read - reads_before == 4
        assert [r.provenance.coalesced for r in results] == [
            False, True, True
        ]

    def test_window_forms_coalesce(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        results = client.execute_many(
            [
                QuerySpec(op="matrix", window=WindowSpec(end=599, length=200)),
                QuerySpec(op="matrix", window=WindowSpec(start=400, stop=600)),
                QuerySpec(
                    op="matrix", window=WindowSpec(first_window=8, n_windows=4)
                ),
            ]
        )
        assert [r.provenance.coalesced for r in results] == [False, True, True]
        for result in results[1:]:
            np.testing.assert_array_equal(
                result.value.values, results[0].value.values
            )


class TestApproxEngine:
    def test_matches_approx_engine_methods(self, data):
        from repro.approx.network import TsubasaApproximate

        approx = build_approx_sketch(data, B, n_coeffs=8)
        engine = TsubasaApproximate(approx)
        client = TsubasaClient(approx_sketch=approx)
        for method in ("eq5", "average", "auto"):
            spec = QuerySpec(
                op="matrix", window=ALIGNED, engine="approx", method=method
            )
            np.testing.assert_array_equal(
                client.execute(spec).value.values,
                engine.correlation_matrix((599, 200), method=method).values,
            )

    def test_arbitrary_window_rejected(self, data):
        approx = build_approx_sketch(data, B, n_coeffs=8)
        client = TsubasaClient(approx_sketch=approx)
        with pytest.raises(SketchError, match="DFT-based"):
            client.execute(
                QuerySpec(op="matrix", window=ARBITRARY, engine="approx")
            )

    def test_default_method_coalesces_with_explicit_eq5(self, data):
        approx = build_approx_sketch(data, B, n_coeffs=8)
        client = TsubasaClient(approx_sketch=approx)
        results = client.execute_many(
            [
                QuerySpec(op="matrix", window=ALIGNED, engine="approx"),
                QuerySpec(op="matrix", window=ALIGNED, engine="approx",
                          method="eq5"),
            ]
        )
        # An omitted method runs eq5, so the two matrices are identical and
        # must share one computation.
        assert results[1].provenance.coalesced
        np.testing.assert_array_equal(
            results[0].value.values, results[1].value.values
        )

    def test_approx_without_sketch_rejected(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        with pytest.raises(DataError, match="approx"):
            client.execute(
                QuerySpec(op="matrix", window=ALIGNED, engine="approx")
            )


class TestValidation:
    def test_requires_some_backend(self):
        with pytest.raises(DataError):
            TsubasaClient()

    def test_rejects_non_provider(self, sketch):
        with pytest.raises(DataError):
            TsubasaClient(provider=sketch)

    def test_rejects_non_spec(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        with pytest.raises(DataError):
            client.execute({"op": "matrix"})

    def test_sketch_only_backend_rejects_fragments(self, sketch):
        client = TsubasaClient(provider=InMemoryProvider(sketch))
        with pytest.raises(SketchError, match="not aligned"):
            client.execute(QuerySpec(op="matrix", window=ARBITRARY))

    def test_data_override_enables_fragments(self, sketch, data, reference):
        client = TsubasaClient(provider=InMemoryProvider(sketch), data=data)
        result = client.execute(QuerySpec(op="matrix", window=ARBITRARY))
        np.testing.assert_array_equal(result.value.values, reference(ARBITRARY))

