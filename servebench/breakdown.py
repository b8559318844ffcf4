"""Per-layer metrics of a traced phase: spans, server counters and schedule.

Every ``*_ms`` metric is a *self* time (the span minus its child spans), so
the layers add up instead of nesting. Metrics of a layer a workload does not
exercise read 0; the report's span table does not list its spans.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from statistics import mean
from typing import Any

import spans as sp
from layers import PARENT_NAMES, QUERY_ROOTS
from summary import lateness, percentile


def _delta(after: dict[str, Any], before: dict[str, Any], *path: str) -> float:
    def get(payload: dict[str, Any]) -> float:
        for key in path:
            payload = payload.get(key, {}) if isinstance(payload, dict) else {}
        return float(payload) if isinstance(payload, (int, float)) else 0.0

    return get(after) - get(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Breakdown:
    """Self times by span name and by key, after linking the span tree.

    Only spans starting at or after ``since`` (the measured phase) are
    indexed; earlier ones (warm-up) still count as children.
    """

    def __init__(self, spans: list[sp.Span], since: float = float("-inf")) -> None:
        sp.link(spans, PARENT_NAMES)
        self.spans = spans
        self.own = sp.self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.by_key: dict[Any, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[sp.START] >= since:
                self.by_name[span[sp.NAME]].append(index)
                self.by_key[span[sp.KEY]].append(index)

    def self_ms(self, name: str) -> list[float]:
        return [self.own[i] * 1e3 for i in self.by_name[name]]

    def roots(self, key: Any, names: Sequence[str]) -> list[tuple[float, float]]:
        """Intervals of the root spans of ``key`` named in ``names``."""
        return [
            (span[sp.START], span[sp.END])
            for span in (self.spans[i] for i in self.by_key.get(key, ()))
            if span[sp.PARENT] is None and span[sp.NAME] in names
        ]

    def layer_totals(self) -> dict[str, float]:
        """Summed self seconds per layer (span-name prefix)."""
        totals: dict[str, float] = defaultdict(float)
        for name, indices in self.by_name.items():
            totals[name.split(".", 1)[0]] += sum(self.own[i] for i in indices)
        return dict(totals)


def query_metrics(
    trace: Breakdown, batches: Sequence[tuple[float, float, list[str]]]
) -> dict[str, float]:
    """Metrics of request/response traffic (the dashboard and scan lanes)."""
    computes = [trace.spans[i] for i in trace.by_name["client.compute_matrix"]]
    kernels = [trace.spans[i] for i in trace.by_name["core.direct_kernel"]]
    decode: dict[Any, float] = defaultdict(float)
    for name in ("remote.decode_frame", "remote.complete"):
        for index in trace.by_name[name]:
            span = trace.spans[index]
            if span[sp.PARENT] is None and str(span[sp.KEY]).startswith("q"):
                decode[span[sp.KEY]] += span[sp.END] - span[sp.START]
    unattributed, observed, attributed = [], 0.0, 0.0
    for sent, done, keys in batches:
        intervals = [iv for key in keys for iv in trace.roots(key, QUERY_ROOTS)]
        covered = sp.covered(intervals, sent, done)
        unattributed.append((done - sent - covered) * 1e3)
        observed += done - sent
        attributed += covered
    return {
        "core.direct_kernel_p50_ms": percentile(trace.self_ms("core.direct_kernel"), 50),
        "core.direct_kernel_p99_ms": percentile(trace.self_ms("core.direct_kernel"), 99),
        "core.windows_combined_per_query": (
            mean(span[sp.EXTRA] for span in kernels) if kernels else 0.0
        ),
        "engine.fragment_p50_ms": percentile(trace.self_ms("engine.fragment"), 50),
        "engine.prefix_matrix_p50_ms": percentile(trace.self_ms("engine.prefix_matrix"), 50),
        "client.compute_matrix_p50_ms": percentile(trace.self_ms("client.compute_matrix"), 50),
        "client.finish_p50_ms": percentile(trace.self_ms("client.finish"), 50),
        "client.prefix_path_share": _ratio(
            sum(span[sp.EXTRA] == "prefix" for span in computes), len(computes)
        ),
        "service.submit_self_p50_ms": percentile(trace.self_ms("service.submit"), 50),
        "service.submit_self_p99_ms": percentile(trace.self_ms("service.submit"), 99),
        "frames.encode_response_p50_ms": percentile(
            trace.self_ms("frames.encode_response"), 50
        ),
        "remote.decode_p50_ms": percentile([s * 1e3 for s in decode.values()], 50),
        "wire.unattributed_p50_ms": percentile(unattributed, 50),
        "trace.attributed_share": _ratio(attributed, observed),
    }


def _per_event(trace: Breakdown, names: Sequence[str]) -> list[float]:
    """Summed self ms of ``names`` per (update, subscriber theta)."""
    totals: dict[tuple[Any, Any], float] = defaultdict(float)
    for name in names:
        for index in trace.by_name[name]:
            span = trace.spans[index]
            if str(span[sp.KEY]).startswith("u"):
                totals[(span[sp.KEY], span[sp.EXTRA])] += trace.own[index] * 1e3
    return list(totals.values())


def update_metrics(
    trace: Breakdown, due: Sequence[float], released: Sequence[float]
) -> dict[str, float]:
    """Metrics of the live-feed segment, from its spans and its schedule."""
    encode = _per_event(trace, ("protocol.stream_event", "server.send_event"))
    late_ms = [s * 1e3 for s in lateness(due, released)]
    return {
        "core.realtime_ingest_p50_ms": percentile(trace.self_ms("core.realtime_ingest"), 50),
        "streams.ingestor_push_p50_ms": percentile(
            trace.self_ms("streams.ingestor_push"), 50
        ),
        "streams.hub_publish_p50_ms": percentile(trace.self_ms("streams.hub_publish"), 50),
        "protocol.stream_event_encode_p50_ms": percentile(encode, 50),
        "loadgen.late_p99_ms": percentile(late_ms, 99),
    }


def service_metrics(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Counter deltas over the query segment, from ``/v1/stats``.

    ``service.max_queue_depth`` is the service's high-water mark since the
    server started (set-up and warm-up included); it has no delta.
    """
    computed = _delta(after, before, "service", "matrices_computed")
    coalesced = _delta(after, before, "service", "coalesced")
    hits = _delta(after, before, "service", "result_cache_hits")
    misses = _delta(after, before, "service", "result_cache_misses")
    completed = _delta(after, before, "service", "completed")
    wire = ("server", "wire", "v2")
    return {
        "service.coalesce_rate": _ratio(coalesced, computed + coalesced),
        "service.result_cache_hit_rate": _ratio(hits, hits + misses),
        "service.matrices_per_query": _ratio(computed, completed),
        "service.max_queue_depth": float(
            after.get("service", {}).get("max_queue_depth", 0)
        ),
        "server.bytes_per_response": _ratio(
            _delta(after, before, *wire, "bytes_sent"),
            _delta(after, before, *wire, "requests"),
        ),
    }
