"""Tests of the benchmark's own helpers.

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from time import perf_counter, sleep
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import breakdown  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import summary  # noqa: E402
from oracle import DIRECT_ATOL, check_edges, check_value  # noqa: E402
from workloads import (  # noqa: E402
    FEED_WINDOWS,
    N_WINDOWS,
    SAMPLES_PER_LANE,
    WINDOW,
    Feed,
    Inputs,
    Lane,
    closed_loop,
)

from repro.api.spec import QuerySpec, WindowSpec  # noqa: E402
from repro.core.matrix import CorrelationMatrix  # noqa: E402


# -- the percentile-with-sample-count rule -----------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert summary.supports(1000, 99)
    assert not summary.supports(999, 99)
    assert summary.supports(20, 50)
    assert not summary.supports(19, 50)


def test_describe_states_count_and_flags_unsupported_tail():
    assert summary.describe([1.0] * 1000, 99) == "n=1000, 10 beyond p99"
    text = summary.describe([1.0] * 500, 99)
    assert text.startswith("n=500, 5 beyond p99") and "UNSUPPORTED" in text
    assert summary.describe([1.0, 2.0], 50) == "n=2"


def test_sliced_percentile_rejects_a_burst_and_needs_enough_samples():
    # 5000 samples over 5 s, a burst of slow operations in the second slice.
    stamped = [(i / 1000.0, 10.0 if 1000 <= i < 1400 else 1.0 + i % 7) for i in range(5000)]
    value, slices = summary.sliced_percentile([(stamped, 0.0, 5.0)], 99, 5)
    assert slices == 5 and value == pytest.approx(7.0)
    assert summary.percentile([v for _t, v in stamped], 99) == 10.0
    # 2000 samples support only two slices of p99: the whole run is used.
    value, slices = summary.sliced_percentile([(stamped[:2000], 0.0, 2.0)], 99, 5)
    assert slices == 1 and value == 10.0
    assert summary.slice_median([(stamped, 0.0, 5.0)], 5, len) == 1000


def test_slices_of_every_phase_outvote_one_slow_server():
    fast = [(i / 1000.0, 1.0 + i % 7) for i in range(1000)]
    slow = [(10.0 + t, 3.0 * v) for t, v in fast]
    phases = [(fast, 0.0, 1.0), (slow, 10.0, 1.0), (fast, 0.0, 1.0)]
    # 1000 samples per phase support one p99 slice each: three in all.
    assert summary.sliced_percentile(phases, 99, 5) == (pytest.approx(7.0), 3)
    assert summary.slice_median(phases, 2, lambda v: summary.percentile(v, 50)) == 4.0


def test_percentile_of_nothing_is_zero():
    assert summary.percentile([], 50) == 0.0
    assert summary.percentile([1.0, 2.0, 3.0], 50) == 2.0


# -- self-time subtraction ------------------------------------------------------


def _span(name, key, start, end, parent=None, extra=None):
    return [name, key, start, end, parent, extra]


def test_covered_merges_overlaps_and_clips():
    assert sp.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert sp.covered([(0, 2), (1, 3), (5, 6)], 2.5, 5.5) == pytest.approx(1.0)
    assert sp.covered([], 0, 1) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("outer", "q1", 0.0, 10.0),
        _span("a", None, 1.0, 4.0, parent=0),
        _span("b", None, 3.0, 6.0, parent=0),  # overlaps a: counted once
        _span("leaf", None, 1.5, 2.0, parent=1),
    ]
    own = sp.self_times(spans)
    assert own == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_link_reaches_parents_across_threads_by_key_and_inherits_keys():
    spans = [
        _span("service.submit", "q7", 0.0, 10.0),
        _span("service.submit", "q8", 0.0, 10.0),
        _span("client.compute_matrix", "q7", 2.0, 6.0),  # executor thread
        _span("core.direct_kernel", None, 3.0, 5.0, parent=2),
        _span("client.finish", "q7", 7.0, 8.0),
        _span("server.answer", "q7", -1.0, 11.0),
    ]
    sp.link(spans, {
        "client.compute_matrix": "service.submit",
        "client.finish": "service.submit",
        "service.submit": "server.answer",
    })
    assert spans[2][sp.PARENT] == 0
    assert spans[4][sp.PARENT] == 0
    assert spans[0][sp.PARENT] == 5
    assert spans[1][sp.PARENT] is None  # no answer span with key q8
    assert spans[3][sp.KEY] == "q7"
    # submit self time = queue/coalesce wait: 10 - compute 4 - finish 1.
    assert sp.self_times(spans)[0] == pytest.approx(5.0)


def test_breakdown_ignores_spans_before_the_phase():
    trace = breakdown.Breakdown(
        [_span("engine.fragment", "q1", 0.0, 1.0), _span("engine.fragment", "q2", 5.0, 5.5)],
        since=2.0,
    )
    assert trace.self_ms("engine.fragment") == pytest.approx([500.0])


def test_tracer_records_nesting_and_restores_originals():
    class Box:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

        @classmethod
        def make(cls, x):
            return x

        async def wait(self, x):
            await asyncio.sleep(0)
            return x

    originals = (Box.__dict__["outer"], Box.__dict__["make"], Box.__dict__["wait"])
    tracer = sp.Tracer()
    tracer.wrap(Box, "outer", "t.outer", key=lambda _self, x: f"q{x}")
    tracer.wrap(Box, "inner", "t.inner", extra=lambda result, *_a: result)
    tracer.wrap(Box, "make", "t.make", key_from_result=lambda r: f"k{r}")
    tracer.wrap(Box, "wait", "t.wait", key=lambda _self, x: x)
    box = Box()
    assert box.outer(3) == 7
    assert Box.make(4) == 4
    assert asyncio.run(box.wait(5)) == 5
    worker = threading.Thread(target=box.inner, args=(1,))
    worker.start()
    worker.join(5)
    assert not worker.is_alive()
    tracer.unwrap()
    assert (Box.__dict__["outer"], Box.__dict__["make"], Box.__dict__["wait"]) == originals

    spans = sp.merge(tracer.records)
    sp.link(spans, {})
    by_name = {}
    for span in spans:
        by_name.setdefault(span[sp.NAME], []).append(span)
    inner_nested, inner_thread = by_name["t.inner"]
    assert spans[inner_nested[sp.PARENT]][sp.NAME] == "t.outer"
    assert inner_nested[sp.KEY] == "q3" and inner_nested[sp.EXTRA] == 6
    assert inner_thread[sp.PARENT] is None  # another thread's stack
    assert by_name["t.make"][0][sp.KEY] == "k4"
    assert by_name["t.wait"][0][sp.KEY] == 5


def test_merge_keeps_parents_within_each_group():
    first = [(0, "a", None, 0.0, 2.0, None, None), (1, "b", None, 0.5, 1.0, 0, None)]
    second = [(0, "c", None, 0.0, 1.0, None, None)]
    merged = sp.merge(first, second)
    assert [s[sp.PARENT] for s in merged] == [None, 0, None]


# -- due-time accounting for the open loop --------------------------------------


def test_release_index_maps_timestamps_to_releases():
    assert summary.release_index(100 + 32, 100, 32) == 0
    assert summary.release_index(100 + 3 * 32, 100, 32) == 2
    with pytest.raises(ValueError):
        summary.release_index(100 + 33, 100, 32)


def test_a_stall_counts_against_every_update_behind_it():
    period, start, batch = 0.01, 1000, 10
    due = [i * period for i in range(5)]
    # Release 1 stalls 35 ms; 2 and 3 go out as soon as it is done.
    released = [0.0, 0.045, 0.046, 0.047, 0.04]
    arrivals = [(start + (i + 1) * batch, r + 0.001) for i, r in enumerate(released)]
    stamped = summary.update_latencies(due, arrivals, start, batch)
    assert [stamp for stamp, _latency in stamped] == due
    assert [latency for _stamp, latency in stamped] == pytest.approx(
        [0.001, 0.036, 0.027, 0.018, 0.001]
    )
    assert summary.lateness(due, released) == pytest.approx(
        [0.0, 0.035, 0.026, 0.017, 0.0]
    )


def test_feed_accounting_counts_missing_events_as_failures():
    # 10 queries answered before the feed segment; 4 windows scheduled, of
    # which the source released 3.
    outcome = run.Outcome(attempted=10, feeds=[Feed(theta=0.75), Feed(theta=0.76)])
    outcome.scheduled = 4
    start = N_WINDOWS * WINDOW
    outcome.feeds[0].arrivals = [(start + WINDOW * (i + 1), 1.0 + i) for i in range(3)]
    outcome.feeds[1].arrivals = [(start + WINDOW, 1.5)]  # dropped after one
    run.finish_feed(outcome, {"due": [0.5, 1.5, 2.5], "released": [0.5, 1.5, 2.5]})
    assert outcome.attempted == 10 + 2 * 4
    assert outcome.failed == 1 + 3
    assert sorted(latency for _due, latency in outcome.updates) == pytest.approx(
        [0.5, 0.5, 0.5, 1.0]
    )
    assert outcome.latencies == []  # updates never mix into query latencies


# -- correctness sampling ---------------------------------------------------------


def test_correctness_samples_spread_over_the_whole_segment():
    lane = Lane(index=0, rng=np.random.default_rng(0), first_id=0)
    seconds = 0.4

    def send(specs):
        # Each "result" is the time its batch was sent.
        sent = perf_counter()
        sleep(0.001)
        return [sent] * len(specs)

    spec = QuerySpec(op="matrix", window=WindowSpec(start=0, stop=10))
    client = SimpleNamespace(_next_id=0)
    start = perf_counter()
    closed_loop(client, lambda: [spec, spec], send, start + seconds, lane)
    assert lane.attempted == 2 * len(lane.batches) > 4 * SAMPLES_PER_LANE
    sampled = sorted({sent for _spec, sent in lane.samples})
    assert len(sampled) == SAMPLES_PER_LANE
    # One sample per sixteenth of the segment, up to its end.
    step = seconds / SAMPLES_PER_LANE
    assert sampled[0] - start < step
    assert sampled[-1] - start >= (SAMPLES_PER_LANE - 1) * step


# -- the error_rate base --------------------------------------------------------


def test_error_rate_is_failed_over_attempted():
    assert summary.error_rate(200, 3) == pytest.approx(0.015)
    assert summary.error_rate(5, 0) == 0.0
    with pytest.raises(ValueError):
        summary.error_rate(0, 0)
    with pytest.raises(ValueError):
        summary.error_rate(5, 6)


def test_wrong_answers_count_as_failures_but_never_exceed_attempts():
    values = np.random.default_rng(1).normal(size=(3, 200))
    inputs = Inputs(seed=1, names=["a", "b", "c"], values=values)
    spec = QuerySpec(op="matrix", window=WindowSpec(start=10, stop=150))
    right = np.corrcoef(values[:, 10:150])

    class Result:
        def __init__(self, matrix):
            self.value = CorrelationMatrix(names=["a", "b", "c"], values=matrix)
            self.provenance = type("Provenance", (), {"path": "direct"})()

    outcome = run.Outcome(attempted=3, failed=2)
    outcome.samples = [(spec, Result(right)), (spec, Result(right * 0.5))]
    run.verify(outcome, inputs)
    assert (outcome.checked, outcome.mismatches) == (2, 1)
    assert outcome.failed == 3
    assert summary.error_rate(outcome.attempted, outcome.failed) == 1.0


# -- correctness oracle and inputs ----------------------------------------------


def test_oracle_tolerates_only_near_threshold_decisions():
    ref = np.array([[1.0, 0.5 + 1e-12, 0.9], [0.5 + 1e-12, 1.0, 0.1], [0.9, 0.1, 1.0]])
    index = {"a": 0, "b": 1, "c": 2}
    assert check_edges(ref, index, [("a", "c", 0.9)], 0.5, DIRECT_ATOL) == []
    assert check_edges(ref, index, [], 0.5, DIRECT_ATOL) != []
    assert check_edges(ref, index, [("a", "c", 0.9 + 1e-6)], 0.5, DIRECT_ATOL) != []
    spec = QuerySpec(op="matrix", window=WindowSpec(start=0, stop=10))
    good = CorrelationMatrix(names=["a", "b", "c"], values=ref)
    bad = CorrelationMatrix(names=["a", "b", "c"], values=ref + 1e-6)
    assert check_value(spec, good, ref, ["a", "b", "c"], DIRECT_ATOL) == []
    assert check_value(spec, bad, ref, ["a", "b", "c"], DIRECT_ATOL) != []


def test_trailing_window_follows_the_released_stream():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, (N_WINDOWS + 3) * WINDOW))
    inputs = Inputs(seed=0, names=["a", "b"], values=values)
    stream = np.concatenate(
        [inputs.base] + [inputs.streamed(i) for i in range(7)], axis=1
    )
    assert inputs.streamed(4).tolist() == inputs.streamed(1).tolist()  # replays
    window = inputs.trailing(6)
    assert window.shape == (2, FEED_WINDOWS * WINDOW)
    assert np.array_equal(window, stream[:, -FEED_WINDOWS * WINDOW:])
