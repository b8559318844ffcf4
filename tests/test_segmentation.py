"""Unit tests for repro.core.segmentation (plans, queries, alignment)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segmentation import BasicWindowPlan, QueryWindow
from repro.exceptions import SegmentationError


class TestQueryWindow:
    def test_start_stop(self):
        q = QueryWindow(end=99, length=50)
        assert q.start == 50
        assert q.stop == 100
        assert q.slice() == slice(50, 100)

    def test_full_range(self):
        q = QueryWindow(end=9, length=10)
        assert q.start == 0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(SegmentationError):
            QueryWindow(end=10, length=0)

    def test_rejects_start_before_zero(self):
        with pytest.raises(SegmentationError):
            QueryWindow(end=5, length=10)


class TestBasicWindowPlan:
    def test_even_division(self):
        plan = BasicWindowPlan(length=100, window_size=25)
        assert plan.n_windows == 4
        np.testing.assert_array_equal(plan.boundaries, [0, 25, 50, 75, 100])
        np.testing.assert_array_equal(plan.sizes, [25, 25, 25, 25])

    def test_trailing_remainder(self):
        plan = BasicWindowPlan(length=110, window_size=25)
        assert plan.n_windows == 5
        assert plan.boundaries[-1] == 110
        assert plan.sizes[-1] == 10

    def test_window_range(self):
        plan = BasicWindowPlan(length=100, window_size=30)
        assert plan.window_range(0) == (0, 30)
        assert plan.window_range(3) == (90, 100)
        with pytest.raises(SegmentationError):
            plan.window_range(4)

    def test_window_of(self):
        plan = BasicWindowPlan(length=100, window_size=30)
        assert plan.window_of(0) == 0
        assert plan.window_of(29) == 0
        assert plan.window_of(30) == 1
        assert plan.window_of(99) == 3
        with pytest.raises(SegmentationError):
            plan.window_of(100)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SegmentationError):
            BasicWindowPlan(length=10, window_size=0)
        with pytest.raises(SegmentationError):
            BasicWindowPlan(length=10, window_size=20)


class TestAlign:
    def test_aligned_query(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=199, length=100))
        assert sel.is_aligned
        np.testing.assert_array_equal(sel.full_windows, [2, 3])
        assert sel.n_segments == 2

    def test_full_span(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=199, length=200))
        assert sel.is_aligned
        np.testing.assert_array_equal(sel.full_windows, [0, 1, 2, 3])

    def test_partial_head(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=199, length=120))
        assert sel.head == (80, 100)
        assert sel.tail is None
        np.testing.assert_array_equal(sel.full_windows, [2, 3])

    def test_partial_tail(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=179, length=180))
        assert sel.head is None
        assert sel.tail == (150, 180)
        np.testing.assert_array_equal(sel.full_windows, [0, 1, 2])

    def test_partial_both_ends(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=169, length=140))
        assert sel.head == (30, 50)
        assert sel.tail == (150, 170)
        np.testing.assert_array_equal(sel.full_windows, [1, 2])
        assert sel.n_segments == 4

    def test_query_inside_single_window(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=40, length=20))
        assert sel.full_windows.size == 0
        assert sel.head == (21, 41)
        assert sel.tail is None

    def test_query_straddling_two_windows_no_full(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        sel = plan.align(QueryWindow(end=60, length=30))
        # Spans [31, 61): no basic window fully inside.
        assert sel.full_windows.size == 0
        assert sel.head == (31, 61)

    def test_rejects_out_of_range(self):
        plan = BasicWindowPlan(length=200, window_size=50)
        with pytest.raises(SegmentationError):
            plan.align(QueryWindow(end=250, length=10))

    @given(
        length=st.integers(2, 500),
        window_size=st.integers(1, 60),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_segments_tile_query(self, length, window_size, data):
        """Head + full windows + tail exactly tile the query range."""
        if window_size > length:
            window_size = length
        plan = BasicWindowPlan(length=length, window_size=window_size)
        qlen = data.draw(st.integers(1, length))
        end = data.draw(st.integers(qlen - 1, length - 1))
        sel = plan.align(QueryWindow(end=end, length=qlen))

        ranges = []
        if sel.head is not None:
            ranges.append(sel.head)
        bounds = plan.boundaries
        for j in sel.full_windows:
            ranges.append((int(bounds[j]), int(bounds[j + 1])))
        if sel.tail is not None:
            ranges.append(sel.tail)

        # Non-empty, contiguous, and covering exactly [start, stop).
        assert ranges
        assert ranges[0][0] == end - qlen + 1
        assert ranges[-1][1] == end + 1
        for (_, stop_a), (start_b, _) in zip(ranges, ranges[1:]):
            assert stop_a == start_b
        assert all(stop > start for start, stop in ranges)


def _reference_align(plan, query):
    """``align`` as it was before the arithmetic plan: searchsorted over
    the plan's ``(n_windows + 1,)`` boundary array."""
    bounds = plan.boundaries
    first_full = int(np.searchsorted(bounds, query.start, side="left"))
    last_edge = int(np.searchsorted(bounds, query.stop, side="right")) - 1
    if first_full >= last_edge:
        return np.empty(0, dtype=np.int64), (query.start, query.stop), None
    head = (query.start, int(bounds[first_full]))
    tail = (int(bounds[last_edge]), query.stop)
    return (
        np.arange(first_full, last_edge, dtype=np.int64),
        head if head[1] > head[0] else None,
        tail if tail[1] > tail[0] else None,
    )


@st.composite
def _plans_and_queries(draw):
    """A plan (possibly with a short trailing window) and one query of a
    drawn kind: arbitrary, ending at ``length``, inside one basic window,
    straddling two, or aligned."""
    window_size = draw(st.integers(1, 40))
    full = draw(st.integers(1, 30))
    trailing = draw(st.integers(0, window_size - 1))  # 0 = no short window
    plan = BasicWindowPlan(length=full * window_size + trailing, window_size=window_size)
    length, n_windows = plan.length, plan.n_windows
    kind = draw(st.sampled_from(["any", "to_end", "one", "two", "aligned"]))
    if kind == "any":
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start + 1, length))
    elif kind == "to_end":
        stop = length
        start = draw(st.integers(0, length - 1))
    elif kind == "one":
        lo, hi = plan.window_range(draw(st.integers(0, n_windows - 1)))
        start = draw(st.integers(lo, hi - 1))
        stop = draw(st.integers(start + 1, hi))
    elif kind == "two" and n_windows >= 2:
        j = draw(st.integers(0, n_windows - 2))
        lo, _ = plan.window_range(j)
        mid, hi = plan.window_range(j + 1)
        start = draw(st.integers(lo, mid - 1))
        stop = draw(st.integers(mid + 1, hi)) if hi > mid + 1 else hi
    else:
        first = draw(st.integers(0, n_windows - 1))
        count = draw(st.integers(1, n_windows - first))
        query = plan.aligned_query(first, count)
        start, stop = query.start, query.stop
    return plan, QueryWindow(end=stop - 1, length=stop - start)


class TestAlignMatchesSearchsorted:
    @given(case=_plans_and_queries())
    @settings(max_examples=500, deadline=None)
    def test_property_same_selection(self, case):
        plan, query = case
        selection = plan.align(query)
        full, head, tail = _reference_align(plan, query)
        np.testing.assert_array_equal(selection.full_windows, full)
        assert selection.full_windows.dtype == np.int64
        assert selection.n_segments == full.size + len(selection.spans)
        assert selection.head == head
        assert selection.tail == tail
        assert selection.run == (
            (int(full[0]), int(full[-1]) + 1) if full.size else (0, 0)
        )


class TestAlignedQuery:
    def test_roundtrip(self):
        plan = BasicWindowPlan(length=300, window_size=50)
        query = plan.aligned_query(first_window=2, n_windows=3)
        assert query.start == 100
        assert query.stop == 250
        sel = plan.align(query)
        assert sel.is_aligned
        np.testing.assert_array_equal(sel.full_windows, [2, 3, 4])

    def test_rejects_out_of_range(self):
        plan = BasicWindowPlan(length=300, window_size=50)
        with pytest.raises(SegmentationError):
            plan.aligned_query(first_window=4, n_windows=3)
        with pytest.raises(SegmentationError):
            plan.aligned_query(first_window=0, n_windows=0)
