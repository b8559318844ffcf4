"""Spans recorded around calls into the program's layers, and their analysis.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call. Spans live in memory and are written out once, when the
traced process ends. Each is appended when its call returns, as an immutable
tuple ``(id, name, key, start, end, parent_id, extra)`` of atoms, which the
garbage collector stops tracking, so a long traced run does not slow the
collector down.

Parents come from two places:

* synchronous calls nested on one thread (a per-thread stack), e.g. the
  Lemma-1 kernel inside ``TsubasaClient.compute_matrix``;
* a shared *key* (the request's wire id, or ``"u<timestamp>"`` for a
  real-time update) plus a declared parent name, for calls that cross a
  thread or an ``await`` (``compute_matrix`` runs on the service's executor
  thread while ``TsubasaService.submit`` awaits it on the event loop).

A span's *self time* is its duration minus the part of its interval its
child spans cover. All clocks are ``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across processes.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from time import perf_counter
from typing import Any

#: Field positions of an analysed span (see :func:`merge`).
NAME, KEY, START, END, PARENT, EXTRA = range(6)

Span = list  # [name, key, start, end, parent index or None, extra]


class Tracer:
    """Record spans around wrapped callables; undo the wrapping on demand."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key: Callable[..., Any] | None = None,
        key_from_result: Callable[[Any], Any] | None = None,
        extra: Callable[..., Any] | None = None,
        when: Callable[..., bool] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        Args:
            key: ``key(*args, **kwargs)`` -> the span's key; ``None`` (or a
                ``None`` result) inherits the key through the parent chain.
            key_from_result: Derives the key from the return value instead.
            extra: ``extra(result, *args, **kwargs)`` -> a value stored with
                the span (a count, the served path, the op name).
            when: ``when(*args, **kwargs)`` -> False skips recording.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else getattr(owner, attr)
        self._undo.append((owner, attr, static))
        records, ids = self.records, self._ids

        if inspect.iscoroutinefunction(original):
            # Async spans never enter the per-thread stack: other tasks run
            # on the same thread while this one awaits.
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if when is not None and not when(*args, **kwargs):
                    return await original(*args, **kwargs)
                span_key = key(*args, **kwargs) if key else None
                start = perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    records.append(
                        (next(ids), name, span_key, start, perf_counter(), None, None)
                    )

            replacement: Any = async_wrapper
        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if when is not None and not when(*args, **kwargs):
                    return original(*args, **kwargs)
                stack = self._stack()
                span_id = next(ids)
                parent = stack[-1] if stack else None
                span_key = key(*args, **kwargs) if key else None
                stack.append(span_id)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                if key_from_result is not None:
                    span_key = key_from_result(result)
                value = extra(result, *args, **kwargs) if extra else None
                records.append((span_id, name, span_key, start, end, parent, value))
                return result

            replacement = wrapper
        setattr(
            owner, attr, classmethod(replacement) if is_classmethod else replacement
        )

    def unwrap(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._undo:
            owner, attr, static = self._undo.pop()
            setattr(owner, attr, static)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.records, handle)


def load(path: str) -> list[list]:
    with open(path) as handle:
        return json.load(handle)


def merge(*groups: Iterable[tuple | list]) -> list[Span]:
    """Analysable spans from the records of one or more tracers.

    Span ids are only unique per tracer, so parents are resolved group by
    group and become list indices.
    """
    merged: list[Span] = []
    for group in groups:
        records = list(group)
        base = len(merged)
        position = {record[0]: base + i for i, record in enumerate(records)}
        for _id, name, key, start, end, parent, extra in records:
            merged.append(
                [name, key, start, end, position.get(parent) if parent is not None else None, extra]
            )
    return merged


def link(spans: list[Span], parent_names: dict[str, str]) -> None:
    """Complete the span tree in place.

    Spans without a stack parent whose name has a declared parent name get
    the enclosing span of that name and the same key as parent; then keys
    missing on nested spans are inherited down the parent chain.
    """
    by_name_key: dict[tuple[str, Any], list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[KEY] is not None:
            by_name_key[(span[NAME], span[KEY])].append(index)
    for span in spans:
        parent_name = parent_names.get(span[NAME])
        if span[PARENT] is not None or parent_name is None or span[KEY] is None:
            continue
        for candidate in by_name_key.get((parent_name, span[KEY]), ()):
            outer = spans[candidate]
            if outer[START] <= span[START] and span[END] <= outer[END]:
                span[PARENT] = candidate
                break
    for span in spans:
        chain = []
        current = span
        while current[KEY] is None and current[PARENT] is not None:
            chain.append(current)
            current = spans[current[PARENT]]
        for pending in chain:
            pending[KEY] = current[KEY]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(index, ()), span[START], span[END])
        for index, span in enumerate(spans)
    ]
