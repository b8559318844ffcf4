"""Small, tested helpers the report is built from.

* the percentile-with-sample-count rule,
* the ``error_rate`` base (failed operations over attempted ones),
* due-time accounting for the open-loop real-time feed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: A percentile is only supported by a sample when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


def beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return beyond(n, q) >= MIN_BEYOND - 1e-9


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def describe(samples: Sequence[float], q: float) -> str:
    """``"n=…"`` plus the samples beyond ``q``, flagged when unsupported."""
    n = len(samples)
    text = f"n={n}"
    if q > 50:
        text += f", {beyond(n, q):.0f} beyond p{q:g}"
        if not supports(n, q):
            text += f" (UNSUPPORTED: fewer than {MIN_BEYOND})"
    return text


def segments(
    stamped: Sequence[tuple[float, float]], start: float, length: float, count: int
) -> list[list[float]]:
    """Split ``(time, value)`` samples into ``count`` equal time slices.

    Samples before ``start`` or after ``start + length`` are dropped.
    """
    slices: list[list[float]] = [[] for _ in range(count)]
    for stamp, value in stamped:
        index = int((stamp - start) / length * count)
        if 0 <= index < count:
            slices[index].append(value)
    return slices


#: One measured phase: ``(stamped, start, length)``, its ``(time, value)``
#: samples and its time axis.
Phase = tuple[Sequence[tuple[float, float]], float, float]


def slice_median(phases: Sequence[Phase], count: int, statistic) -> float:
    """Median of ``statistic(slice_values)`` over ``count`` time slices of
    every phase.

    A burst of interference from outside the benchmark that hits a few
    slices, or one server instance that runs slower throughout, does not
    move the result.
    """
    return float(np.median([
        statistic(values)
        for stamped, start, length in phases
        for values in segments(stamped, start, length, count)
    ]))


def sliced_percentile(
    phases: Sequence[Phase], q: float, max_slices: int
) -> tuple[float, int]:
    """The ``q``-th percentile as a median over time slices, and the slices used.

    Every phase is cut into as many slices (up to ``max_slices``) as its
    sample supports with :data:`MIN_BEYOND` samples beyond ``q`` in each;
    with fewer than three slices in all a median would not reject a burst,
    so the percentile of all samples is returned (slices used: 1).
    """
    fewest = min(len(stamped) for stamped, _start, _length in phases)
    count = min(max_slices, int(beyond(fewest, q) // MIN_BEYOND))
    if count * len(phases) < 3:
        values = [value for stamped, _s, _l in phases for _stamp, value in stamped]
        return percentile(values, q), 1
    return slice_median(phases, count, lambda v: percentile(v, q)), count * len(phases)


def rate(stamps: Sequence[float]) -> float:
    """Completions per second between the first and the last stamp."""
    if len(stamps) < 2:
        return 0.0
    span = max(stamps) - min(stamps)
    return (len(stamps) - 1) / span if span > 0 else 0.0


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones.

    Every failure kind counts against the same base: error envelopes,
    timeouts, wrong answers found by the sampled checks, missed or gap
    events, and dropped subscriptions.
    """
    if attempted <= 0:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def release_index(timestamp: int, start: int, batch: int) -> int:
    """Which release produced the update stamped ``timestamp``.

    Release ``i`` folds in points ``[start + i*batch, start + (i+1)*batch)``,
    so its snapshot's timestamp (offset of the newest point folded in) is
    ``start + (i+1)*batch``.
    """
    offset = timestamp - start
    if offset <= 0 or offset % batch:
        raise ValueError(
            f"timestamp {timestamp} is not a release boundary after {start}"
        )
    return offset // batch - 1


def update_latencies(
    due: Sequence[float],
    arrivals: Sequence[tuple[int, float]],
    start: int,
    batch: int,
) -> list[tuple[float, float]]:
    """``(due_at, latency)`` of each decoded update, timed from its due time.

    Timing from the schedule rather than from the actual release means a
    stall in the generator or the server counts against every update that
    waited behind it, not only the first.

    Args:
        due: Due time of each release, by release index.
        arrivals: ``(timestamp, decoded_at)`` per decoded update event.
        start: Offset of the first streamed point.
        batch: Points per release (one basic window).
    """
    stamped = []
    for timestamp, decoded_at in arrivals:
        due_at = due[release_index(timestamp, start, batch)]
        stamped.append((due_at, decoded_at - due_at))
    return stamped


def lateness(due: Sequence[float], released: Sequence[float]) -> list[float]:
    """How late the open-loop source released each window."""
    return [max(r - d, 0.0) for d, r in zip(due, released)]
