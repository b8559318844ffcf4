"""Workload inputs (all derived from the seed) and the load-generator lanes.

A *lane* is one load-generator thread with its own connection. Query lanes
run a closed loop until a deadline; feed lanes subscribe to the live stream
and decode pushed events. Everything a lane observes is kept in memory and
read after the measured phase.

A ``dashboard`` phase is a query segment followed by a live-feed segment
against the same server, so no more than :data:`LANES` connections are open
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro.api.remote import TsubasaRemoteClient
from repro.api.spec import QuerySpec, WindowSpec
from repro.data.synthetic import generate_station_dataset
from repro.exceptions import TsubasaError

N_SERIES = 64
WINDOW = 32  # basic window size B
N_WINDOWS = 2000  # sketched basic windows
TAIL_WINDOWS = 256  # streamed windows before the feed replays its tail
LANES = 2  # connections = threads = nproc of the reference machine
TIMEOUT = 30.0  # socket timeout of every lane, seconds

# Thresholds are quantiles of the seed's own pair correlations, so every
# seed yields networks (and payloads) of the same size.
QUERY_EDGE_SHARE = 0.25  # of all pairs, over the whole sketched range
TOP_K = 10
HOT_SET = 256  # dashboard windows; the service's result cache holds 64
ZIPF_S = 1.1  # popularity skew of the hot set
HOT_LENGTHS = (64, 128, 256, 512, 1024)  # basic windows, by popularity rank
SCAN_WINDOWS = (200, 1900)  # basic windows an arbitrary_scan query spans
FEED_SHARE = 0.2  # of a dashboard phase, after its query segment
FEED_PERIOD = 0.02  # seconds between released windows
FEED_WINDOWS = 500  # standing query of the live feed, in basic windows
FEED_EDGE_SHARES = (0.02, 0.01)  # base (--stream-theta) and higher subscriber

SAMPLES_PER_LANE = 16  # results kept per lane, evenly over its segment
ID_STRIDE = 10_000_000  # wire ids of lane i start at (i + 1) * ID_STRIDE


@dataclass
class Inputs:
    """Everything generated from one seed."""

    seed: int
    names: list[str]
    values: np.ndarray  # (n, points): sketched base plus any streamed tail
    theta: float = 0.5  # query threshold
    feed_thetas: tuple[float, ...] = ()
    hot_windows: list[tuple[int, int]] = field(default_factory=list)
    hot_cdf: np.ndarray | None = None

    @property
    def base(self) -> np.ndarray:
        return self.values[:, : N_WINDOWS * WINDOW]

    @property
    def tail(self) -> np.ndarray:
        return self.values[:, N_WINDOWS * WINDOW :]

    def lane_rng(self, lane: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1 + lane])

    def streamed(self, release: int) -> np.ndarray:
        """The raw block of release ``release`` (the tail replays cyclically)."""
        offset = (release % (self.tail.shape[1] // WINDOW)) * WINDOW
        return self.tail[:, offset : offset + WINDOW]

    def trailing(self, release: int) -> np.ndarray:
        """The standing query window right after release ``release``."""
        first = release + 1 - FEED_WINDOWS
        blocks = []
        if first < 0:
            blocks.append(self.base[:, first * WINDOW :])
        blocks += [self.streamed(i) for i in range(max(first, 0), release + 1)]
        return np.concatenate(blocks, axis=1)


def _edge_threshold(values: np.ndarray, share: float) -> float:
    """The theta above which ``share`` of the distinct pairs correlate."""
    corr = np.corrcoef(values)
    upper = corr[np.triu_indices(corr.shape[0], k=1)]
    return round(float(np.quantile(upper, 1.0 - share)), 4)


def make_inputs(workload: str, seed: int) -> Inputs:
    tail = TAIL_WINDOWS if workload == "dashboard" else 0
    dataset = generate_station_dataset(
        n_stations=N_SERIES, n_points=(N_WINDOWS + tail) * WINDOW, seed=seed
    )
    inputs = Inputs(seed=seed, names=list(dataset.names), values=dataset.values)
    inputs.theta = _edge_threshold(inputs.base, QUERY_EDGE_SHARE)
    standing = inputs.base[:, -FEED_WINDOWS * WINDOW :]
    inputs.feed_thetas = tuple(
        _edge_threshold(standing, share) for share in FEED_EDGE_SHARES
    )
    # Lengths follow the popularity rank, so the traffic's mix of window
    # lengths (and with it network sizes) is the same for every seed; only
    # the positions are drawn.
    rng = np.random.default_rng([seed, 0])
    for rank in range(HOT_SET):
        length = HOT_LENGTHS[rank % len(HOT_LENGTHS)]
        inputs.hot_windows.append((int(rng.integers(0, N_WINDOWS - length)), length))
    weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_S
    inputs.hot_cdf = np.cumsum(weights / weights.sum())
    return inputs


def refresh_specs(window: tuple[int, int], theta: float) -> list[QuerySpec]:
    """One dashboard refresh: four ops over one aligned window."""
    spec_window = WindowSpec(first_window=window[0], n_windows=window[1])
    return [
        QuerySpec(op="network", window=spec_window, theta=theta),
        QuerySpec(op="top_k", window=spec_window, k=TOP_K),
        QuerySpec(op="degree", window=spec_window, theta=theta),
        QuerySpec(op="matrix", window=spec_window),
    ]


def scan_spec(rng: np.random.Generator, lane: int, inputs: Inputs, seen: set) -> QuerySpec:
    """A small-result query over a fresh non-aligned window.

    Lanes draw start offsets of different parity, so no window repeats
    across lanes either.
    """
    points = N_WINDOWS * WINDOW
    while True:
        length = int(rng.integers(SCAN_WINDOWS[0], SCAN_WINDOWS[1] + 1)) * WINDOW
        length += int(rng.integers(1, WINDOW))
        start = 2 * int(rng.integers(0, (points - length) // 2)) + lane
        stop = start + length
        if start % WINDOW and stop % WINDOW and (start, stop) not in seen:
            seen.add((start, stop))
            break
    window = WindowSpec(start=start, stop=stop)
    op = ("degree", "top_k", "neighbors")[int(rng.integers(0, 3))]
    if op == "top_k":
        return QuerySpec(op=op, window=window, k=TOP_K)
    if op == "neighbors":
        node = inputs.names[int(rng.integers(0, len(inputs.names)))]
        return QuerySpec(op=op, window=window, node=node, theta=inputs.theta)
    return QuerySpec(op=op, window=window, theta=inputs.theta)


def window_bounds(spec: QuerySpec) -> tuple[int, int]:
    """Raw-point ``[start, stop)`` of a spec's window (full basic windows)."""
    window = spec.window
    if window.first_window is not None:
        start = window.first_window * WINDOW
        return start, start + window.n_windows * WINDOW
    return window.start, window.stop


@dataclass
class Lane:
    """One load-generator thread's query sequence, and what it observed.

    A lane runs twice per phase: an unrecorded warm-up, then the measured
    segment (:meth:`measured`), which continues the same query sequence, so
    arbitrary_scan never repeats a window across the two.
    """

    index: int
    rng: np.random.Generator
    first_id: int  # the segment's wire ids follow this one
    seen: set[tuple[int, int]] = field(default_factory=set)
    #: ``(sent, done, wire keys)`` per batch. The client decodes every
    #: answer of a batch once the last one has arrived, so ``done - sent``
    #: is each of its requests' send-to-decoded latency.
    batches: list[tuple[float, float, list[str]]] = field(default_factory=list)
    samples: list[tuple[QuerySpec, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @classmethod
    def warm_up(cls, inputs: Inputs, index: int) -> Lane:
        # Disjoint wire ids per lane and segment, so the server's spans of
        # one request can be matched to the batch that sent it.
        return cls(index, inputs.lane_rng(index), (index + 1) * ID_STRIDE)

    def measured(self) -> Lane:
        return Lane(self.index, self.rng, self.first_id + ID_STRIDE // 2, self.seen)

    def fail(self, count: int, exc: BaseException) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(repr(exc))


def _new_client(address: str, transport: str, out: Lane) -> TsubasaRemoteClient:
    client = TsubasaRemoteClient(
        address, transport=transport, protocol=2, timeout=TIMEOUT
    )
    client._next_id = out.first_id
    return client


def closed_loop(
    client: TsubasaRemoteClient, next_specs: Any, send: Any, deadline: float, out: Lane
) -> None:
    """Send ``next_specs()`` and wait for the answers, until ``deadline``.

    One batch's answers are kept for the correctness check every
    ``1 / SAMPLES_PER_LANE`` of the segment, so the check covers all of it.
    """
    start = perf_counter()
    sample_every = (deadline - start) / SAMPLES_PER_LANE
    next_sample = start
    while perf_counter() < deadline:
        specs = next_specs()
        first_id = client._next_id + 1
        sent = perf_counter()
        try:
            results = send(specs)
        except (TsubasaError, OSError) as exc:
            out.fail(len(specs), exc)
            continue
        done = perf_counter()
        out.attempted += len(specs)
        out.batches.append(
            (sent, done, [f"q{first_id + i}" for i in range(len(specs))])
        )
        if sent >= next_sample and len(out.samples) < SAMPLES_PER_LANE * len(specs):
            out.samples += zip(specs, results)
            next_sample += sample_every


def dashboard_lane(address: str, inputs: Inputs, deadline: float, out: Lane) -> None:
    """Closed loop of pipelined refresh batches over one WS v2 connection."""

    def refresh() -> list[QuerySpec]:
        rank = min(int(np.searchsorted(inputs.hot_cdf, out.rng.random())), HOT_SET - 1)
        return refresh_specs(inputs.hot_windows[rank], inputs.theta)

    client = _new_client(address, "ws", out)
    try:
        closed_loop(client, refresh, client.execute_many, deadline, out)
    finally:
        client.close()


def scan_lane(address: str, inputs: Inputs, deadline: float, out: Lane) -> None:
    """Closed loop of one-at-a-time direct-path queries over HTTP v2."""
    client = _new_client(address, "http", out)
    try:
        closed_loop(
            client,
            lambda: [scan_spec(out.rng, out.index, inputs, out.seen)],
            lambda specs: [client.execute(specs[0])],
            deadline, out,
        )
    finally:
        client.close()


@dataclass
class Feed:
    """What one subscriber thread observed."""

    theta: float
    arrivals: list[tuple[int, float]] = field(default_factory=list)
    samples: list[dict[str, Any]] = field(default_factory=list)
    gaps: int = 0
    errors: list[str] = field(default_factory=list)


def feed_lane(address: str, window_points: int, events: int, out: Feed) -> None:
    """Subscribe at ``out.theta`` and decode ``events`` pushed updates.

    Every ``events / SAMPLES_PER_LANE``-th event is kept for the check.
    """
    stride = max(events // SAMPLES_PER_LANE, 1)
    client = TsubasaRemoteClient(address, protocol=2, timeout=TIMEOUT)
    try:
        stream = client.subscribe(
            out.theta, window_points=window_points, max_events=events
        )
        for event in stream:
            decoded_at = perf_counter()
            if event.event.get("gap"):
                out.gaps += 1
                continue
            out.arrivals.append((int(event.event["timestamp"]), decoded_at))
            if (len(out.arrivals) - 1) % stride == 0 and len(out.samples) < SAMPLES_PER_LANE:
                out.samples.append(event.event)
    except (TsubasaError, OSError) as exc:
        # A dropped subscription shows up as the events it never delivered.
        out.errors.append(repr(exc))
    finally:
        client.close()
