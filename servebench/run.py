#!/usr/bin/env python3
"""Serving benchmark of the TSUBASA stack: one workload, one run.

Drives a real ``TsubasaServer`` (started by :mod:`launcher` exactly as
``tsubasa serve --http --backend mmap --data ...`` would, one acceptor, CLI
defaults) from this single load-generator process, with at most two
connections, one thread each. See ``servebench/README.md`` for the metrics,
the workloads and why they were chosen.

    python3 servebench/run.py --workload dashboard --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half the
time untraced and half traced and prints the per-layer metrics, including the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("dashboard", "arbitrary_scan")
# An untraced run measures this many phases, each against a freshly set-up
# server; setup_s is the median of their set-ups. A server instance can run
# 25% slower than the next one throughout, so the latency and rate metrics
# are medians over the time slices of every phase.
PHASES = 4
SLICES = 4  # time slices per phase
WARM_UP = 1.0  # seconds of unrecorded query traffic that fill the server's caches
READY_TIMEOUT = 60.0  # seconds for the server to announce its address
STOP_TIMEOUT = 30.0  # seconds for the server to drain after SIGTERM


class Server:
    """One launcher process; its output goes to a log file in the work dir."""

    def __init__(
        self,
        workdir: str,
        tag: str,
        store: str,
        launch_args: list[str],
        trace_out: str | None,
    ) -> None:
        self.report_path = os.path.join(workdir, f"report-{tag}.json")
        self.log_path = os.path.join(workdir, f"server-{tag}.log")
        command = [
            sys.executable, os.path.join(HERE, "launcher.py"),
            "--store", store, "--report", self.report_path, *launch_args,
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        with open(self.log_path, "w") as log:
            self.process: subprocess.Popen | None = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=log,
                stderr=subprocess.STDOUT, cwd=ROOT, text=True,
            )
        self.pid = self.process.pid
        self.address = ""

    def wait_ready(self) -> str:
        give_up = perf_counter() + READY_TIMEOUT
        marker = "serving on http://"
        while perf_counter() < give_up:
            with open(self.log_path) as log:
                for line in log:
                    if marker in line:
                        self.address = line.split(marker, 1)[1].split()[0]
                        return self.address
            if self.process.poll() is not None:
                break
            sleep(0.002)
        raise RuntimeError(f"server did not start:\n{self.log()}")

    def log(self) -> str:
        with open(self.log_path) as log:
            return log.read()[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def start_schedule(self, period: float, count: int, subscribers: int) -> None:
        self.process.stdin.write(f"start {period} {count} {subscribers}\n")
        self.process.stdin.flush()

    def stop(self) -> dict[str, Any]:
        """Close stdin (ends the feed), SIGTERM, wait; return the report."""
        process, self.process = self.process, None
        if process is None:
            return {}
        try:
            process.stdin.close()
        except OSError:
            pass
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise RuntimeError(f"server did not drain:\n{self.log()}") from None
        if not os.path.exists(self.report_path):
            raise RuntimeError(f"server exited without a report:\n{self.log()}")
        with open(self.report_path) as handle:
            return json.load(handle)


@dataclass
class Setup:
    seconds: float
    build_sketch: float
    save_sketch: float
    build_prefix: float
    store_bytes: int
    store_dir: str


@dataclass
class Outcome:
    """One measured phase, as the load generator saw it."""

    #: (sent, latency) per completed query batch, in seconds: each of the
    #: batch's requests is decoded when its last answer arrives.
    stamped: list[tuple[float, float]] = field(default_factory=list)
    #: Completion time of every completed query.
    finished: list[float] = field(default_factory=list)
    #: (due, latency) per decoded update of the live feed (dashboard).
    updates: list[tuple[float, float]] = field(default_factory=list)
    #: (start, length) of the query segment's time axis.
    window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0  # queries sent plus updates scheduled per subscriber
    failed: int = 0
    phase_start: float = 0.0
    batches: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    feeds: list = field(default_factory=list)
    scheduled: int = 0  # windows the feed was asked to release
    report: dict = field(default_factory=dict)
    stats: tuple = ({}, {})  # /v1/stats around the query segment
    errors: list[str] = field(default_factory=list)
    checked: int = 0
    mismatches: int = 0
    #: The measured phases a combined outcome is made of (see :func:`combine`).
    phases: list = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [latency for _stamp, latency in self.stamped]


def combine(parts: list[Outcome]) -> Outcome:
    """One outcome of several measured phases, each against its own server."""
    total = Outcome(phases=parts, report={"due": [], "released": []})
    for part in parts:
        total.stamped += part.stamped
        total.finished += part.finished
        total.updates += part.updates
        total.attempted += part.attempted
        total.failed += part.failed
        total.errors += part.errors
        total.checked += part.checked
        total.mismatches += part.mismatches
        for key in ("due", "released"):
            total.report[key] += part.report.get(key, [])
    return total


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def save_dataset(path: str, names: list[str], values: Any) -> str:
    """The ``.npz`` layout ``tsubasa serve --data`` reads (uncompressed)."""
    import numpy as np

    zeros = np.zeros(len(names))
    with open(path, "wb") as handle:
        np.savez(
            handle, values=values, names=np.array(names), lats=zeros, lons=zeros,
            resolution_hours=np.float64(1.0),
        )
        # Durable now, so kernel writeback does not land in a measured phase.
        handle.flush()
        os.fsync(handle.fileno())
    return path


def fetch_stats(address: str) -> dict[str, Any]:
    from repro.api.remote import TsubasaRemoteClient
    from workloads import TIMEOUT

    with TsubasaRemoteClient(address, timeout=TIMEOUT) as client:
        return client.stats()


def warm_up(address: str, theta: float) -> None:
    """First answerable requests: a full-range direct query touches every
    mapped page, an aligned one the prefix tables."""
    from repro.api.remote import TsubasaRemoteClient
    from repro.api.spec import QuerySpec, WindowSpec
    from workloads import N_WINDOWS, TIMEOUT, WINDOW

    with TsubasaRemoteClient(address, protocol=2, timeout=TIMEOUT) as client:
        client.execute(QuerySpec(
            op="degree", window=WindowSpec(start=1, stop=N_WINDOWS * WINDOW - 1),
            theta=theta,
        ))
        client.execute(QuerySpec(
            op="matrix", window=WindowSpec(first_window=0, n_windows=N_WINDOWS),
        ))


def set_up(
    inputs: Any, workdir: str, tag: str, launch_args: list[str],
    trace_out: str | None = None,
) -> tuple[Server, Setup]:
    """Raw data in hand -> first answerable request (setup_s)."""
    from repro.core.sketch import build_sketch
    from repro.storage.mmap_store import MmapStore
    from repro.storage.serialize import save_sketch
    from workloads import WINDOW

    store_dir = os.path.join(workdir, f"store-{tag}")
    started = perf_counter()
    sketch = build_sketch(inputs.base, WINDOW, names=inputs.names)
    built = perf_counter()
    store = MmapStore(store_dir)
    try:
        save_sketch(store, sketch)
        saved = perf_counter()
        store.build_prefix()
        prefixed = perf_counter()
        store_bytes = store.size_bytes()
    finally:
        store.close()
    del sketch
    server = Server(workdir, tag, store_dir, launch_args, trace_out)
    try:
        warm_up(server.wait_ready(), inputs.theta)
    except BaseException:
        with contextlib.suppress(RuntimeError):
            server.stop()
        raise
    return server, Setup(
        seconds=perf_counter() - started,
        build_sketch=built - started,
        save_sketch=saved - built,
        build_prefix=prefixed - saved,
        store_bytes=store_bytes,
        store_dir=store_dir,
    )


def _run_threads(
    targets: list[tuple[Any, tuple]], timeout: float, started: Any = None
) -> None:
    """One thread per lane; ``started()`` runs once they all run."""
    threads = [threading.Thread(target=t, args=a, daemon=True) for t, a in targets]
    for thread in threads:
        thread.start()
    if started is not None:
        started()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("a load-generator lane did not finish in time")


def run_lanes(workload: str, address: str, inputs: Any, lanes: list, seconds: float) -> None:
    """Run the workload's query lanes for ``seconds``, one thread each."""
    from workloads import TIMEOUT, dashboard_lane, scan_lane

    lane = dashboard_lane if workload == "dashboard" else scan_lane
    deadline = perf_counter() + seconds
    _run_threads(
        [(lane, (address, inputs, deadline, out)) for out in lanes],
        seconds + 2 * TIMEOUT,
    )


def run_feed(server: Server, inputs: Any, seconds: float, outcome: Outcome) -> None:
    """The live-feed segment: both subscribers decode ``seconds`` of releases.

    Their latencies are filled in by :func:`finish_feed` once the server's
    schedule is known.
    """
    from workloads import FEED_PERIOD, FEED_WINDOWS, TIMEOUT, WINDOW, Feed, feed_lane

    events = int(round(seconds / FEED_PERIOD))
    outcome.feeds = [Feed(theta=theta) for theta in inputs.feed_thetas]
    outcome.scheduled = events
    _run_threads(
        [
            (feed_lane, (server.address, FEED_WINDOWS * WINDOW, events, feed))
            for feed in outcome.feeds
        ],
        seconds + 2 * TIMEOUT,
        lambda: server.start_schedule(FEED_PERIOD, events, len(outcome.feeds)),
    )


def finish_feed(outcome: Outcome, report: dict[str, Any]) -> None:
    """Feed latencies from the due times the server's schedule recorded.

    Every scheduled window is one attempted operation per subscriber; each
    one a subscriber did not decode (a gap, a dropped subscription, a
    stream that ended early) is a failed one.
    """
    from summary import update_latencies
    from workloads import N_WINDOWS, WINDOW

    due = report.get("due", [])
    outcome.report = report
    for feed in outcome.feeds:
        decoded = update_latencies(due, feed.arrivals, N_WINDOWS * WINDOW, WINDOW)
        outcome.updates += decoded
        outcome.samples += feed.samples
        outcome.errors += feed.errors
        outcome.attempted += outcome.scheduled
        outcome.failed += max(outcome.scheduled - len(decoded), 0)


def verify(outcome: Outcome, inputs: Any) -> None:
    """Check the sampled answers; every mismatch counts as a failure."""
    import numpy as np
    from oracle import atol_for, check_event, check_value, reference
    from summary import release_index
    from workloads import N_WINDOWS, WINDOW, window_bounds

    references: dict[tuple[int, int], Any] = {}
    for sample in outcome.samples:
        if isinstance(sample, dict):  # a stream event
            release = release_index(int(sample["timestamp"]), N_WINDOWS * WINDOW, WINDOW)
            problems = check_event(
                sample, np.corrcoef(inputs.trailing(release)), inputs.names
            )
        else:
            spec, result = sample
            bounds = window_bounds(spec)
            if bounds not in references:
                references[bounds] = reference(inputs.values, *bounds)
            problems = check_value(
                spec, result.value, references[bounds], inputs.names,
                atol_for(result.provenance.path),
            )
        outcome.checked += 1
        if problems:
            outcome.mismatches += 1
            outcome.errors += problems[:2]
    outcome.failed = min(outcome.failed + outcome.mismatches, outcome.attempted)


def measure(
    workload: str, server: Server, inputs: Any, seconds: float, client_tracer: Any
) -> Outcome:
    """Warm up, then the measured query segment; on dashboard the live-feed
    segment follows. ``/v1/stats`` is read around the query segment."""
    from workloads import FEED_SHARE, LANES, Lane

    lanes = [Lane.warm_up(inputs, i) for i in range(LANES)]
    run_lanes(workload, server.address, inputs, lanes, WARM_UP)
    lanes = [lane.measured() for lane in lanes]
    before = fetch_stats(server.address)
    if client_tracer is not None:
        import layers

        layers.install_client(client_tracer)
    feed_seconds = seconds * FEED_SHARE if workload == "dashboard" else 0.0
    outcome = Outcome(phase_start=perf_counter())
    run_lanes(workload, server.address, inputs, lanes, seconds - feed_seconds)
    outcome.window = (outcome.phase_start, seconds - feed_seconds)
    outcome.stats = (before, fetch_stats(server.address))
    for record in lanes:
        outcome.batches += record.batches
        outcome.samples += record.samples
        outcome.attempted += record.attempted
        outcome.failed += record.failed
        outcome.errors += record.errors
    for sent, done, keys in outcome.batches:
        outcome.stamped.append((sent, done - sent))
        outcome.finished += [done] * len(keys)
    if feed_seconds:
        run_feed(server, inputs, feed_seconds, outcome)
    return outcome


def run_phase(
    workload: str, inputs: Any, workdir: str, tag: str, launch_args: list[str],
    seconds: float, trace_out: str | None = None, client_tracer: Any = None,
) -> tuple[Outcome, Setup, float]:
    """Set up once, measure, stop: (outcome, setup, rss_mb)."""
    server, setup = set_up(inputs, workdir, tag, launch_args, trace_out)
    try:
        # The load generator's own collector pauses would show up as
        # server latency; it stays off while the lanes run.
        gc.collect()
        gc.disable()
        try:
            outcome = measure(workload, server, inputs, seconds, client_tracer)
        finally:
            gc.enable()
            if client_tracer is not None:
                client_tracer.unwrap()
        rss = server.peak_rss_mb()
        report = server.stop()
    finally:
        with contextlib.suppress(RuntimeError):
            server.stop()  # no-op unless the phase failed
    shutil.rmtree(setup.store_dir, ignore_errors=True)
    if outcome.feeds:
        finish_feed(outcome, report)
    verify(outcome, inputs)
    return outcome, setup, rss


def untraced(
    args: argparse.Namespace, inputs: Any, workdir: str, launch_args: list[str]
) -> tuple:
    from summary import error_rate, percentile, rate, slice_median, sliced_percentile

    runs = [
        run_phase(
            args.workload, inputs, workdir, f"m{phase}", launch_args,
            args.seconds / PHASES,
        )
        for phase in range(PHASES)
    ]
    outcome = combine([part for part, _setup, _rss in runs])
    setups = [setup for _part, setup, _rss in runs]
    latencies = [(part.stamped, *part.window) for part in outcome.phases]
    completions = [
        ([(at, at) for at in part.finished], *part.window) for part in outcome.phases
    ]
    p99, p99_slices = sliced_percentile(latencies, 99, SLICES)
    metrics = {
        "latency_p50_ms": slice_median(
            latencies, SLICES, lambda v: percentile(v, 50)
        ) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "throughput_per_s": slice_median(completions, SLICES, rate),
        "success_rate": 1.0 - error_rate(outcome.attempted, outcome.failed),
        "server_rss_mb": statistics.median(rss for _part, _setup, rss in runs),
        "store_bytes_per_raw_byte": setups[0].store_bytes / inputs.base.nbytes,
        "setup_s": statistics.median(s.seconds for s in setups),
    }
    return outcome, metrics, {
        "setups": [s.seconds for s in setups], "p99_slices": p99_slices,
    }


def traced(
    args: argparse.Namespace, inputs: Any, workdir: str, launch_args: list[str]
) -> tuple:
    import breakdown
    import spans as sp
    from summary import percentile

    half = args.seconds / 2.0
    plain, _setup, _rss = run_phase(args.workload, inputs, workdir, "a", launch_args, half)
    trace_out = os.path.join(workdir, "server-spans.json")
    client_tracer = sp.Tracer()
    outcome, setup, _rss = run_phase(
        args.workload, inputs, workdir, "b", launch_args, half, trace_out,
        client_tracer,
    )
    trace = breakdown.Breakdown(
        sp.merge(sp.load(trace_out), client_tracer.records), since=outcome.phase_start
    )
    metrics: dict[str, float] = {
        "core.build_sketch_s": setup.build_sketch,
        "storage.save_sketch_s": setup.save_sketch,
        "storage.build_prefix_s": setup.build_prefix,
        "storage.store_bytes": float(setup.store_bytes),
        **breakdown.query_metrics(trace, outcome.batches),
        **breakdown.service_metrics(*outcome.stats),
        "core.network_from_matrix_p50_ms": percentile(
            trace.self_ms("core.network_from_matrix"), 50
        ),
        "trace.overhead_p50_ms": (
            percentile(outcome.latencies, 50) - percentile(plain.latencies, 50)
        ) * 1e3,
    }
    if outcome.feeds:
        metrics.update(breakdown.update_metrics(
            trace, outcome.report["due"], outcome.report["released"]
        ))
        metrics["streams.gap_events"] = float(sum(feed.gaps for feed in outcome.feeds))
        metrics["streams.dropped_subscriptions"] = float(
            outcome.report.get("dropped_subscriptions", 0)
        )
    return outcome, metrics, {"trace": trace}


#: Names the report prints for the generic end-to-end metrics.
ALIASES = {
    "latency_p50_ms": "query_p50_ms",
    "latency_p99_ms": "query_p99_ms",
    "throughput_per_s": "query_qps",
}


def print_report(
    args: argparse.Namespace, spec: dict, outcome: Outcome, metrics: dict,
    extra: dict, names: list[str],
) -> None:
    from summary import describe, lateness, percentile, rate, segments

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = "yes" if outcome.mismatches == 0 and outcome.failed == 0 else "NO"
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {outcome.attempted} ops attempted "
        f"({len(outcome.finished)} queries, {len(outcome.updates)} updates "
        f"decoded), {outcome.failed} failed, {outcome.checked} sampled answers "
        f"checked, {outcome.mismatches} wrong"
    )
    for name in names:
        label = ALIASES.get(name, name)
        notes = ""
        if name.startswith("latency_p"):
            notes = describe(outcome.latencies, 99 if "p99" in name else 50)
            if len(outcome.latencies) != len(outcome.finished):
                notes += " (batches of 4 queries)"
            if name == "latency_p99_ms" and "p99_slices" in extra:
                slices = extra["p99_slices"]
                notes += f"; median of {slices} slices" if slices > 1 else "; all phases"
        elif name == "success_rate":
            notes = f"error_rate={1.0 - metrics[name]:.6f} of {outcome.attempted}"
        elif name == "setup_s" and "setups" in extra:
            notes = "median of " + ", ".join(f"{s:.3f}" for s in extra["setups"])
        print(
            f"  {label:<38} {metrics[name]:>14.6f} {units[name]:<6} "
            f"correct={correct}  {notes}"
        )
    for number, part in enumerate(outcome.phases):
        start, length = part.window
        slices = segments(part.stamped, start, length, SLICES)
        done = segments([(at, at) for at in part.finished], start, length, SLICES)
        print(
            f"# phase {number}: {SLICES} slices of {length / SLICES:.1f} s "
            "(latency_p50_ms and throughput_per_s are medians over the slices "
            "of all phases): p50 ms "
            + " ".join(f"{percentile(s, 50) * 1e3:.3f}" for s in slices)
            + "; ops/s "
            + " ".join(f"{rate(d):.1f}" for d in done)
        )
    if outcome.report.get("due"):
        updates = [latency for _due, latency in outcome.updates]
        late = [s * 1e3 for s in lateness(outcome.report["due"], outcome.report["released"])]
        print(
            f"# live feed (not in BENCHMARK.json): update_p50_ms "
            f"{percentile(updates, 50) * 1e3:.3f} ({describe(updates, 50)}), "
            f"update_p99_ms {percentile(updates, 99) * 1e3:.3f} "
            f"({describe(updates, 99)}); {len(late)} windows released, lateness "
            f"p50 {percentile(late, 50):.3f} ms, p99 {percentile(late, 99):.3f} ms"
        )
    if "trace" in extra:
        print_layers(outcome, extra["trace"])
    for message in outcome.errors[:5]:
        print(f"# error: {message}")


def print_layers(outcome: Outcome, trace: Any) -> None:
    """Sample counts of every span, and self time per layer."""
    from spans import EXTRA
    from summary import percentile

    print("# spans in the measured phase (self times, ms):")
    for name in sorted(trace.by_name):
        values = trace.self_ms(name)
        print(
            f"  {name:<30} n={len(values):<7} p50 {percentile(values, 50):9.4f} "
            f"p99 {percentile(values, 99):9.4f}"
        )
    by_op: dict[str, list[float]] = {}
    for index in trace.by_name["client.finish"]:
        by_op.setdefault(trace.spans[index][EXTRA], []).append(trace.own[index] * 1e3)
    for op, values in sorted(by_op.items()):
        print(f"  client.finish[{op}]{'':<{16 - len(op)}} n={len(values):<7} p50 {percentile(values, 50):9.4f}")
    ops = max(len(outcome.finished) + len(outcome.updates), 1)
    observed = sum(done - sent for sent, done, _keys in outcome.batches)
    observed += sum(latency for _due, latency in outcome.updates)
    print(
        f"# self time per layer: ms per op over {ops} queries and updates, and "
        f"share of {observed:.3f} s client-observed time (spans of concurrent "
        "requests overlap, so shares can add up to more than 100%):"
    )
    for layer, seconds in sorted(trace.layer_totals().items()):
        print(
            f"  {layer:<10} {seconds / ops * 1e3:10.4f} ms/op "
            f"{seconds / max(observed, 1e-12):8.1%}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    # One BLAS thread in this process and the server it starts (set before
    # numpy loads): with two, on a two-core machine, the direct Lemma-1
    # kernel's matrix-vector products ran 5-6x slower and switched between
    # two speeds within a run.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    # A terminated run still stops its server and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, SRC)
    from workloads import FEED_WINDOWS, make_inputs

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]
    workdir = os.path.join(ROOT, ".servebench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = make_inputs(args.workload, args.seed)
        raw = save_dataset(os.path.join(workdir, "raw.npz"), inputs.names, inputs.base)
        launch_args = ["--data", raw]
        if args.workload == "dashboard":
            stream = os.path.join(workdir, "stream.npz")
            save_dataset(stream, inputs.names, inputs.values)
            launch_args += [
                "--stream-data", stream,
                "--stream-theta", repr(inputs.feed_thetas[0]),
                "--stream-windows", str(FEED_WINDOWS),
            ]
        run = traced if args.trace else untraced
        outcome, metrics, extra = run(args, inputs, workdir, launch_args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
    unknown = sorted(set(metrics) - set(names))
    missing = [name for name in names if name not in metrics]
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics unknown: {unknown}; not computed: {missing}")
    # A layer the workload does not exercise reads 0 (the report says n=0).
    metrics = {name: metrics.get(name, 0.0) for name in names}
    print_report(args, spec, outcome, metrics, extra, names)
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(json.dumps({
        "correct": outcome.mismatches == 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
