"""Benchmark-owned server launcher: ``tsubasa serve --http`` with hooks.

Runs the CLI's own ``serve`` command (single acceptor, CLI defaults) over an
mmap store, the way ``tsubasa serve --http 127.0.0.1:0 --backend mmap
--data raw.npz`` deploys it, with three additions:

* ``--trace-out``: wrap the layers' public functions (:mod:`layers`) before
  the server starts; spans stay in memory and are written at exit.
* ``--stream-data``: the live feed's replay source is replaced by an
  open-loop schedule. After ``start <period> <count> <subscribers>`` arrives
  on stdin and that many subscriptions are attached, one basic window is
  released every ``period`` seconds, whatever the server is doing. The due
  and actual release time of every window go to the report.
* ``--report``: a JSON file with that schedule and the hub's count of
  dropped subscriptions, written at exit.

Other arguments are passed on to ``tsubasa serve``. Stop the server by
closing stdin, then sending SIGTERM (the CLI drains and exits).

    python3 servebench/launcher.py --store DIR --data raw.npz --report r.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Tracer  # noqa: E402

SUBSCRIBE_WAIT = 10.0  # seconds the schedule waits for its subscribers


class Schedule:
    """Open-loop release schedule, controlled over stdin."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.stop = threading.Event()
        self.period = 0.0
        self.count = 0
        self.subscribers = 0
        self.hub = None
        self.due: list[float] = []
        self.released: list[float] = []

    def read_control(self) -> None:
        for line in sys.stdin:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "start":
                self.period = float(parts[1])
                self.count = int(parts[2])
                self.subscribers = int(parts[3])
                self.started.set()
        self.stop.set()
        self.started.set()

    def source(self, values, batch_size: int, start: int):
        """Release ``values[:, start:]`` one basic window per period."""
        self.started.wait()
        give_up = perf_counter() + SUBSCRIBE_WAIT
        while (
            self.hub is not None
            and self.hub.n_subscriptions < self.subscribers
            and perf_counter() < give_up
            and not self.stop.wait(0.001)
        ):
            pass
        windows = (values.shape[1] - start) // batch_size
        first_due = perf_counter() + self.period
        for index in range(self.count):
            due = first_due + index * self.period
            delay = due - perf_counter()
            if (delay > 0 and self.stop.wait(delay)) or self.stop.is_set():
                return
            self.due.append(due)
            self.released.append(perf_counter())
            offset = start + (index % windows) * batch_size
            yield values[:, offset : offset + batch_size]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--stream-data")
    parser.add_argument("--trace-out")
    parser.add_argument("--report", required=True)
    args, serve_args = parser.parse_known_args()

    from repro import cli

    tracer = None
    if args.trace_out:
        import layers

        tracer = Tracer()
        layers.install_server(tracer)
    argv = [
        "serve", "--http", "127.0.0.1:0", "--store", args.store,
        "--backend", "mmap", "--data", args.data,
    ]
    schedule = Schedule()
    if args.stream_data:
        open_stream = cli._open_stream

        def open_scheduled_stream(client, cli_args):
            hub, source = open_stream(client, cli_args)
            schedule.hub = hub
            return hub, source

        cli._open_stream = open_scheduled_stream
        cli._replay_forever = schedule.source
        threading.Thread(target=schedule.read_control, daemon=True).start()
        # The schedule paces the feed; the replay pause would only delay it.
        argv += ["--stream-data", args.stream_data, "--stream-interval", "0"]
    code = cli.main(argv + serve_args)
    dropped = schedule.hub.dropped_subscriptions if schedule.hub is not None else 0
    with open(args.report, "w") as handle:
        json.dump(
            {
                "due": schedule.due,
                "released": schedule.released,
                "dropped_subscriptions": dropped,
            },
            handle,
        )
    if tracer is not None:
        tracer.write(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
