"""CI smoke test for the network server: serve, query remotely, drain.

Exercises the full deployment path as separate processes, the way an
operator runs it:

1. ``tsubasa generate`` + ``tsubasa sketch --store-backend mmap``
2. ``tsubasa serve --http 127.0.0.1:0 --auth-token ...`` as a child process
   (ephemeral port announced on stderr)
3. a :class:`~repro.api.remote.TsubasaRemoteClient` batch over HTTP and a
   pipelined batch over WebSockets — once pinned to JSON protocol 1 and
   once auto-negotiating binary columnar protocol v2 — every result checked
   bit-identical to in-process execution; a token-less request must be
   rejected with 401
4. SIGTERM → the server drains gracefully and exits 0
5. steps 2–4 again over a second store sketched with ``--prefix`` and served
   with ``--data``: every answer, aligned or not, must come from the prefix
   tables (``provenance.path == "prefix"``, computed inline on the server's
   event loop) and stay bit-identical to in-process execution
6. the first store served by ``--workers 2`` (``SO_REUSEPORT`` acceptor
   processes): both workers answer on the shared port; one worker is
   SIGKILLed in the middle of a retrying client's batches and not a single
   call fails (results stay bit-identical while the supervisor spawns a
   replacement); SIGTERM then drains both workers

Exits non-zero on any mismatch, so CI can gate on it::

    PYTHONPATH=src python benchmarks/smoke_server.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api.client import TsubasaClient
from repro.api.remote import TsubasaRemoteClient
from repro.api.resilience import RetryPolicy
from repro.api.spec import QuerySpec, WindowSpec
from repro.engine.providers import MmapProvider
from repro.exceptions import ServiceError
from repro.storage.mmap_store import MmapStore

CLI = [sys.executable, "-m", "repro.cli"]
TOKEN = "smoke-secret"


def check_results(remote, local, path: str | None = None) -> None:
    for got, want in zip(remote, local):
        if path is not None:
            assert got.provenance.path == path, got.provenance
        if got.spec.op == "matrix":
            assert np.array_equal(
                got.value.values, want.value.values
            ), "matrix mismatch"
        elif got.spec.op == "network":
            assert got.value.edge_set() == want.value.edge_set()
        else:
            assert got.value == want.value, got.spec.op


def single_process(
    store: Path, specs, local, extra_args=(), path: str | None = None
) -> int:
    server = subprocess.Popen(
        [*CLI, "serve", "--store", str(store), "--backend", "mmap",
         "--http", "127.0.0.1:0", "--auth-token", TOKEN, *extra_args],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stderr.readline()
        if "serving on http://" not in banner:
            print(f"unexpected banner: {banner!r}", file=sys.stderr)
            return 1
        address = banner.split("http://", 1)[1].split()[0]
        print(f"server up at {address}")
        try:
            TsubasaRemoteClient(address).execute(specs[0])
            print("token-less request was NOT rejected", file=sys.stderr)
            return 1
        except ServiceError:
            print("token-less request rejected (401)")
        for transport in ("http", "ws"):
            for protocol in (1, "auto"):
                with TsubasaRemoteClient(
                    address, transport=transport, protocol=protocol,
                    auth_token=TOKEN,
                ) as rc:
                    assert rc.health()["ok"] is True
                    remote = rc.execute_many(specs)
                    negotiated = rc.negotiated_protocol
                check_results(remote, local, path)
                print(
                    f"{transport} protocol={protocol}: {len(remote)} "
                    f"results bit-identical (negotiated {negotiated}"
                    + (f", path {path})" if path else ")")
                )
        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=30)
        if server.returncode != 0:
            print(f"server exited {server.returncode}:\n{stderr}",
                  file=sys.stderr)
            return 1
        if f"served {4 * len(specs)} ok / 0 failed" not in stderr:
            print(f"unexpected drain summary:\n{stderr}", file=sys.stderr)
            return 1
        print("clean shutdown:", stderr.strip().splitlines()[-1])
    finally:
        if server.poll() is None:
            server.kill()
            try:
                # Surviving worker children inherit the stderr pipe, so an
                # unbounded communicate() can hang after a hard kill.
                server.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                pass
    return 0


def multi_worker(store: Path, specs, local) -> int:
    server = subprocess.Popen(
        [*CLI, "serve", "--store", str(store), "--backend", "mmap",
         "--http", "127.0.0.1:0", "--workers", "2"],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stderr.readline()
        if "2 SO_REUSEPORT workers" not in banner:
            print(f"unexpected banner: {banner!r}", file=sys.stderr)
            return 1
        address = banner.split("http://", 1)[1].split()[0]
        print(f"supervisor up at {address}")
        pids = set()
        for _ in range(40):
            with TsubasaRemoteClient(address, auth_token=TOKEN) as rc:
                pids.add(rc.health()["pid"])
                check_results(rc.execute_many(specs), local)
            if len(pids) >= 2:
                break
        if len(pids) != 2:
            print(f"expected 2 serving pids, saw {pids}", file=sys.stderr)
            return 1
        print(f"both workers answered: pids {sorted(pids)}")

        # Kill a worker in the middle of a retrying client's batches: not
        # a single call may fail (reconnects land on the survivor), and
        # the supervisor must bring a replacement up on the shared port.
        with TsubasaRemoteClient(
            address,
            retry=RetryPolicy(jitter=False, base_backoff=0.05),
        ) as rc:
            # health() pins the keep-alive connection to one worker, so
            # the batches after the kill are guaranteed to hit a dead
            # connection first and must transparently re-issue.
            victim = rc.health()["pid"]
            check_results(rc.execute_many(specs), local)
            os.kill(victim, signal.SIGKILL)
            for _ in range(2):
                check_results(rc.execute_many(specs), local)
        print(
            f"SIGKILLed worker {victim} mid-batch: "
            f"{3 * len(specs)} calls, 0 failed, all bit-identical"
        )
        survivors = set()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                with TsubasaRemoteClient(address) as probe:
                    survivors.add(probe.health()["pid"])
            except Exception:
                pass
            if len(survivors - {victim}) >= 2:
                break
            time.sleep(0.2)
        if len(survivors - {victim}) < 2:
            print(f"replacement worker never answered: saw {survivors}",
                  file=sys.stderr)
            return 1
        print(f"replacement up: pids {sorted(survivors - {victim})}")

        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=60)
        if server.returncode != 0:
            print(f"supervisor exited {server.returncode}:\n{stderr}",
                  file=sys.stderr)
            return 1
        if "stopped 2 worker(s)" not in stderr:
            print(f"unexpected stop summary:\n{stderr}", file=sys.stderr)
            return 1
        drains = re.findall(
            r"^worker \d+: drained after \d+ requests$", stderr, re.M
        )
        if len(drains) != 2:
            print(f"expected 2 worker drains:\n{stderr}", file=sys.stderr)
            return 1
        print("clean multi-worker shutdown:",
              stderr.strip().splitlines()[-1])
    finally:
        if server.poll() is None:
            server.kill()
            try:
                # Surviving worker children inherit the stderr pipe, so an
                # unbounded communicate() can hang after a hard kill.
                server.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                pass
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.npz"
        store = Path(tmp) / "sketch.mm"
        subprocess.run(
            [*CLI, "generate", "--stations", "20", "--points", "1000",
             "--seed", "1", "--out", str(data)],
            check=True,
        )
        subprocess.run(
            [*CLI, "sketch", "--data", str(data), "--window-size", "50",
             "--store", str(store), "--store-backend", "mmap"],
            check=True,
        )
        window = WindowSpec(end=999, length=600)
        specs = [
            QuerySpec(op="network", window=window, theta=0.5),
            QuerySpec(op="top_k", window=window, k=5),
            QuerySpec(op="matrix", window=window),
            QuerySpec(op="degree", window=window, theta=0.5),
        ]
        local = TsubasaClient(
            provider=MmapProvider(MmapStore(store, mode="r"))
        ).execute_many(specs)

        code = single_process(store, specs, local)
        if code:
            return code

        prefixed = Path(tmp) / "prefixed.mm"
        subprocess.run(
            [*CLI, "sketch", "--data", str(data), "--window-size", "50",
             "--store", str(prefixed), "--store-backend", "mmap", "--prefix"],
            check=True,
        )
        # Non-aligned windows add raw head/tail fragments to the prefix rows.
        arbitrary = WindowSpec(end=987, length=463)
        prefix_specs = specs + [
            QuerySpec(op="matrix", window=arbitrary),
            QuerySpec(op="network", window=arbitrary, theta=0.5),
        ]
        with np.load(data) as archive:
            values = archive["values"]
        prefix_local = TsubasaClient(
            provider=MmapProvider(MmapStore(prefixed, mode="r"), data=values)
        ).execute_many(prefix_specs)
        assert {r.provenance.path for r in prefix_local} == {"prefix"}
        code = single_process(
            prefixed, prefix_specs, prefix_local,
            extra_args=("--data", str(data)), path="prefix",
        )
        if code:
            return code
        code = multi_worker(store, specs, local)
        if code:
            return code
    print("server smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
