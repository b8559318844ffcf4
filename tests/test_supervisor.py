"""Tests for SO_REUSEPORT multi-process serving.

The contract: N acceptor processes answer identically over one shared
port, a crashed worker is replaced without dropping the address, and
SIGTERM drains every worker cleanly — programmatically via
:class:`~repro.api.supervisor.AcceptorSupervisor` and end to end through
``tsubasa serve --http --workers N``.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api.remote import TsubasaRemoteClient
from repro.api.spec import QuerySpec, WindowSpec
from repro.api.supervisor import AcceptorSupervisor, WorkerConfig
from repro.core.sketch import build_sketch
from repro.exceptions import DataError, ServiceError
from repro.storage.mmap_store import MmapStore
from repro.storage.serialize import save_sketch

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="SO_REUSEPORT is not available on this platform",
)

SPEC = QuerySpec(op="matrix", window=WindowSpec(end=599, length=200))


@pytest.fixture(scope="module")
def mmap_store_dir(small_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("sup") / "sketch.mm"
    sketch = build_sketch(small_dataset.values, 50, names=small_dataset.names)
    with MmapStore(path) as store:
        save_sketch(store, sketch)
    return path


def collect_pids(address, attempts=60):
    """Fresh connections until both workers have answered (4-tuple hash)."""
    pids = set()
    reference = None
    for _ in range(attempts):
        with TsubasaRemoteClient(address) as client:
            pids.add(client.health()["pid"])
            values = client.execute(SPEC).value.values
        if reference is None:
            reference = values
        else:
            np.testing.assert_array_equal(values, reference)
        if len(pids) >= 2:
            break
    return pids, reference


class TestAcceptorSupervisor:
    def test_lifecycle_spread_restart_drain(self, mmap_store_dir):
        config = WorkerConfig(store=str(mmap_store_dir), backend="mmap")
        supervisor = AcceptorSupervisor(config, workers=2, port=0)
        with supervisor:
            assert supervisor.n_alive() == 2
            started = set(supervisor.pids())
            assert len(started) == 2

            # Every worker answers identically on the shared port; the
            # kernel's 4-tuple hash spreads fresh connections over both.
            pids, reference = collect_pids(supervisor.address)
            assert pids == started

            # A killed worker is replaced; the address keeps serving.
            victim = sorted(supervisor.pids())[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                alive = supervisor.pids()
                if len(alive) == 2 and victim not in alive:
                    break
                time.sleep(0.2)
            assert supervisor.n_alive() == 2
            assert victim not in supervisor.pids()
            assert supervisor.restarts == 1
            with TsubasaRemoteClient(supervisor.address) as client:
                np.testing.assert_array_equal(
                    client.execute(SPEC).value.values, reference
                )
        # Context exit is stop(): SIGTERM + drain.
        assert supervisor.n_alive() == 0

    def test_validation(self, mmap_store_dir):
        config = WorkerConfig(store=str(mmap_store_dir))
        with pytest.raises(DataError, match="workers"):
            AcceptorSupervisor(config, workers=0)
        with pytest.raises(DataError, match="WorkerConfig"):
            AcceptorSupervisor({"store": "x"})
        supervisor = AcceptorSupervisor(config, workers=1)
        with pytest.raises(ServiceError, match="not started"):
            supervisor.port


class TestServeWorkersCli:
    def test_cli_multi_worker_serve_and_drain(self, mmap_store_dir):
        env_cmd = [sys.executable, "-m", "repro.cli"]
        process = subprocess.Popen(
            [*env_cmd, "serve", "--store", str(mmap_store_dir),
             "--backend", "mmap", "--http", "127.0.0.1:0", "--workers", "2"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "serving on http://" in banner
            assert "2 SO_REUSEPORT workers" in banner
            address = banner.split("http://", 1)[1].split()[0]
            pids, _reference = collect_pids(address)
            assert len(pids) == 2
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "stopped 2 worker(s)" in stderr
            # Each worker reports its own drain on the way out, each report
            # on a whole line of its own.
            drains = re.findall(
                r"^worker \d+: drained after \d+ requests$", stderr, re.M
            )
            assert len(drains) == 2
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_workers_reject_stream_data(self, mmap_store_dir, tmp_path):
        from repro.cli import main

        code = main([
            "serve", "--store", str(mmap_store_dir), "--backend", "mmap",
            "--http", "127.0.0.1:0", "--workers", "2",
            "--stream-data", str(tmp_path / "missing.npz"),
        ])
        assert code != 0
