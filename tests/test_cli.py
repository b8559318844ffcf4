"""Tests for the tsubasa command-line interface."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.npz"
    code = main(
        [
            "generate",
            "--stations", "12",
            "--points", "400",
            "--seed", "5",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def store_file(tmp_path, dataset_file):
    path = tmp_path / "sketch.db"
    code = main(
        [
            "sketch",
            "--data", str(dataset_file),
            "--window-size", "50",
            "--store", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_expected_arrays(self, dataset_file):
        with np.load(dataset_file) as archive:
            assert archive["values"].shape == (12, 400)
            assert len(archive["names"]) == 12

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["generate", "--stations", "4", "--points", "60",
              "--seed", "9", "--out", str(a)])
        main(["generate", "--stations", "4", "--points", "60",
              "--seed", "9", "--out", str(b)])
        with np.load(a) as fa, np.load(b) as fb:
            np.testing.assert_array_equal(fa["values"], fb["values"])


class TestSketchAndInfo:
    def test_info_reports_store(self, store_file, capsys):
        assert main(["info", "--store", str(store_file)]) == 0
        out = capsys.readouterr().out
        assert "kind=exact" in out
        assert "series=12" in out
        assert "windows=8" in out


class TestQuery:
    def test_aligned_query_prints_network(self, store_file, capsys):
        code = main(
            [
                "query",
                "--store", str(store_file),
                "--end", "399",
                "--length", "200",
                "--theta", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=12" in out

    def test_non_aligned_query_fails_cleanly(self, store_file, capsys):
        code = main(
            [
                "query",
                "--store", str(store_file),
                "--end", "399",
                "--length", "123",
            ]
        )
        assert code == 2
        assert "not aligned" in capsys.readouterr().err


class TestMmapBackend:
    @pytest.fixture()
    def mmap_store_dir(self, tmp_path, dataset_file):
        path = tmp_path / "sketch.mm"
        code = main(
            [
                "sketch",
                "--data", str(dataset_file),
                "--window-size", "50",
                "--store", str(path),
                "--store-backend", "mmap",
            ]
        )
        assert code == 0
        return path

    def test_sketch_into_mmap_store(self, mmap_store_dir, capsys):
        assert (mmap_store_dir / "meta.json").is_file()
        assert (mmap_store_dir / "pairs.f64").is_file()

    def test_info_detects_mmap_layout(self, mmap_store_dir, capsys):
        assert main(["info", "--store", str(mmap_store_dir)]) == 0
        out = capsys.readouterr().out
        assert "layout=mmap" in out
        assert "windows=8" in out

    def test_query_backend_mmap(self, mmap_store_dir, capsys):
        code = main(
            [
                "query",
                "--store", str(mmap_store_dir),
                "--backend", "mmap",
                "--end", "399",
                "--length", "200",
                "--theta", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mmap backend" in out
        assert "nodes=12" in out

    def test_query_backends_agree(self, store_file, mmap_store_dir, capsys):
        for args in (
            ["--store", str(store_file)],
            ["--store", str(mmap_store_dir), "--backend", "mmap"],
            ["--store", str(mmap_store_dir)],
        ):
            assert main(
                ["topk", *args, "--end", "399", "--length", "200", "--k", "3"]
            ) == 0
        outputs = capsys.readouterr().out.split("top 3 correlated pairs:")
        pair_lists = [o.strip() for o in outputs if o.strip()]
        assert len(pair_lists) == 3
        assert len(set(pair_lists)) == 1

    def test_backend_mmap_rejects_sqlite_store(self, store_file, capsys):
        code = main(
            [
                "query",
                "--store", str(store_file),
                "--backend", "mmap",
                "--end", "399",
                "--length", "200",
            ]
        )
        assert code == 2  # SketchError
        err = capsys.readouterr().err
        assert "memory-mapped" in err
        assert "tsubasa convert" in err and "--backend memory" in err


class TestConvert:
    def test_sqlite_to_mmap_and_back(self, store_file, tmp_path, capsys):
        mm = tmp_path / "conv.mm"
        code = main(
            ["convert", "--src", str(store_file), "--dst", str(mm),
             "--dst-backend", "mmap"]
        )
        assert code == 0
        assert "migrated 8 window records" in capsys.readouterr().out
        back = tmp_path / "back.db"
        code = main(
            ["convert", "--src", str(mm), "--dst", str(back),
             "--dst-backend", "sqlite", "--batch-size", "3"]
        )
        assert code == 0
        from repro.storage.serialize import load_sketch
        from repro.storage.sqlite_store import SqliteSketchStore

        with SqliteSketchStore(store_file) as original, \
                SqliteSketchStore(back) as roundtripped:
            a = load_sketch(original)
            b = load_sketch(roundtripped)
        np.testing.assert_array_equal(a.covs, b.covs)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.names == b.names

    def test_converted_store_answers_queries(self, store_file, tmp_path, capsys):
        mm = tmp_path / "conv.mm"
        assert main(
            ["convert", "--src", str(store_file), "--dst", str(mm),
             "--dst-backend", "mmap"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--store", str(mm), "--backend", "mmap",
             "--end", "399", "--length", "200", "--theta", "0.4"]
        ) == 0
        assert "nodes=12" in capsys.readouterr().out


class TestStream:
    def test_stream_reports_updates(self, dataset_file, capsys):
        code = main(
            [
                "stream",
                "--data", str(dataset_file),
                "--window-size", "50",
                "--initial", "200",
                "--updates", "3",
                "--theta", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("t=") == 3

    def test_initial_too_large_fails(self, dataset_file, capsys):
        code = main(
            [
                "stream",
                "--data", str(dataset_file),
                "--window-size", "50",
                "--initial", "400",
            ]
        )
        assert code == 2


class TestErrorHandling:
    """TsubasaError subclasses map to distinct exit codes, no tracebacks."""

    def test_segmentation_error_exit_code(self, tmp_path, dataset_file, capsys):
        # Window size larger than the series -> SegmentationError inside.
        code = main(
            [
                "sketch",
                "--data", str(dataset_file),
                "--window-size", "1000",
                "--store", str(tmp_path / "x.db"),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_sketch_error_exit_code(self, store_file, capsys):
        # Non-aligned query without raw data -> SketchError.
        code = main(
            ["query", "--store", str(store_file), "--end", "399",
             "--length", "123"]
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_storage_error_exit_code(self, tmp_path, capsys):
        # A store with no metadata -> StorageError.
        empty = tmp_path / "empty.db"
        from repro.storage.sqlite_store import SqliteSketchStore

        with SqliteSketchStore(empty):
            pass
        code = main(["info", "--store", str(empty)])
        assert code == 5
        assert "Traceback" not in capsys.readouterr().err

    def test_exit_codes_are_distinct(self):
        from repro.cli import exit_code_for
        from repro.exceptions import (
            DataError,
            SegmentationError,
            ServiceError,
            SketchError,
            StorageError,
            StreamError,
            TsubasaError,
        )

        codes = [
            exit_code_for(exc("boom"))
            for exc in (TsubasaError, SketchError, DataError,
                        SegmentationError, StorageError, StreamError,
                        ServiceError)
        ]
        assert codes == [1, 2, 3, 4, 5, 6, 7]
        assert len(set(codes)) == len(codes)

    def test_unmapped_subclass_inherits_parent_code(self):
        from repro.cli import exit_code_for
        from repro.exceptions import StorageError

        class CustomStorageError(StorageError):
            pass

        assert exit_code_for(CustomStorageError("boom")) == 5


class TestTopk:
    def test_prints_pairs(self, store_file, capsys):
        code = main(
            [
                "topk",
                "--store", str(store_file),
                "--end", "399",
                "--length", "400",
                "--k", "3",
                "--anticorrelated",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("corr=") == 6
        assert "top 3 correlated pairs" in out

    def test_non_aligned_fails(self, store_file, capsys):
        code = main(
            [
                "topk",
                "--store", str(store_file),
                "--end", "399",
                "--length", "123",
            ]
        )
        assert code == 2


class TestServe:
    """The JSON-lines query service on stdin/stdout."""

    def serve(self, monkeypatch, capsys, store, lines, extra_args=()):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        code = main(["serve", "--store", str(store), *extra_args])
        captured = capsys.readouterr()
        return code, [json.loads(l) for l in captured.out.splitlines()], captured.err

    def test_serves_specs_in_order(self, store_file, monkeypatch, capsys):
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file,
            [
                '{"id": "net", "op": "network", '
                '"window": {"end": 399, "length": 200}, "theta": 0.4}',
                '{"id": "tk", "op": "top_k", '
                '"window": {"end": 399, "length": 200}, "k": 3}',
            ],
        )
        assert code == 0
        assert [r["id"] for r in responses] == ["net", "tk"]
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"]["n_nodes"] == 12
        assert len(responses[1]["result"]["pairs"]) == 3
        assert responses[0]["provenance"]["backend"] == "memory"
        assert "served 2 ok / 0 failed" in err

    def test_duplicate_windows_coalesce(self, store_file, monkeypatch, capsys):
        lines = [
            json.dumps({"op": "degree",
                        "window": {"end": 399, "length": 200},
                        "theta": 0.4})
        ] * 6
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file, lines
        )
        assert code == 0
        assert len(responses) == 6
        assert all(r["ok"] for r in responses)
        degrees = {json.dumps(r["result"], sort_keys=True) for r in responses}
        assert len(degrees) == 1
        # Every duplicate is deduplicated one way or the other: coalesced
        # onto the in-flight computation, or replayed from the serve
        # default's result cache once the first completed. Which of the two
        # fires depends on arrival timing; recomputation never does.
        deduplicated = sum(
            r["provenance"]["coalesced"] or r["provenance"]["cache"]
            for r in responses
        )
        assert deduplicated == 5
        assert "1 matrices computed" in err

    def test_bad_requests_get_error_envelopes(
        self, store_file, monkeypatch, capsys
    ):
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file,
            [
                "this is not json",
                '{"op": "nope", "window": {"end": 399, "length": 200}}',
                '{"op": "matrix", "window": {"end": 399, "length": 123}}',
                '{"op": "matrix", "window": {"end": 399, "length": 200}}',
            ],
        )
        assert code == 0  # bad requests never kill the service
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert responses[0]["error"]["type"] == "JSONDecodeError"
        assert responses[1]["error"]["type"] == "DataError"
        assert responses[1]["error"]["code"] == 3
        assert responses[2]["error"]["type"] == "SketchError"
        assert responses[2]["error"]["code"] == 2
        # The summary counts parse-stage rejections alongside query failures.
        assert "3 failed" in err
        assert "2 malformed" in err

    def test_blank_lines_skipped(self, store_file, monkeypatch, capsys):
        code, responses, _ = self.serve(
            monkeypatch, capsys, store_file,
            ["", '{"op": "matrix", "window": {"end": 399, "length": 200}}', ""],
        )
        assert code == 0
        assert len(responses) == 1

    def test_non_library_errors_become_envelopes(
        self, store_file, monkeypatch, capsys
    ):
        """A request whose computation raises an unexpected (non-Tsubasa)
        error gets an error envelope; later requests still get responses
        and the process exits cleanly."""
        from repro.api.client import TsubasaClient

        real = TsubasaClient.compute_matrix

        def explode_on_short_window(self, spec, window):
            if window.length == 50:
                raise RuntimeError("numpy blew up")
            return real(self, spec, window)

        monkeypatch.setattr(TsubasaClient, "compute_matrix",
                            explode_on_short_window)
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file,
            [
                '{"op": "matrix", "window": {"end": 399, "length": 50}}',
                '{"op": "matrix", "window": {"end": 399, "length": 200}}',
            ],
        )
        assert code == 0
        assert [r["ok"] for r in responses] == [False, True]
        assert responses[0]["error"]["type"] == "RuntimeError"
        assert "numpy blew up" in responses[0]["error"]["message"]
        assert "Traceback" not in err

    def test_bounded_pending_preserves_order(
        self, store_file, monkeypatch, capsys
    ):
        """--max-pending 1 forces the reader to wait on the printer; every
        response still arrives, in submission order."""
        lines = [
            json.dumps({"id": i, "op": "degree",
                        "window": {"end": 399, "length": 200},
                        "theta": 0.4})
            for i in range(10)
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        code = main(["serve", "--store", str(store_file),
                     "--max-pending", "1"])
        captured = capsys.readouterr()
        responses = [json.loads(l) for l in captured.out.splitlines()]
        assert code == 0
        assert [r["id"] for r in responses] == list(range(10))
        assert all(r["ok"] for r in responses)

    def test_consumer_hangup_exits_cleanly(
        self, store_file, monkeypatch, capsys
    ):
        """A broken stdout pipe (e.g. `serve | head`) must not crash serve
        or wedge the reader against the bounded response queue."""
        import sys as _sys

        class BrokenAfterOne:
            def __init__(self, real):
                self.real = real
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError("consumer gone")
                return self.real.write(text)

            def flush(self):
                self.real.flush()

        broken = BrokenAfterOne(_sys.stdout)
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "".join(
                    json.dumps({"op": "matrix",
                                "window": {"end": 399, "length": 200}}) + "\n"
                    for _ in range(6)
                )
            ),
        )
        monkeypatch.setattr("sys.stdout", broken)
        code = main(["serve", "--store", str(store_file),
                     "--max-pending", "2"])
        captured = capsys.readouterr()
        assert code == 0  # no traceback, no hang
        assert len(captured.out.splitlines()) == 1  # one response got out


class TestSweep:
    def test_prints_positions_and_dynamics(self, store_file, capsys):
        code = main(
            [
                "sweep",
                "--store", str(store_file),
                "--windows", "4",
                "--stride", "2",
                "--theta", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # 8 windows, length 4, stride 2 -> positions 0, 2, 4.
        assert out.count("edges") >= 3
        assert "mean churn" in out


class TestSignificanceOption:
    def test_alpha_derives_theta(self, store_file, capsys):
        code = main(
            [
                "query",
                "--store", str(store_file),
                "--end", "399",
                "--length", "400",
                "--alpha", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "significance level 0.01 -> theta=" in out


class TestMap:
    def test_renders_degree_map(self, dataset_file, capsys):
        code = main(
            [
                "map",
                "--data", str(dataset_file),
                "--window-size", "50",
                "--end", "399",
                "--length", "400",
                "--theta", "0.3",
                "--width", "30",
                "--height", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes              12" in out
        # The map body has 8 rows of width 30.
        map_lines = [l for l in out.split("\n") if len(l) == 30]
        assert len(map_lines) >= 8


class TestServeProtocolFrames:
    """The JSON-lines mode speaks the versioned wire protocol."""

    def serve(self, monkeypatch, capsys, store, lines, extra_args=()):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        code = main(["serve", "--store", str(store), *extra_args])
        captured = capsys.readouterr()
        return code, [json.loads(l) for l in captured.out.splitlines()], captured.err

    def test_framed_requests(self, store_file, monkeypatch, capsys):
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file,
            [
                json.dumps({
                    "protocol": 1,
                    "id": "framed-1",
                    "spec": {"op": "top_k",
                             "window": {"end": 399, "length": 200}, "k": 2},
                }),
            ],
        )
        assert code == 0
        assert responses[0]["id"] == "framed-1"
        assert responses[0]["ok"] is True
        assert responses[0]["protocol"] == 1
        assert len(responses[0]["result"]["pairs"]) == 2
        assert "served 1 ok / 0 failed" in err

    def test_version_mismatch_rejected(self, store_file, monkeypatch, capsys):
        code, responses, err = self.serve(
            monkeypatch, capsys, store_file,
            [
                json.dumps({
                    "protocol": 9,
                    "id": "future",
                    "spec": {"op": "matrix",
                             "window": {"end": 399, "length": 200}},
                }),
            ],
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert "unsupported protocol version 9" in responses[0]["error"]["message"]
        assert responses[0]["id"] == "future"
        assert "1 malformed" in err

    def test_subscribe_rejected_on_stdin(self, store_file, monkeypatch, capsys):
        code, responses, _ = self.serve(
            monkeypatch, capsys, store_file,
            [
                json.dumps({"op": "subscribe",
                            "window": {"start": 0, "stop": 400},
                            "theta": 0.5}),
            ],
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert "--http" in responses[0]["error"]["message"]

    def test_hangup_reports_discarded_responses(
        self, store_file, monkeypatch, capsys
    ):
        """The summary counts what the consumer saw; completions after a
        hangup are 'discarded', not silently folded into ok."""
        import sys as _sys

        class BrokenAfterOne:
            def __init__(self, real):
                self.real = real
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError("consumer gone")
                return self.real.write(text)

            def flush(self):
                self.real.flush()

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "".join(
                    json.dumps({"op": "matrix",
                                "window": {"end": 399, "length": 200}}) + "\n"
                    for _ in range(5)
                )
            ),
        )
        monkeypatch.setattr("sys.stdout", BrokenAfterOne(_sys.stdout))
        code = main(["serve", "--store", str(store_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.splitlines()) == 1
        assert "served 1 ok / 0 failed" in captured.err
        assert "discarded after hangup" in captured.err


class TestServeStdinSubscribe:
    """`--stream-data` wires the subscribe op through the stdin transport."""

    class _BreaksAfter:
        """A stdout that hangs up after N lines — the only way to end an
        endless replay-driven subscription deterministically in a test."""

        def __init__(self, real, allowed):
            self.real = real
            self.allowed = allowed

        def write(self, text):
            if self.allowed <= 0:
                raise BrokenPipeError("consumer gone")
            self.allowed -= 1
            return self.real.write(text)

        def flush(self):
            self.real.flush()

    def test_subscribe_streams_events_as_json_lines(
        self, store_file, dataset_file, monkeypatch, capsys
    ):
        import sys as _sys

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({
                "protocol": 1,
                "id": "sub-1",
                "spec": {"op": "subscribe",
                         "window": {"end": 399, "length": 400},
                         "theta": 0.8},
            }) + "\n"),
        )
        monkeypatch.setattr(
            "sys.stdout", self._BreaksAfter(_sys.stdout, allowed=3)
        )
        code = main([
            "serve", "--store", str(store_file),
            "--stream-data", str(dataset_file),
            "--stream-interval", "0.01",
        ])
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert code == 0
        assert len(lines) == 3
        ack, *events = lines
        assert ack["id"] == "sub-1" and ack["ok"] is True
        assert ack["result"]["subscribed"] is True
        assert ack["result"]["window_points"] == 400
        for seq, event in enumerate(events):
            assert event["id"] == "sub-1"
            assert event["seq"] == seq
            assert "n_edges" in event["event"]
        assert "served 3 ok / 0 failed" in captured.err
        assert "discarded after hangup" in captured.err

    def test_subscribe_theta_below_base_is_an_error_envelope(
        self, store_file, dataset_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({
                "protocol": 1,
                "id": "low",
                "spec": {"op": "subscribe",
                         "window": {"end": 399, "length": 400},
                         "theta": 0.5},
            }) + "\n"),
        )
        code = main([
            "serve", "--store", str(store_file),
            "--stream-data", str(dataset_file),
            "--stream-interval", "0.01",
        ])
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert code == 0
        assert len(lines) == 1
        assert lines[0]["ok"] is False
        assert lines[0]["id"] == "low"
        assert "base threshold" in lines[0]["error"]["message"]
        # A well-formed request the hub refuses is failed, not malformed.
        assert "0 malformed" in captured.err


class TestTrimCli:
    def test_trim_mmap_store(self, tmp_path, dataset_file, capsys):
        store = tmp_path / "sketch.mm"
        assert main(["sketch", "--data", str(dataset_file),
                     "--window-size", "50", "--store", str(store),
                     "--store-backend", "mmap"]) == 0
        from repro.storage.mmap_store import MmapStore

        with MmapStore(store) as handle:
            handle._ensure_capacity(64)
        capsys.readouterr()
        assert main(["trim", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "trimmed" in out
        assert "8 committed windows" in out
        # The store still answers queries after compaction.
        assert main(["query", "--store", str(store), "--backend", "mmap",
                     "--end", "399", "--length", "200",
                     "--theta", "0.4"]) == 0

    def test_trim_rejects_sqlite(self, store_file, capsys):
        code = main(["trim", "--store", str(store_file)])
        assert code == 5  # StorageError
        assert "memory-mapped" in capsys.readouterr().err
