"""Tests for the tsubasa command-line interface."""

from __future__ import annotations

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
    """``tsubasa serve``: HTTP/WebSockets only."""

    class _NoStdin:
        """A stdin that fails the test if anything reads it."""

        def _refuse(self, *args):
            raise AssertionError("serve read stdin")

        read = readline = readlines = __iter__ = _refuse

    def test_requires_http(self, store_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", self._NoStdin())
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", str(store_file)])
        assert exc.value.code == 2
        assert "--http" in capsys.readouterr().err

    def test_max_pending_is_gone(self, store_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", self._NoStdin())
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", str(store_file), "--max-pending", "1",
                  "--http", "127.0.0.1:0"])
        assert exc.value.code == 2
        assert "--max-pending" in capsys.readouterr().err

    def test_non_library_errors_become_envelopes(self, store_file, monkeypatch):
        """A request whose computation raises an unexpected (non-Tsubasa)
        error gets an error envelope over HTTP; the next request still
        succeeds."""
        import http.client

        from repro.api.client import TsubasaClient
        from repro.api.server import serve_in_thread
        from repro.cli import _open_client, _open_store, build_parser

        real = TsubasaClient.compute_matrix

        def explode_on_short_window(self, spec, window):
            if window.length == 50:
                raise RuntimeError("numpy blew up")
            return real(self, spec, window)

        monkeypatch.setattr(TsubasaClient, "compute_matrix",
                            explode_on_short_window)
        args = build_parser().parse_args(
            ["serve", "--store", str(store_file), "--http", "127.0.0.1:0"]
        )
        replies = []
        with _open_store(args.store) as store:
            with serve_in_thread(_open_client(store, args)) as server:
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=30
                )
                for length in (50, 200):
                    frame = {"spec": {"op": "matrix",
                                      "window": {"end": 399,
                                                 "length": length}}}
                    conn.request("POST", "/v1/query",
                                 body=json.dumps(frame).encode())
                    replies.append(json.loads(conn.getresponse().read()))
                conn.close()
        assert [r["ok"] for r in replies] == [False, True]
        assert replies[0]["error"]["type"] == "RuntimeError"
        assert "numpy blew up" in replies[0]["error"]["message"]


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
