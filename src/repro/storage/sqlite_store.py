"""Disk-based sketch store on SQLite (PostgreSQL substitute, §3.4).

The paper stores sketches in PostgreSQL; this offline environment has no
database server, so we use the standard library's ``sqlite3`` behind the same
:class:`~repro.storage.base.SketchStore` interface. The deployment shape is
preserved: sketches are written in batches by a dedicated database worker at
ingestion time, read back in batches at query time, and the database file's
size is the space-overhead measure of Fig. 6d.

Schema::

    meta(key TEXT PRIMARY KEY, value TEXT)              -- names, B, kind
    windows(idx INTEGER PRIMARY KEY, size INTEGER,
            means BLOB, stds BLOB, pairs BLOB)          -- float64 arrays

Arrays are stored as raw little-endian float64 blobs; the pair matrix is
stored as its upper triangle (including the diagonal) since both covariance
and distance matrices are symmetric — the same halving the paper applies to
its ``N * (N - 1) / 2`` pair statistics.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import numpy as np

from repro.core.packing import pack_symmetric, packed_size, unpack_symmetric
from repro.exceptions import StorageError
from repro.storage.base import (
    SketchStore,
    StoreMetadata,
    WindowRecord,
    require_symmetric_pairs,
)

__all__ = ["SqliteSketchStore"]

#: Maximum window indices per ``WHERE idx IN (...)`` clause. SQLite's default
#: bound-variable limit is 999 (SQLITE_MAX_VARIABLE_NUMBER); staying well
#: under it keeps one prepared statement per few hundred records instead of
#: one per record.
_IN_CLAUSE_LIMIT = 500


def _pack_symmetric(record: WindowRecord) -> bytes:
    require_symmetric_pairs(record)
    return pack_symmetric(record.pairs).astype("<f8", copy=False).tobytes()


def _unpack_symmetric(blob: bytes, n: int) -> np.ndarray:
    if len(blob) % 8 != 0:
        raise StorageError(
            f"corrupt pair blob: {len(blob)} bytes is not a whole number of "
            "float64 values"
        )
    flat = np.frombuffer(blob, dtype="<f8")
    expected = packed_size(n)
    if flat.size != expected:
        raise StorageError(
            f"corrupt pair blob: {flat.size} values, expected {expected}"
        )
    return unpack_symmetric(flat, n)


class SqliteSketchStore(SketchStore):
    """SQLite-backed sketch store.

    Args:
        path: Database file path; created if absent. ``":memory:"`` gives an
            ephemeral store useful in tests.

    The connection is opened with ``check_same_thread=False`` so a store
    handle may move between threads — the async query service computes
    matrices on an executor thread while the handle was opened on the main
    one. Access must still be *serialized* (sqlite3 objects are not
    concurrency-safe); the service guarantees that by running store-backed
    computations on a single executor thread.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = str(path)
        try:
            self._conn = sqlite3.connect(self._path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sketch database {path}: {exc}") from exc
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS windows ("
            "idx INTEGER PRIMARY KEY, size INTEGER NOT NULL, "
            "means BLOB NOT NULL, stds BLOB NOT NULL, pairs BLOB NOT NULL)"
        )
        self._conn.commit()

    @property
    def path(self) -> str | None:
        """Database file path; ``None`` for ephemeral ``":memory:"`` stores.

        A real path means other processes (the parallel executor's workers)
        can open their own connections to the same sketch database.
        """
        return None if self._path == ":memory:" else self._path

    def write_metadata(self, metadata: StoreMetadata) -> None:
        payload = json.dumps(
            {
                "names": list(metadata.names),
                "window_size": metadata.window_size,
                "kind": metadata.kind,
                "n_coeffs": metadata.n_coeffs,
            }
        )
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('collection', ?)",
                (payload,),
            )

    def read_metadata(self) -> StoreMetadata:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'collection'"
        ).fetchone()
        if row is None:
            raise StorageError(f"no metadata in sketch database {self._path}")
        payload = json.loads(row[0])
        return StoreMetadata(
            names=tuple(payload["names"]),
            window_size=int(payload["window_size"]),
            kind=payload["kind"],
            n_coeffs=int(payload["n_coeffs"]),
        )

    def write_windows(self, records: list[WindowRecord]) -> None:
        rows = [
            (
                record.index,
                record.size,
                np.ascontiguousarray(record.means, dtype="<f8").tobytes(),
                np.ascontiguousarray(record.stds, dtype="<f8").tobytes(),
                _pack_symmetric(record),
            )
            for record in records
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO windows (idx, size, means, stds, pairs) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )

    def read_windows(self, indices: list[int]) -> list[WindowRecord]:
        # One batched SELECT per _IN_CLAUSE_LIMIT distinct indices instead of
        # one statement per record (the §3.4 batched reads); the requested
        # order — including duplicates — is restored from the fetched map.
        wanted = [int(index) for index in indices]
        unique = list(dict.fromkeys(wanted))
        fetched: dict[int, WindowRecord] = {}
        for start in range(0, len(unique), _IN_CLAUSE_LIMIT):
            chunk = unique[start : start + _IN_CLAUSE_LIMIT]
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                "SELECT idx, size, means, stds, pairs FROM windows "
                f"WHERE idx IN ({placeholders})",
                chunk,
            ).fetchall()
            for idx, size, means_blob, stds_blob, pairs_blob in rows:
                means = np.frombuffer(means_blob, dtype="<f8")
                fetched[int(idx)] = WindowRecord(
                    index=int(idx),
                    means=means,
                    stds=np.frombuffer(stds_blob, dtype="<f8"),
                    pairs=_unpack_symmetric(pairs_blob, means.size),
                    size=int(size),
                )
        missing = [index for index in unique if index not in fetched]
        if missing:
            raise StorageError(
                f"window record {missing[0]} missing from store"
            )
        return [fetched[index] for index in wanted]

    def window_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM windows").fetchone()[0])

    def size_bytes(self) -> int:
        if self._path == ":memory:":
            page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
            page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
            return int(page_count) * int(page_size)
        self._conn.commit()
        return Path(self._path).stat().st_size

    def close(self) -> None:
        self._conn.close()
