"""Zero-copy memory-mapped sketch store (the disk deployment's fast path).

The SQLite store pays a per-record cost at read time: every window record is
``SELECT``-ed and its blobs are copied out of the database pages. For a
read-mostly sketch (the paper's historical deployment: write once at
ingestion, query forever) none of that work is necessary — the sketch is just
four fixed-shape numeric arrays.

:class:`MmapStore` therefore lays the window records out as contiguous
little-endian arrays in a directory (``P = n (n + 1) / 2``)::

    meta.json     -- JSON sidecar: layout version, n_series, collection meta
    means.f64     -- float64, shape (n_windows, n)
    stds.f64      -- float64, shape (n_windows, n)
    pairs.f64     -- float64, shape (n_windows, P)  (packed upper triangles)
    sizes.i64     -- int64,   shape (n_windows,)   (0 marks an unwritten slot)

Each symmetric pair matrix is stored once, as its packed upper triangle
(:mod:`repro.core.packing`) — the paper's one statistic per pair. Reads are
served straight from read-only ``numpy.memmap`` views: no SQL, no blob
copies, no per-record deserialization — the OS page cache is the read
buffer, and a query touches exactly the bytes it consumes. The dedicated
:class:`~repro.engine.providers.MmapProvider` slices the packed rows directly
into the Lemma 1 kernels, which reduce on packed rows and unpack each answer
once; :class:`MmapStore` also implements the full
:class:`~repro.storage.base.SketchStore` contract (unpacking ``pairs`` per
record) so every generic code path (``save_sketch``, ``load_sketch``,
``tsubasa convert``) runs unchanged.

Layout version 2 introduced the packed tables. Version-1 stores (full
``n x n`` tables) are refused at open; rebuild them from raw data with
``tsubasa sketch ... --store-backend mmap --prefix``, or from a SQLite copy
with ``tsubasa convert``.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.packing import pack_symmetric, packed_size, unpack_symmetric
from repro.exceptions import StorageError
from repro.storage.base import (
    SketchStore,
    StoreMetadata,
    WindowRecord,
    require_symmetric_pairs,
)

if TYPE_CHECKING:
    from repro.core.prefix import PrefixAggregates

__all__ = ["MmapStore", "is_mmap_store"]

_FORMAT_VERSION = 2
_META_FILE = "meta.json"
_ARRAY_FILES = {
    "means": "means.f64",
    "stds": "stds.f64",
    "pairs": "pairs.f64",
    "sizes": "sizes.i64",
}
#: Optional prefix-aggregate tables (see :mod:`repro.core.prefix`): row ``k``
#: holds cumulative offset-centered Lemma 1 moments over windows ``[0, k)``,
#: so a contiguous range query is two row reads and a subtraction. ``rows``
#: in the sidecar's ``prefix`` entry counts the committed rows; everything
#: past it is stale or unwritten.
_PREFIX_FILES = {
    "prefix_offsets": "prefix_offsets.f64",
    "prefix_count": "prefix_count.f64",
    "prefix_first": "prefix_first.f64",
    "prefix_second": "prefix_second.f64",
    "prefix_cross": "prefix_cross.f64",
}


def is_mmap_store(path: str | Path) -> bool:
    """Whether ``path`` looks like an :class:`MmapStore` directory."""
    return (Path(path) / _META_FILE).is_file()


class MmapStore(SketchStore):
    """Sketch store over contiguous memory-mapped arrays.

    Args:
        path: Store directory; created (with parents) unless opened
            read-only.
        mode: ``"r+"`` (default) opens for reading and writing, creating the
            directory if needed; ``"r"`` opens an existing store read-only —
            the mode parallel query workers use to re-map a shared store.

    The number of series is fixed by the first metadata or window write and
    enforced thereafter. Window slots are committed sizes-last, so a record
    with ``sizes[j] == 0`` (the unwritten sentinel; real windows are never
    empty) is reported missing rather than returned half-written.

    **Durability and concurrent readers.** Every commit (a ``write_windows``
    batch or a metadata write) runs behind an fsync barrier: the touched
    data pages are msync'ed and the JSON sidecar is replaced atomically
    (write to a temp file, fsync, rename, fsync the directory). A
    monotonically increasing *generation counter* in ``meta.json`` brackets
    each batch seqlock-style: it is bumped to an **odd** value before the
    first data byte is written and back to **even** once the batch (and its
    sizes) are durable. A reader in another process detects a mid-write
    store by sampling :meth:`read_generation` around its reads — an odd
    sample means a write is in progress, and a changed sample means a
    writer overlapped the read (either way the read may be torn and should
    be retried)::

        g0 = store.read_generation()
        records = store.read_windows(indices)
        if g0 % 2 == 1 or store.read_generation() != g0:
            ...  # concurrent write; retry
    """

    def __init__(self, path: str | Path, mode: str = "r+") -> None:
        if mode not in ("r", "r+"):
            raise StorageError(f"mode must be 'r' or 'r+', got {mode!r}")
        self._dir = Path(path)
        self._mode = mode
        # Pathlib arithmetic is a measurable share of a cold open; build
        # every file path exactly once.
        self._meta_path = self._dir / _META_FILE
        self._files = {
            name: self._dir / filename for name, filename in _ARRAY_FILES.items()
        }
        self._prefix_files = {
            name: self._dir / filename for name, filename in _PREFIX_FILES.items()
        }
        self._n: int | None = None
        self._generation = 0
        self._prefix_rows = 0
        self._collection: StoreMetadata | None = None
        self._read_maps: dict[str, np.ndarray] | None = None
        self._write_maps: dict[str, np.ndarray] | None = None
        has_meta = self._meta_path.is_file()
        if mode == "r":
            if not has_meta:
                raise StorageError(
                    f"{self._dir} is not an mmap sketch store (no {_META_FILE})"
                )
        else:
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageError(
                    f"cannot create mmap store directory {self._dir}: {exc}"
                ) from exc
        if has_meta:
            self._load_meta()

    # -- sidecar metadata ----------------------------------------------------

    def _load_meta(self) -> None:
        try:
            payload = json.loads(self._meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read mmap store metadata in {self._dir}: {exc}"
            ) from exc
        if payload.get("version") == 1:
            raise StorageError(
                f"{self._dir} is a version-1 mmap store (full n x n pair "
                f"tables); this release reads only version {_FORMAT_VERSION} "
                "(packed upper triangles) and keeps no version-1 reader. "
                "Rebuild it from raw data with `tsubasa sketch --data ... "
                "--store-backend mmap --prefix`, or from a SQLite copy of the "
                "sketch with `tsubasa convert --src COPY.db --dst NEW_DIR "
                "--dst-backend mmap --prefix`"
            )
        if payload.get("version") != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported mmap store version {payload.get('version')!r} "
                f"in {self._dir} (expected {_FORMAT_VERSION})"
            )
        self._n = int(payload["n_series"]) if payload.get("n_series") else None
        # Stores written before the generation counter existed read as 0.
        self._generation = int(payload.get("generation", 0))
        # Stores without prefix tables (or written before they existed) read
        # as 0 committed prefix rows.
        self._prefix_rows = int((payload.get("prefix") or {}).get("rows", 0))
        collection = payload.get("collection")
        if collection is not None:
            self._collection = StoreMetadata(
                names=tuple(collection["names"]),
                window_size=int(collection["window_size"]),
                kind=collection["kind"],
                n_coeffs=int(collection["n_coeffs"]),
            )

    def _save_meta(self) -> None:
        collection = None
        if self._collection is not None:
            collection = {
                "names": list(self._collection.names),
                "window_size": self._collection.window_size,
                "kind": self._collection.kind,
                "n_coeffs": self._collection.n_coeffs,
            }
        payload = {
            "version": _FORMAT_VERSION,
            "n_series": self._n,
            "generation": self._generation,
            "prefix": {"rows": self._prefix_rows},
            "collection": collection,
        }
        # Atomic replace behind an fsync barrier: a reader (or a crash
        # recovery) sees either the old sidecar or the new one, never a
        # truncated mix, and the rename is durable once the directory entry
        # is synced.
        tmp_path = self._meta_path.with_suffix(".json.tmp")
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, (json.dumps(payload, indent=2) + "\n").encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self._meta_path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Flush the store directory's entries (rename/truncate durability)."""
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms without directory fds; best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _sync_meta(self) -> None:
        """Fold the on-disk sidecar into this handle before rewriting it.

        A second writer handle (or another process) may have committed
        since this handle loaded its sidecar. Every sidecar rewrite saves
        this handle's full in-memory view, so a stale handle would both
        *regress* the published generation (masking commits from readers)
        and clobber collection metadata another handle wrote. Reloading
        and merging — newest generation wins, this handle's collection
        wins only where it has one — keeps sequential use of multiple
        handles safe. (Truly simultaneous writers remain out of scope:
        the store is single-writer by design.)
        """
        if not self._meta_path.is_file():
            return  # first-ever write; nothing on disk to fold in
        mine_n = self._n
        mine_collection = self._collection
        mine_generation = self._generation
        mine_prefix_rows = self._prefix_rows
        try:
            self._load_meta()
        except StorageError:
            # Unreadable sidecar: keep this handle's view (the rewrite is
            # the recovery).
            self._n = mine_n
            self._collection = mine_collection
            self._generation = mine_generation
            self._prefix_rows = mine_prefix_rows
            return
        self._generation = max(self._generation, mine_generation)
        if mine_collection is not None:
            self._collection = mine_collection
        if mine_n is not None:
            if self._n is not None and self._n != mine_n:
                raise StorageError(
                    f"store {self._dir} holds {self._n}-series records, "
                    f"this handle was writing {mine_n}"
                )
            self._n = mine_n

    def _begin_commit(self, prefix_rows_cap: int | None = None) -> None:
        """Open the seqlock: advance the generation to the next odd value.

        Published (fsync'ed) *before* any record byte is written, so a
        concurrent reader sampling an odd generation knows the arrays may
        be torn mid-overwrite — the sizes-last sentinel only protects
        never-written slots, not rewrites of existing records.

        The parity is computed, not accumulated: if an earlier commit
        failed or crashed between begin and finish (leaving an odd value at
        rest — correctly flagging possibly-torn data), the next commit
        still opens odd and closes even instead of inverting the protocol.

        Args:
            prefix_rows_cap: When the commit is about to (over)write window
                records at indices ``>= prefix_rows_cap - 1``, prefix rows
                past the cap describe sums over records that are changing —
                truncate them *in the opening sidecar write*, so even a
                crash mid-batch never leaves stale prefix rows published
                over rewritten records.
        """
        self._sync_meta()
        if prefix_rows_cap is not None and self._prefix_rows > prefix_rows_cap:
            self._prefix_rows = prefix_rows_cap
        self._generation += 1 + (self._generation % 2)
        self._save_meta()

    def _finish_commit(self) -> None:
        """Close the seqlock: advance the generation to the next even value.

        Called after the batch's data and sizes pages are msync'ed; the
        sidecar replace (itself fsync'ed) publishes the new generation, so
        an even ``generation`` only ever advances past fully durable data.
        """
        self._generation += 2 - (self._generation % 2)
        self._save_meta()

    def _require_writable(self) -> None:
        if self._mode == "r":
            raise StorageError(f"mmap store {self._dir} is open read-only")

    def _set_n_series(self, n: int) -> None:
        if self._n is None:
            # Another handle may have fixed the series count (and advanced
            # the generation) since this one opened; fold that in rather
            # than publishing a stale sidecar.
            self._sync_meta()
        if self._n is None:
            self._n = int(n)
            self._save_meta()
        elif self._n != n:
            raise StorageError(
                f"store {self._dir} holds {self._n}-series records, got {n}"
            )

    # -- array files ---------------------------------------------------------

    @property
    def path(self) -> str:
        """Store directory path (workers re-mmap through it)."""
        return str(self._dir)

    @property
    def n_series(self) -> int | None:
        """Number of series per record, or ``None`` before the first write."""
        return self._n

    @property
    def generation(self) -> int:
        """Commit counter as of this handle's last load or write.

        A writer's own handle tracks its commits; a *reader* polling for
        another process's writes should use :meth:`read_generation`, which
        re-reads the sidecar from disk.
        """
        return self._generation

    def read_generation(self) -> int:
        """Re-read the commit counter from the on-disk sidecar.

        Sampling this before and after a batch of reads detects a
        concurrent writer: an **odd** value means a ``write_windows`` batch
        is in progress right now, and unequal samples mean a commit landed
        in between — either way the read may be torn and should be retried
        (see the class docstring for the pattern). Stores written before
        the counter existed report 0.
        """
        try:
            payload = json.loads(self._meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read mmap store metadata in {self._dir}: {exc}"
            ) from exc
        return int(payload.get("generation", 0))

    def _capacity(self) -> int:
        try:
            return self._files["sizes"].stat().st_size // 8
        except OSError:
            return 0

    def _shapes(self, capacity: int) -> dict[str, tuple[int, ...]]:
        assert self._n is not None
        n = self._n
        return {
            "means": (capacity, n),
            "stds": (capacity, n),
            "pairs": (capacity, packed_size(n)),
            "sizes": (capacity,),
        }

    def _dtype(self, name: str) -> str:
        return "<i8" if name == "sizes" else "<f8"

    def _drop_maps(self) -> None:
        # Deleting the memmap objects flushes dirty pages and releases the
        # mappings, so the files can be re-truncated and re-mapped.
        self._read_maps = None
        self._write_maps = None

    def _open_maps(self, mode: str) -> dict[str, np.ndarray]:
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        shapes = self._shapes(capacity)
        maps: dict[str, np.ndarray] = {}
        for name, file_path in self._files.items():
            expected = 8 * int(np.prod(shapes[name]))
            try:
                size = file_path.stat().st_size
            except OSError:
                size = -1
            if size != expected:
                raise StorageError(
                    f"mmap store array {file_path} is missing or has the "
                    f"wrong size (expected {expected} bytes)"
                )
            if mode == "r":
                # Raw mmap + frombuffer instead of np.memmap: ~5x cheaper to
                # construct, which is most of a cold query's latency budget.
                # The arrays are read-only views over the mapping (the mmap
                # object stays alive through .base).
                fd = os.open(file_path, os.O_RDONLY)
                try:
                    buf = mmap.mmap(fd, expected, access=mmap.ACCESS_READ)
                finally:
                    os.close(fd)
                maps[name] = np.frombuffer(buf, dtype=self._dtype(name)).reshape(
                    shapes[name]
                )
            else:
                maps[name] = np.memmap(
                    file_path, dtype=self._dtype(name), mode=mode,
                    shape=shapes[name],
                )
        return maps

    def _stale(self, maps: dict[str, np.ndarray] | None) -> bool:
        """Whether cached maps no longer cover the files' current capacity.

        Another handle (or process) growing the store ftruncates the array
        files; mappings made before that only cover the old length, so
        indexing a newly appended record through them would fail even
        though the fresh capacity check passed. Re-stat and remap instead
        — outstanding record views stay valid, they keep the old mapping
        alive through their ``.base``.
        """
        return maps is not None and maps["sizes"].shape[0] != self._capacity()

    def _writable(self) -> dict[str, np.ndarray]:
        if self._write_maps is None or self._stale(self._write_maps):
            self._write_maps = None
            self._write_maps = self._open_maps("r+")
        return self._write_maps

    def _readable(self) -> dict[str, np.ndarray]:
        if self._read_maps is None or self._stale(self._read_maps):
            self._read_maps = None
            self._read_maps = self._open_maps("r")
        return self._read_maps

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The store's raw arrays as read-only memmap views.

        Returns:
            ``(means, stds, pairs, sizes)`` of shapes ``(nw, n)``,
            ``(nw, n)``, ``(nw, P)``, ``(nw,)`` — the zero-copy substrate
            :class:`~repro.engine.providers.MmapProvider` slices from.
            ``pairs`` holds each window's packed upper triangle
            (:func:`~repro.core.packing.packed_index`).
        """
        maps = self._readable()
        return maps["means"], maps["stds"], maps["pairs"], maps["sizes"]

    # -- prefix-aggregate tables ---------------------------------------------

    @property
    def prefix_rows(self) -> int:
        """Committed prefix-table rows (0 = no prefix tables).

        ``rows`` valid rows cover basic windows ``[0, rows - 1)``; a store
        needs ``rows >= 2`` before any range can be answered from the
        tables.
        """
        return self._prefix_rows

    def _prefix_shapes(self, capacity: int) -> dict[str, tuple[int, ...]]:
        assert self._n is not None
        n = self._n
        return {
            "prefix_offsets": (n,),
            "prefix_count": (capacity + 1,),
            "prefix_first": (capacity + 1, n),
            "prefix_second": (capacity + 1, n),
            "prefix_cross": (capacity + 1, packed_size(n)),
        }

    def build_prefix(self, chunk_windows: int = 256) -> int:
        """Build — or incrementally extend — the persisted prefix tables.

        Streams the committed window records (the contiguous run from
        window 0) into cumulative offset-centered Lemma 1 aggregates
        (:mod:`repro.core.prefix`), picking up from the last committed
        prefix row, so re-running after an append only processes the new
        windows. The whole write runs behind the store's fsync/generation
        barrier like any record batch. The per-series centering offsets are
        fixed by the first build and reused by every extension.

        Args:
            chunk_windows: Window records folded per streaming step.

        Returns:
            The number of basic windows the tables now cover.
        """
        from repro.core.prefix import PrefixAggregates

        self._require_writable()
        if chunk_windows <= 0:
            raise StorageError("chunk_windows must be positive")
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        maps = self._readable()
        sizes = maps["sizes"]
        # The tables cover the contiguous committed run from window 0 —
        # a hole (sizes == 0) ends what any prefix row may aggregate.
        holes = np.nonzero(np.asarray(sizes) == 0)[0]
        committed = int(holes[0]) if holes.size else int(sizes.size)
        if committed == 0:
            raise StorageError(
                f"mmap store {self._dir} holds no committed window records"
            )
        self._sync_meta()
        if self._prefix_rows >= committed + 1:
            return committed  # already covers every committed window
        self._begin_commit()
        shapes = self._prefix_shapes(capacity)
        for name, file_path in self._prefix_files.items():
            # ftruncate grows zero-filled, preserving committed rows; the
            # fsync makes the new length durable before rows are written.
            fd = os.open(file_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                os.ftruncate(fd, 8 * int(np.prod(shapes[name], dtype=np.int64)))
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_dir()
        tables = {
            name: np.memmap(
                file_path, dtype="<f8", mode="r+", shape=shapes[name]
            )
            for name, file_path in self._prefix_files.items()
        }
        rows = self._prefix_rows
        if rows == 0:
            # First build fixes the centering offsets: the weighted grand
            # mean of the committed windows (exact for any choice; this one
            # minimizes cancellation for stationary series). Row 0 is the
            # zero row — already zero pages from the truncate.
            weights = np.asarray(sizes[:committed], dtype=np.float64)
            tables["prefix_offsets"][:] = (
                np.asarray(maps["means"][:committed]).T @ weights
            ) / float(weights.sum())
            rows = 1
        aggregates = PrefixAggregates(
            offsets=np.asarray(tables["prefix_offsets"]),
            count=tables["prefix_count"],
            first=tables["prefix_first"],
            second=tables["prefix_second"],
            cross=tables["prefix_cross"],
            rows=rows,
        )
        for start in range(rows - 1, committed, chunk_windows):
            stop = min(start + chunk_windows, committed)
            aggregates.extend(
                np.asarray(maps["means"][start:stop]).T,
                np.asarray(maps["stds"][start:stop]).T,
                maps["pairs"][start:stop],
                np.asarray(sizes[start:stop], dtype=np.float64),
            )
        tables["prefix_offsets"].flush()
        for name in (
            "prefix_count", "prefix_first", "prefix_second", "prefix_cross"
        ):
            self._flush_records(tables[name], max(rows - 1, 0), aggregates.rows)
        del aggregates, tables
        self._prefix_rows = committed + 1
        self._finish_commit()
        return committed

    def read_prefix(self) -> "PrefixAggregates | None":
        """The committed prefix tables as read-only zero-copy views.

        Returns:
            A :class:`~repro.core.prefix.PrefixAggregates` whose arrays are
            read-only mappings of the ``prefix_*`` files (a range query
            touches only the pages of the two rows it reads), or ``None``
            when the store has no usable prefix tables (``prefix_rows <
            2``).

        Raises:
            StorageError: When the sidecar advertises prefix rows but the
                table files are missing or shorter than the committed rows.
        """
        from repro.core.prefix import PrefixAggregates

        rows = self._prefix_rows
        if rows < 2 or self._n is None:
            return None
        n = self._n
        width = packed_size(n)
        flats: dict[str, np.ndarray] = {}
        for name, file_path in self._prefix_files.items():
            try:
                size = file_path.stat().st_size
            except OSError:
                size = 0
            if size <= 0 or size % 8:
                raise StorageError(
                    f"prefix table {file_path} is missing or truncated "
                    f"({rows} rows are committed)"
                )
            fd = os.open(file_path, os.O_RDONLY)
            try:
                buf = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
            flats[name] = np.frombuffer(buf, dtype="<f8")
        offsets = flats["prefix_offsets"]
        first = flats["prefix_first"]
        second = flats["prefix_second"]
        cross = flats["prefix_cross"]
        if (
            offsets.size != n
            or first.size % n
            or second.size % n
            or cross.size % width
        ):
            raise StorageError(
                f"prefix tables in {self._dir} do not match {n} series"
            )
        aggregates_rows = min(
            flats["prefix_count"].size,
            first.size // n,
            second.size // n,
            cross.size // width,
        )
        if aggregates_rows < rows:
            raise StorageError(
                f"prefix tables in {self._dir} hold {aggregates_rows} rows, "
                f"but {rows} are committed"
            )
        # Trim every table to the shortest file's row count so the
        # dataclass's shape validation holds even when a capacity-growing
        # append resized some files before a rebuild.
        return PrefixAggregates(
            offsets=offsets,
            count=flats["prefix_count"][:aggregates_rows],
            first=first.reshape(-1, n)[:aggregates_rows],
            second=second.reshape(-1, n)[:aggregates_rows],
            cross=cross.reshape(-1, width)[:aggregates_rows],
            rows=rows,
        )

    def trim(self) -> int:
        """Compact the store: drop trailing unwritten (or stale) capacity.

        Stores written out of order over-allocate: ``_ensure_capacity``
        grows the array files to the *highest* index ever written, so a
        batch landing at a large index leaves every file sized for slots
        that may never be filled (and, after such a batch, oversized
        ``prefix_*`` tables). ``trim`` truncates all of them back to the
        last committed record, running behind the same fsync/generation
        barrier as any record batch, so concurrent readers observe either
        the old capacity or the new one — never a half-truncated store.

        Interior holes (unwritten slots *below* the last committed record)
        are preserved: window indices are semantic, and renumbering them
        would change what every query means. Committed prefix rows always
        cover a contiguous run from window 0, so they survive unchanged.

        Returns:
            The number of bytes reclaimed (0 when the store is already
            compact).

        Raises:
            StorageError: On a read-only handle or a store with no record
                arrays.
        """
        self._require_writable()
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        sizes = np.asarray(self._readable()["sizes"])
        written = np.nonzero(sizes)[0]
        committed = int(written[-1]) + 1 if written.size else 0
        has_prefix_files = any(
            file_path.exists() for file_path in self._prefix_files.values()
        )
        before = self.size_bytes()
        expected = {
            name: 8 * int(np.prod(shape, dtype=np.int64))
            for name, shape in self._shapes(capacity).items()
        }
        if has_prefix_files:
            for name, shape in self._prefix_shapes(capacity).items():
                expected[name] = 8 * int(np.prod(shape, dtype=np.int64))
        oversized = any(
            file_path.exists() and file_path.stat().st_size > expected[name]
            for name, file_path in (
                *self._files.items(),
                *(self._prefix_files.items() if has_prefix_files else ()),
            )
        )
        if committed == capacity and not oversized:
            return 0
        self._begin_commit()
        self._drop_maps()
        shapes = dict(self._shapes(committed))
        if has_prefix_files:
            # Prefix tables are sized capacity+1 rows; committed rows (a
            # prefix of the committed run) always fit the trimmed size.
            shapes.update(self._prefix_shapes(committed))
        targets = dict(self._files)
        if has_prefix_files:
            targets.update(self._prefix_files)
        for name, file_path in targets.items():
            if name in self._prefix_files and not file_path.exists():
                continue
            fd = os.open(file_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                os.ftruncate(
                    fd, 8 * int(np.prod(shapes[name], dtype=np.int64))
                )
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_dir()
        self._finish_commit()
        return before - self.size_bytes()

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._capacity()
        if needed <= capacity:
            return
        self._drop_maps()
        shapes = self._shapes(needed)
        for name, file_path in self._files.items():
            # Extending with truncate leaves the new (unwritten) slots as
            # zero pages — exactly the sizes sentinel for "missing". The
            # fsync makes the new length durable before any record data is
            # written into the extension.
            fd = os.open(file_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                os.ftruncate(fd, 8 * int(np.prod(shapes[name])))
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_dir()

    # -- SketchStore contract ------------------------------------------------

    def write_metadata(self, metadata: StoreMetadata) -> None:
        self._require_writable()
        self._set_n_series(len(metadata.names))
        self._collection = metadata
        # The sidecar replace is atomic, so no odd intermediate state is
        # needed — advance by a whole commit, preserving parity: if an
        # interrupted batch left the store flagged odd (possibly torn
        # records), only a *completed* record commit may publish even again.
        self._sync_meta()
        self._generation += 2
        self._save_meta()

    def read_metadata(self) -> StoreMetadata:
        if self._collection is None:
            raise StorageError(f"no metadata in mmap store {self._dir}")
        return self._collection

    def write_windows(self, records: list[WindowRecord]) -> None:
        self._require_writable()
        if not records:
            return
        for record in records:
            means = np.asarray(record.means, dtype=np.float64)
            if means.ndim != 1:
                raise StorageError(
                    f"window record means must be 1-D, got shape {means.shape}"
                )
            self._set_n_series(means.size)
            n = self._n
            if np.asarray(record.stds).shape != (n,):
                raise StorageError(
                    f"window record {record.index} stds shape "
                    f"{np.asarray(record.stds).shape} != ({n},)"
                )
            if np.asarray(record.pairs).shape != (n, n):
                raise StorageError(
                    f"window record {record.index} pairs shape "
                    f"{np.asarray(record.pairs).shape} != ({n}, {n})"
                )
            require_symmetric_pairs(record)
            if record.index < 0:
                raise StorageError(f"negative window index {record.index}")
            if record.size <= 0:
                raise StorageError(
                    f"window record {record.index} has non-positive size "
                    f"{record.size}"
                )
        lo = min(record.index for record in records)
        hi = max(record.index for record in records) + 1
        # Prefix rows past lo+1 aggregate records this batch is rewriting;
        # truncating them inside the opening commit keeps readers from ever
        # combining stale cumulative sums with the new records (regression:
        # append/overwrite after prefix materialization). Pure appends land
        # at lo >= old count, so committed rows (<= count + 1) survive and
        # build_prefix() later extends from the last committed row.
        self._begin_commit(prefix_rows_cap=lo + 1)
        self._ensure_capacity(hi)
        maps = self._writable()
        for record in records:
            j = record.index
            maps["means"][j] = record.means
            maps["stds"][j] = record.stds
            maps["pairs"][j] = pack_symmetric(record.pairs)
        # Commit sizes last, behind an msync barrier: the data pages reach
        # the file before any nonzero size does, so a crash — process or
        # system — leaves a half-written record with sizes[j] == 0, which
        # readers treat as missing rather than serving partial data.
        for name in ("means", "stds", "pairs"):
            self._flush_records(maps[name], lo, hi)
        for record in records:
            maps["sizes"][record.index] = record.size
        self._flush_records(maps["sizes"], lo, hi)
        # Publish the commit: bump the generation back to even behind its
        # own fsync barrier so concurrent readers can detect both the
        # in-progress window (odd) and the completed change (advanced).
        self._finish_commit()

    @staticmethod
    def _flush_records(mem: np.ndarray, lo: int, hi: int) -> None:
        """msync only the pages covering records ``[lo, hi)``.

        ``np.memmap.flush()`` syncs the whole mapping, which turns batched
        ingestion into quadratic writeback (every batch re-syncs the full
        file). Flushing the touched byte range keeps each batch's cost
        proportional to the batch.
        """
        raw = getattr(mem, "_mmap", None)
        if raw is None:  # not a memmap-backed array; nothing to sync
            return
        record_bytes = mem.itemsize * int(np.prod(mem.shape[1:], dtype=np.int64))
        page = mmap.PAGESIZE
        start = (lo * record_bytes // page) * page
        stop = min(hi * record_bytes, mem.nbytes)
        if stop > start:
            raw.flush(start, stop - start)

    def read_windows(self, indices: list[int]) -> list[WindowRecord]:
        """Records of ``indices``, in order.

        ``means`` and ``stds`` are read-only views over the mapping;
        ``pairs`` is a fresh ``(n, n)`` matrix unpacked from the stored
        upper triangle (the zero-copy packed rows are :meth:`arrays`).
        """
        capacity = self._capacity()
        if capacity == 0:
            raise StorageError(
                f"window records missing from store: {list(indices)}"
            )
        maps = self._readable()
        sizes = maps["sizes"]
        n = maps["means"].shape[1]
        records: list[WindowRecord] = []
        for index in indices:
            i = int(index)
            if not 0 <= i < capacity or sizes[i] == 0:
                raise StorageError(f"window record {i} missing from store")
            records.append(
                WindowRecord(
                    index=i,
                    means=maps["means"][i],
                    stds=maps["stds"][i],
                    pairs=unpack_symmetric(maps["pairs"][i], n),
                    size=int(sizes[i]),
                )
            )
        return records

    def read_windows_consistent(
        self, indices: list[int], attempts: int = 8, backoff: float = 0.005
    ) -> list[WindowRecord]:
        """Seqlock-validated :meth:`read_windows` for concurrent writers.

        Materializes (copies) the requested records between two
        :meth:`read_generation` samples and retries while a commit is in
        progress (odd generation) or landed mid-read (samples differ).
        The copies matter: plain ``read_windows`` returns ``means`` and
        ``stds`` as zero-copy mmap views, which stay live — and tearable —
        after validation (``pairs`` is already unpacked into a fresh array).

        Args:
            indices: Window indices to read.
            attempts: Read attempts before giving up (a writer that
                commits continuously can starve readers; bound the wait).
            backoff: Seconds to sleep between attempts.

        Raises:
            StorageError: When a record is missing, or no consistent
                snapshot landed within ``attempts`` tries.
        """
        import time as _time

        if attempts < 1:
            raise StorageError("read_windows_consistent needs attempts >= 1")
        for attempt in range(attempts):
            before = self.read_generation()
            if before % 2 == 1:  # a commit is in flight right now
                _time.sleep(backoff)
                continue
            try:
                records = [
                    WindowRecord(
                        index=record.index,
                        means=np.array(record.means, copy=True),
                        stds=np.array(record.stds, copy=True),
                        pairs=record.pairs,
                        size=record.size,
                    )
                    for record in self.read_windows(indices)
                ]
            except StorageError:
                # The store may be mid-grow (files being swapped); only
                # trust the error once a quiet generation confirms it.
                if self.read_generation() == before:
                    raise
                _time.sleep(backoff)
                continue
            if self.read_generation() == before:
                return records
            _time.sleep(backoff)
        raise StorageError(
            f"no consistent read of windows {list(indices)} within "
            f"{attempts} attempts; a writer is committing continuously"
        )

    def window_count(self) -> int:
        if self._capacity() == 0 or self._n is None:
            return 0
        return int(np.count_nonzero(self._readable()["sizes"]))

    def size_bytes(self) -> int:
        total = 0
        for file_path in (
            self._meta_path, *self._files.values(), *self._prefix_files.values()
        ):
            if file_path.exists():
                total += file_path.stat().st_size
        return total

    def close(self) -> None:
        self._drop_maps()
