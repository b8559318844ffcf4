"""Sketch persistence: in-memory, SQLite and memory-mapped stores.

The sketch *providers* (:mod:`repro.engine.providers`) are re-exported here
for convenience. A memory-mapped store serves queries zero-copy through
``MmapProvider``; a SQLite store is the interchange and archival format,
loaded whole into an ``InMemoryProvider`` (or converted to mmap with
``tsubasa convert``)::

    from repro.storage import InMemoryProvider, SqliteSketchStore, load_sketch
    from repro import TsubasaHistorical

    with SqliteSketchStore("sketch.db") as store:
        provider = InMemoryProvider(load_sketch(store))
    engine = TsubasaHistorical(provider=provider)
    network = engine.network((8759, 3000), theta=0.75)

(The re-export is lazy to keep the storage ↔ engine import graph acyclic.)
"""

from repro.storage.base import SketchStore, StoreMetadata, WindowRecord
from repro.storage.live import PersistentRealtime
from repro.storage.memory import MemorySketchStore
from repro.storage.mmap_store import MmapStore, is_mmap_store
from repro.storage.serialize import (
    convert_store,
    load_approx_sketch,
    load_sketch,
    save_approx_sketch,
    save_sketch,
)
from repro.storage.sqlite_store import SqliteSketchStore

__all__ = [
    "SketchStore",
    "StoreMetadata",
    "WindowRecord",
    "PersistentRealtime",
    "MemorySketchStore",
    "MmapStore",
    "is_mmap_store",
    "SqliteSketchStore",
    "load_sketch",
    "save_sketch",
    "load_approx_sketch",
    "save_approx_sketch",
    "convert_store",
    "SketchProvider",
    "InMemoryProvider",
    "ChunkedBuildProvider",
    "MmapProvider",
]

_PROVIDER_EXPORTS = frozenset(
    {
        "SketchProvider",
        "InMemoryProvider",
        "ChunkedBuildProvider",
        "MmapProvider",
    }
)


def __getattr__(name: str) -> object:
    if name in _PROVIDER_EXPORTS:
        from repro.engine import providers

        return getattr(providers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
