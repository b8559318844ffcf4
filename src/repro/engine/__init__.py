"""Pluggable sketch backends for the TSUBASA query engines."""

from repro.engine.providers import (
    ChunkedBuildProvider,
    InMemoryProvider,
    MmapProvider,
    PrefixProvider,
    SketchProvider,
)

__all__ = [
    "SketchProvider",
    "InMemoryProvider",
    "ChunkedBuildProvider",
    "MmapProvider",
    "PrefixProvider",
]
