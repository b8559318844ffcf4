"""Packed symmetric matrices: each pair stored once, as an upper-triangle row.

Every pairwise statistic of the sketch (per-window covariances, DFT distance
matrices, the prefix tables' cross moments) is symmetric, so its ``n x n``
matrix carries each pair twice. The packed form keeps the upper triangle,
diagonal included, as one row of ``P = n (n + 1) / 2`` values in row-major
triangle order (``np.triu_indices(n)``) — the paper's one-statistic-per-pair
layout. This module is the one place that knows the index maps; stores and
kernels pack and unpack only through it, and query operators enumerate the
distinct pairs (the strict upper triangle) through :func:`pair_index`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.exceptions import SketchError

__all__ = [
    "is_symmetric",
    "pack_symmetric",
    "packed_index",
    "packed_size",
    "pair_index",
    "unpack_symmetric",
]


def packed_size(n: int) -> int:
    """Packed row length ``P = n (n + 1) / 2`` of an ``n x n`` matrix."""
    return n * (n + 1) // 2


@lru_cache(maxsize=64)
def packed_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (cached, read-only) index maps between ``n x n`` and packed rows.

    Returns:
        ``(iu, ju, full_map)``: ``matrix[iu, ju]`` is the packed row of
        ``matrix``, and ``row[full_map]`` is the ``(n, n)`` matrix of a
        packed ``row`` (``full_map[x, y]`` is the packed position of pair
        ``(min(x, y), max(x, y))``).
    """
    iu, ju = np.triu_indices(n)
    full_map = np.empty((n, n), dtype=np.intp)
    positions = np.arange(iu.size, dtype=np.intp)
    full_map[iu, ju] = positions
    full_map[ju, iu] = positions
    for index in (iu, ju, full_map):
        index.setflags(write=False)
    return iu, ju, full_map


@lru_cache(maxsize=64)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cached, read-only) distinct pairs ``x < y`` of ``n`` series.

    Returns:
        ``(rows, cols)`` in row-major strict-upper-triangle order, as
        ``np.triu_indices(n, k=1)`` lists them.
    """
    rows, cols = np.triu_indices(n, k=1)
    for index in (rows, cols):
        index.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=64)
def _flat_upper(n: int) -> np.ndarray:
    """Positions of the packed pairs in a flattened ``n x n`` matrix."""
    iu, ju, _ = packed_index(n)
    flat = iu * n + ju
    flat.setflags(write=False)
    return flat


def pack_symmetric(matrices: np.ndarray) -> np.ndarray:
    """Pack ``(..., n, n)`` symmetric matrices into C-contiguous ``(..., P)`` rows.

    ``matrices[..., iu, ju]`` comes back Fortran-ordered for a stack, and
    BLAS reduces such an operand in a different summation order; ``np.take``
    on the flattened matrices always returns a fresh C-ordered array, so
    every backend feeds the kernels the same layout (and therefore
    bit-identical answers).
    """
    matrices = np.asarray(matrices, dtype=np.float64)
    n = matrices.shape[-1]
    if matrices.ndim < 2 or matrices.shape[-2] != n:
        raise SketchError(
            f"cannot pack non-square matrices of shape {matrices.shape}"
        )
    flat = matrices.reshape(*matrices.shape[:-2], n * n)
    return np.take(flat, _flat_upper(n), axis=-1)


def unpack_symmetric(rows: np.ndarray, n: int) -> np.ndarray:
    """Unpack ``(..., P)`` packed rows into fresh ``(..., n, n)`` matrices."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim < 1 or rows.shape[-1] != packed_size(n):
        raise SketchError(
            f"packed rows of shape {rows.shape} do not hold {n}-series "
            f"matrices ({packed_size(n)} values each)"
        )
    return np.take(rows, packed_index(n)[2], axis=-1)


def is_symmetric(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` equals its transpose exactly (NaN matching NaN).

    Packing keeps only the upper triangle, so a matrix that fails this check
    would lose its lower triangle silently; stores refuse such records.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        return False
    # The NaN-aware comparison costs 3x the plain one; only a mismatch
    # (or a NaN) needs it.
    return np.array_equal(matrix, matrix.T) or np.array_equal(
        matrix, matrix.T, equal_nan=True
    )
