"""Lemma 1: exact Pearson correlation from basic-window statistics.

Given per-window means, population standard deviations, sizes, and per-pair
per-window correlations (or covariances), the exact Pearson correlation over
the concatenation of the windows is::

    Corr(x, y) = sum_j B_j * (sigma_xj * sigma_yj * c_j + delta_xj * delta_yj)
                 / sqrt(sum_i B_i * (sigma_xi^2 + delta_xi^2))
                 / sqrt(sum_i B_i * (sigma_yi^2 + delta_yi^2))

with ``delta_xj = mean_xj - grand_mean(x)``. This is the pooled
variance/covariance decomposition; the numerator term
``sigma_xj * sigma_yj * c_j`` is exactly the per-window covariance.

Note on the grand mean: the paper prints ``delta_xi = x_i - (sum_k x_k)/ns``
(the *unweighted* mean of window means). That equals the true query-window
mean only when all windows have equal size. Since Lemma 1 explicitly covers
variable window sizes (that is what enables arbitrary query windows), we use
the *weighted* grand mean ``sum_k B_k * mean_k / sum_k B_k``, which is exact
in every case and identical to the paper's expression for equal sizes.
DESIGN.md records this correction.

This module is the **single** Lemma 1 implementation in the code base: every
engine (historical, real-time seeding, pruning anchor rows, the parallel
executor's row blocks, store-backed providers) funnels through the kernels
below, which all share one normalization convention via
:func:`pooled_deltas_scales` — the pooled second moment is kept *undivided*
(``sum_i B_i * (sigma_i^2 + delta_i^2)``) so numerator and denominator carry
the same ``B`` weighting and no ``total``/``sqrt(total)`` rescaling pair is
needed. Earlier revisions had three hand-written copies of this math with
subtly different normalizations (divided vs undivided pooled variance); a
regression test pins all kernels against the raw-data baseline.

Public kernels:

* :func:`combine_pair` / :func:`combine_pair_arrays` — one pair, scalar.
* :func:`combine_row` — one anchor series against all others (Algorithm 5's
  ``Computecorr`` primitive).
* :func:`combine_rows` — a block of rows (the parallel executor's unit).
* :func:`combine_matrix` — all pairs at once.
* :func:`combine_matrix_streaming` — all pairs with the covariance tensor
  consumed chunk-by-chunk, so a disk-backed query never holds the full
  ``(ns, n, n)`` tensor in memory.

All of these cost ``O(ns)`` in the number of selected windows — they read
and reduce every selected record. For *contiguous* window ranges (every
aligned query), :mod:`repro.core.prefix` answers the same combination in
``O(n^2)`` independent of ``ns`` from precomputed prefix-aggregate tables;
the kernels here remain the general path (fragments, arbitrary selections,
row blocks) and the accuracy reference the prefix kernel is fuzz-tested
against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.stats import PairWindowStats, WindowStats
from repro.exceptions import SketchError

__all__ = [
    "check_window_stats",
    "combine_pair",
    "combine_pair_arrays",
    "combine_row",
    "combine_rows",
    "combine_matrix",
    "combine_matrix_chunked",
    "combine_matrix_streaming",
    "pooled_deltas_scales",
    "pooled_mean",
    "pooled_variance",
]


def pooled_mean(means: np.ndarray, sizes: np.ndarray) -> float | np.ndarray:
    """Grand mean of a concatenation of windows from per-window means.

    Args:
        means: Per-window means; last axis indexes windows.
        sizes: Per-window sizes ``B_j``, broadcastable against ``means``.

    Returns:
        The weighted grand mean along the last axis.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    return np.sum(np.asarray(means) * sizes, axis=-1) / np.sum(sizes)

def pooled_variance(
    means: np.ndarray, stds: np.ndarray, sizes: np.ndarray
) -> float | np.ndarray:
    """Population variance of a concatenation of windows (proof of Lemma 1).

    Implements ``sigma^2 = (1/T) * sum_i B_i * (sigma_i^2 + delta_i^2)``.

    Args:
        means: Per-window means; last axis indexes windows.
        stds: Per-window population stds, same shape as ``means``.
        sizes: Per-window sizes, broadcastable along the last axis.

    Returns:
        The pooled population variance along the last axis.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    total = np.sum(sizes)
    grand = np.expand_dims(np.sum(np.asarray(means) * sizes, axis=-1) / total, -1)
    delta = np.asarray(means) - grand
    return np.sum(sizes * (np.asarray(stds) ** 2 + delta**2), axis=-1) / total


def pooled_deltas_scales(
    means: np.ndarray, stds: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The shared normalization of every Lemma 1 kernel.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        sizes: Per-window sizes ``B_j``, shape ``(ns,)`` (float64).

    Returns:
        ``(delta, scale)`` where ``delta`` (shape ``(n, ns)``) holds the
        per-window deviations from the weighted grand mean and ``scale``
        (shape ``(n,)``) is ``sqrt(sum_i B_i * (sigma_i^2 + delta_i^2))`` —
        the *undivided* pooled standard-deviation scale. A Lemma 1 numerator
        ``sum_j B_j * (cov_j + delta_x * delta_y)`` divided by
        ``scale_x * scale_y`` is the exact correlation.
    """
    total = float(np.sum(sizes))
    if total <= 0.0:
        raise SketchError("window sizes must sum to a positive total")
    grand = means @ sizes / total  # (n,)
    delta = means - grand[:, None]  # (n, ns)
    pooled = np.sum(sizes * (stds**2 + delta**2), axis=1)  # (n,)
    scale = np.sqrt(np.maximum(pooled, 0.0))
    return delta, scale


def _weighted_cov_sum(sizes: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """``sum_j B_j * covs[j]`` via one BLAS matrix-vector product.

    Equivalent to ``np.einsum("j,jab->ab", sizes, covs)`` but ~2x faster at
    query sizes: for the C-contiguous (or contiguously memory-mapped) chunk
    tensors every provider produces, the reshape is a view and the reduction
    is a single dgemv over the flattened windows. The trailing dimensions
    are flattened explicitly because ``reshape(k, -1)`` cannot infer an axis
    for size-0 inputs (empty chunks, empty row blocks), which einsum
    handled.
    """
    flat = covs.reshape(covs.shape[0], int(np.prod(covs.shape[1:], dtype=np.int64)))
    return (sizes @ flat).reshape(covs.shape[1:])


def check_window_stats(
    means: np.ndarray, stds: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate per-window statistics; return them C-contiguous float64."""
    # Canonical C layout: providers hand these in as C arrays, transposed
    # memmap slices, or fancy-indexed (Fortran-ordered) views, and BLAS
    # accumulates in a layout-dependent order — normalizing here keeps query
    # results bit-identical across backends (tested). The arrays are the
    # small O(n * ns) statistics, never the covariance tensor.
    means = np.ascontiguousarray(means, dtype=np.float64)
    stds = np.ascontiguousarray(stds, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    if means.ndim != 2 or means.shape != stds.shape:
        raise SketchError(f"means/stds shape mismatch: {means.shape} vs {stds.shape}")
    if sizes.shape != (means.shape[1],):
        raise SketchError(f"sizes shape {sizes.shape} != ({means.shape[1]},)")
    if sizes.size == 0:
        raise SketchError("cannot combine an empty window sequence")
    return means, stds, sizes


def combine_pair(
    x_stats: Sequence[WindowStats],
    y_stats: Sequence[WindowStats],
    pair_stats: Sequence[PairWindowStats],
) -> float:
    """Exact Pearson correlation of one pair from per-window sketches.

    This is the literal Lemma 1 computation for a single pair, accepting the
    dataclass form of the sketch. Windows may have different sizes.

    Args:
        x_stats: Per-window stats of series ``x``, in window order.
        y_stats: Per-window stats of series ``y``, aligned with ``x_stats``.
        pair_stats: Per-window pair stats of ``(x, y)``, aligned with both.

    Returns:
        ``Corr(x, y)`` over the concatenated windows; 0.0 when either series
        is constant over the query window (zero variance).
    """
    if not (len(x_stats) == len(y_stats) == len(pair_stats)):
        raise SketchError(
            "per-window stat sequences must have equal length "
            f"({len(x_stats)}, {len(y_stats)}, {len(pair_stats)})"
        )
    if not x_stats:
        raise SketchError("cannot combine an empty window sequence")
    for xs, ys, ps in zip(x_stats, y_stats, pair_stats):
        if not (xs.size == ys.size == ps.size):
            raise SketchError(
                f"window size mismatch across sketches: {xs.size}, {ys.size}, {ps.size}"
            )

    sizes = np.array([s.size for s in x_stats], dtype=np.float64)
    mx = np.array([s.mean for s in x_stats])
    my = np.array([s.mean for s in y_stats])
    sx = np.array([s.std for s in x_stats])
    sy = np.array([s.std for s in y_stats])
    cov = np.array([p.cov for p in pair_stats])

    return combine_pair_arrays(mx, sx, my, sy, cov, sizes)


def combine_pair_arrays(
    means_x: np.ndarray,
    stds_x: np.ndarray,
    means_y: np.ndarray,
    stds_y: np.ndarray,
    covs: np.ndarray,
    sizes: np.ndarray,
) -> float:
    """Array form of :func:`combine_pair` (one pair, ``ns`` windows).

    Args:
        means_x: Per-window means of ``x``, shape ``(ns,)``.
        stds_x: Per-window population stds of ``x``.
        means_y: Per-window means of ``y``.
        stds_y: Per-window population stds of ``y``.
        covs: Per-window covariances ``sigma_xj * sigma_yj * c_j``.
        sizes: Per-window sizes ``B_j``.

    Returns:
        The exact Pearson correlation over the concatenation.
    """
    means = np.stack([np.asarray(means_x), np.asarray(means_y)])
    stds = np.stack([np.asarray(stds_x), np.asarray(stds_y)])
    covs = np.asarray(covs, dtype=np.float64)
    # Row 0 ("x") of each per-window 2x2 covariance matrix is all the row
    # kernel consumes: [var_x, cov_xy].
    cov_rows = np.empty((covs.size, 1, 2))
    cov_rows[:, 0, 0] = np.asarray(stds_x) ** 2
    cov_rows[:, 0, 1] = covs
    block = combine_rows(
        means, stds, cov_rows, sizes, rows=np.array([0], dtype=np.int64)
    )
    return float(block[0, 1])


def combine_rows(
    means: np.ndarray,
    stds: np.ndarray,
    cov_rows: np.ndarray,
    sizes: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Vectorized Lemma 1 for a block of rows of the correlation matrix.

    This is the workhorse kernel: the parallel executor's per-partition unit,
    the pruning path's anchor rows (via :func:`combine_row`), and the full
    matrix (via :func:`combine_matrix`) are all thin wrappers over it.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        cov_rows: This block's rows of every per-window covariance matrix,
            shape ``(ns, len(rows), n)`` — ``cov_rows[j, a, b]`` is the
            window-``j`` covariance of series ``rows[a]`` with series ``b``.
        sizes: Per-window sizes, shape ``(ns,)``.
        rows: Indices of the owned rows, shape ``(m,)``.

    Returns:
        The exact ``(len(rows), n)`` correlation block over the concatenated
        windows. Self-correlation entries ``(a, rows[a])`` are 1.0; entries
        involving a constant series are 0.0.
    """
    means, stds, sizes = check_window_stats(means, stds, sizes)
    rows = np.asarray(rows, dtype=np.int64)
    n, ns = means.shape
    cov_rows = np.asarray(cov_rows, dtype=np.float64)
    if cov_rows.shape != (ns, rows.size, n):
        raise SketchError(
            f"cov_rows shape {cov_rows.shape} incompatible with {ns} windows, "
            f"{rows.size} rows, {n} series"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise SketchError(f"row indices out of range [0, {n}): {rows}")

    delta, scale = pooled_deltas_scales(means, stds, sizes)

    # Numerator: sum_j B_j * (cov_j + delta_xj * delta_yj), block rows only.
    numer = _weighted_cov_sum(sizes, cov_rows)
    numer += (delta[rows] * sizes) @ delta.T
    denom = np.outer(scale[rows], scale)

    block = np.zeros((rows.size, n), dtype=np.float64)
    np.divide(numer, denom, out=block, where=denom > 0.0)
    np.clip(block, -1.0, 1.0, out=block)
    block[np.arange(rows.size), rows] = 1.0
    return block


def combine_row(
    means: np.ndarray,
    stds: np.ndarray,
    cov_row: np.ndarray,
    sizes: np.ndarray,
    row: int,
) -> np.ndarray:
    """Exact correlations of one series against all others (one Lemma 1 row).

    This is the ``Computecorr(L, i)`` primitive of Algorithm 5: the pruning
    path materializes single anchor rows instead of the full matrix.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        cov_row: Row ``row`` of every per-window covariance matrix, shape
            ``(ns, n)``.
        sizes: Per-window sizes, shape ``(ns,)``.
        row: Index of the anchor series.

    Returns:
        Length-``n`` array of exact correlations (entry ``row`` is 1.0).
    """
    cov_row = np.asarray(cov_row, dtype=np.float64)
    block = combine_rows(
        means, stds, cov_row[:, None, :], sizes, rows=np.array([row], dtype=np.int64)
    )
    return block[0]


def combine_matrix(
    means: np.ndarray,
    stds: np.ndarray,
    covs: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Vectorized Lemma 1 for all pairs at once.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        covs: Per-window all-pair covariance matrices, shape ``(ns, n, n)``.
        sizes: Per-window sizes, shape ``(ns,)``.

    Returns:
        The exact ``(n, n)`` Pearson correlation matrix over the concatenated
        windows, with unit diagonal. Rows/columns of constant series are zero
        off-diagonal.
    """
    means, stds, sizes = check_window_stats(means, stds, sizes)
    n, ns = means.shape
    covs = np.asarray(covs, dtype=np.float64)
    if covs.shape != (ns, n, n):
        raise SketchError(
            f"covs shape {covs.shape} incompatible with {ns} windows of {n} series"
        )
    corr = combine_rows(means, stds, covs, sizes, rows=np.arange(n, dtype=np.int64))
    np.fill_diagonal(corr, 1.0)
    return corr


def combine_matrix_chunked(
    chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Lemma 1 all-pairs matrix from one streaming pass over window chunks.

    Identical result to :func:`combine_matrix`, but consumes window-ordered
    ``(means, stds, sizes, covs)`` chunks — shapes ``(n, k)``, ``(n, k)``,
    ``(k,)``, ``(k, n, n)`` — so a backend delivers each window record
    exactly once. The weighted covariance sum ``sum_j B_j * cov_j`` does not
    depend on the grand means, so it is accumulated as chunks stream by;
    only the ``ns``-times-smaller per-series statistics are collected whole
    and folded in at the end. Peak memory is one chunk plus the ``(n, n)``
    accumulator.

    Args:
        chunks: Iterable of ``(means, stds, sizes, covs)`` chunk tuples,
            concatenating in window order to the full query selection.

    Returns:
        The exact ``(n, n)`` Pearson correlation matrix, unit diagonal.
    """
    weighted_cov: np.ndarray | None = None
    means_parts: list[np.ndarray] = []
    stds_parts: list[np.ndarray] = []
    sizes_parts: list[np.ndarray] = []
    n = 0
    for chunk_means, chunk_stds, chunk_sizes, chunk_covs in chunks:
        chunk_means = np.asarray(chunk_means, dtype=np.float64)
        chunk_stds = np.asarray(chunk_stds, dtype=np.float64)
        chunk_sizes = np.asarray(chunk_sizes, dtype=np.float64)
        chunk_covs = np.asarray(chunk_covs, dtype=np.float64)
        if weighted_cov is None:
            n = chunk_means.shape[0]
            weighted_cov = np.zeros((n, n), dtype=np.float64)
        k = chunk_sizes.size
        if chunk_means.shape != (n, k) or chunk_stds.shape != (n, k):
            raise SketchError(
                f"chunk stats shapes {chunk_means.shape}/{chunk_stds.shape} "
                f"incompatible with {k} windows of {n} series"
            )
        if chunk_covs.shape != (k, n, n):
            raise SketchError(
                f"chunk covs shape {chunk_covs.shape} incompatible with "
                f"{k} windows of {n} series"
            )
        weighted_cov += _weighted_cov_sum(chunk_sizes, chunk_covs)
        means_parts.append(chunk_means)
        stds_parts.append(chunk_stds)
        sizes_parts.append(chunk_sizes)
    if weighted_cov is None:
        raise SketchError("cannot combine an empty window sequence")

    means, stds, sizes = check_window_stats(
        np.concatenate(means_parts, axis=1),
        np.concatenate(stds_parts, axis=1),
        np.concatenate(sizes_parts),
    )
    delta, scale = pooled_deltas_scales(means, stds, sizes)
    numer = weighted_cov + (delta * sizes) @ delta.T
    denom = np.outer(scale, scale)
    corr = np.zeros((n, n), dtype=np.float64)
    np.divide(numer, denom, out=corr, where=denom > 0.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def combine_matrix_streaming(
    means: np.ndarray,
    stds: np.ndarray,
    sizes: np.ndarray,
    cov_chunks: Iterable[np.ndarray],
) -> np.ndarray:
    """Lemma 1 all-pairs matrix with the covariance tensor streamed in chunks.

    Convenience form of :func:`combine_matrix_chunked` for callers that hold
    the (small) per-series statistics whole and stream only the ``(ns, n,
    n)`` covariance tensor as window-ordered chunks.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        sizes: Per-window sizes, shape ``(ns,)``.
        cov_chunks: Iterable of covariance chunks, each of shape
            ``(k, n, n)``, concatenating (in window order) to the full
            ``(ns, n, n)`` tensor.

    Returns:
        The exact ``(n, n)`` Pearson correlation matrix, unit diagonal.
    """
    means, stds, sizes = check_window_stats(means, stds, sizes)
    ns = means.shape[1]

    def stat_chunks() -> Iterable[
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ]:
        offset = 0
        for chunk in cov_chunks:
            chunk = np.asarray(chunk, dtype=np.float64)
            k = chunk.shape[0] if chunk.ndim == 3 else -1
            if k < 0 or offset + k > ns:
                raise SketchError(
                    f"covariance chunks cover {offset + max(k, 1)} windows, "
                    f"expected {ns}"
                )
            yield (
                means[:, offset : offset + k],
                stds[:, offset : offset + k],
                sizes[offset : offset + k],
                chunk,
            )
            offset += k
        if offset != ns:
            raise SketchError(
                f"covariance chunks cover {offset} windows, expected {ns}"
            )

    return combine_matrix_chunked(stat_chunks())
