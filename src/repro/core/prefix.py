"""Prefix-aggregate sketches: Lemma 1 in O(n^2) for contiguous window ranges.

The Lemma 1 combination is a weighted sum over the selected basic windows, so
a direct query costs ``O(ns * n^2)`` — it must read and reduce every selected
window record. But the combination is *associative*, and the grand-mean
terms that appear to couple every window to the query range can be expanded
away::

    sum_j B_j (m_xj - mu_x)(m_yj - mu_y)  =  sum_j B_j m_xj m_yj - T mu_x mu_y

(and likewise ``sum_j B_j (sigma_xj^2 + (m_xj - mu_x)^2) =
sum_j B_j (sigma_xj^2 + m_xj^2) - T mu_x^2`` for the pooled scales), where
``T = sum_j B_j`` and ``mu`` is the range's weighted grand mean. Everything a
query needs therefore reduces to *prefix sums over windows* of four
grand-mean-free aggregates:

* ``B``                           (window sizes),
* ``B * m``                       per series,
* ``B * (sigma^2 + m^2)``         per series,
* ``B * (cov + m_x * m_y)``       per pair.

Precompute the cumulative tables once at sketch-build time and any contiguous
range ``[lo, hi)`` is answered by two row lookups and a subtraction —
``O(n^2)`` work independent of the number of selected windows. The per-pair
table keeps each symmetric pair once, as a packed upper-triangle row
(:mod:`repro.core.packing`); the subtraction runs on packed rows and the
answer is unpacked to ``n x n`` once.

An arbitrary (non-aligned) query window adds at most two partial raw
fragments, a head before ``lo`` and a tail after ``hi``. The kernels take
their raw *points*, the head and tail columns side by side as one ``(n, k)``
block ``X`` (``k <= 2 (B - 1)``), and fold them against the tables' own
offsets: with ``D = X - c``, ``T += k``, ``s1 += sum D``, ``s2 += sum D^2``
and the cross moment ``+= D D^T`` (one symmetric matmul). That is the same
Lemma 1 term a fragment sketch would add, since
``sum (x - c)(y - c) = B (cov + delta_x delta_y)`` with ``delta = m - c``,
but no fragment mean, std or covariance is ever formed — ``O(n^2 k)`` on
top of the two row reads.

Numerical accuracy contract
---------------------------

The expansion trades the direct kernel's numerically benign form for a
classic catastrophic cancellation: ``sum B m^2 - T mu^2`` subtracts two large
nearly-equal numbers when the means dwarf the deviations, and plain running
sums accumulate ``O(ns * eps)`` rounding before the subtraction even happens.
Two measures keep the tables usable at ``ns >= 50k`` (fuzz-tested in
``tests/test_prefix_fuzz.py``):

* **Offset centering** — the tables accumulate *centered* moments
  ``m' = m - c`` with per-series offsets ``c`` fixed at build time (the
  weighted grand mean of the windows present at the first build). Variances
  and covariances are shift-invariant, so the algebra stays exact while the
  accumulated magnitudes shrink from ``m^2`` to the drift of the means
  around ``c`` — for stationary series the cancellation all but disappears.
* **Blocked Kahan summation** — cumulative sums are written in blocks of
  ``_KAHAN_BLOCK`` windows (plain ``np.cumsum`` inside a block, a
  compensated carry across blocks), so the summation error of any prefix row
  is ``O(_KAHAN_BLOCK * eps)``, independent of ``ns``.

The residual error is governed by the conditioning of the subtraction,
``kappa = (sum B (sigma^2 + m'^2)) / pooled``, where the sums run over the
interior windows *and* the centered fragment points: roughly, how far the
query range's mean sits from the build-time offset, measured in
within-range standard deviations. Fragment points far from the offsets (a
level shift) raise both the numerator and the pooled variance, so they do
not by themselves degrade ``kappa``. The documented contract, enforced by
the fuzz suite: for ranges with ``kappa <= ~1e8`` (mean drift up to ~1e4
standard deviations), :func:`combine_matrix_prefix` matches the direct
:func:`~repro.core.lemma1.combine_matrix` over the same segments (interior
windows plus fragment sketches) within :data:`PREFIX_ATOL` on every
correlation entry; typical error on stationary data is below 1e-12.
Ranges whose pooled variance falls below :data:`VARIANCE_GUARD` of the
centered second moment — or below ``_KAHAN_BLOCK * eps`` of the prefix row
magnitude, the rounding already baked into the cumulative tables (short
ranges deep in a long history difference two huge nearly-equal rows) — are
indistinguishable from constant in float64 and are reported as constant
(correlation 0), matching the direct kernel's zero-variance convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lemma1 import check_window_stats
from repro.core.packing import (
    pack_symmetric,
    packed_index,
    packed_size,
    unpack_symmetric,
)
from repro.exceptions import SketchError

__all__ = [
    "PrefixAggregates",
    "build_prefix_aggregates",
    "combine_matrix_prefix",
    "combine_row_prefix",
    "PREFIX_ATOL",
    "VARIANCE_GUARD",
]

#: Documented absolute tolerance of prefix-combined correlations against the
#: direct Lemma 1 kernel (see the module docstring for the conditioning
#: regime it covers; the fuzz suite enforces it).
PREFIX_ATOL = 1e-7

#: Ranges whose pooled variance is below this fraction of the centered second
#: moment are reported as constant: the subtraction's own rounding noise is
#: of that order, so smaller values carry no signal in float64.
VARIANCE_GUARD = 1e-11

#: Windows per plain-cumsum block between compensated carries.
_KAHAN_BLOCK = 512


def _extend_cumsum(table: np.ndarray, rows: int, values: np.ndarray) -> None:
    """Append cumulative sums of ``values`` to ``table`` after row ``rows-1``.

    ``table[rows + i] = table[rows - 1] + sum(values[: i + 1])`` along axis
    0, computed with a blocked Kahan carry: each block of
    :data:`_KAHAN_BLOCK` rows is a plain ``np.cumsum`` (error
    ``O(block * eps)``), and the running total folds block sums in with
    compensated addition, so the error of the carried total does not grow
    with the number of rows.
    """
    total = np.array(table[rows - 1], dtype=np.float64, copy=True)
    comp = np.zeros_like(total)
    pos = rows
    for start in range(0, values.shape[0], _KAHAN_BLOCK):
        chunk = values[start : start + _KAHAN_BLOCK]
        partial = np.cumsum(chunk, axis=0)
        table[pos : pos + chunk.shape[0]] = total + partial
        y = partial[-1] - comp
        carried = total + y
        comp = (carried - total) - y
        total = carried
        pos += chunk.shape[0]


@dataclass
class PrefixAggregates:
    """Cumulative offset-centered Lemma 1 aggregates over the window sequence.

    Row ``k`` holds sums over basic windows ``[0, k)`` of the centered
    quantities (``m' = m - offsets``):

    * ``count[k] = sum B_j``
    * ``first[k, x] = sum B_j m'_xj``
    * ``second[k, x] = sum B_j (sigma_xj^2 + m'_xj^2)``
    * ``cross[k, p] = sum B_j (cov_xyj + m'_xj m'_yj)`` for the pair
      ``(x, y) = (iu[p], ju[p])`` of the packed upper triangle
      (:func:`~repro.core.packing.packed_index`)

    Arrays may be larger than ``rows`` (preallocated capacity, or a mapped
    file sized for the full store); only rows ``[0, rows)`` are valid. Row 0
    is always the zero row, so ``rows = 1`` means "allocated, no windows
    covered yet" and the tables cover windows ``[0, rows - 1)``.

    Instances are either writable (in-memory build, or the store's writer
    memmaps) and extendable via :meth:`extend`, or read-only views over
    persisted tables (:meth:`~repro.storage.mmap_store.MmapStore.read_prefix`).

    Attributes:
        offsets: Per-series centering offsets ``c``, shape ``(n,)``. Fixed
            for the lifetime of the tables — extending must reuse them.
        count: Prefix window-size sums, shape ``(capacity,)``.
        first: Prefix centered first moments, shape ``(capacity, n)``.
        second: Prefix centered second moments, shape ``(capacity, n)``.
        cross: Prefix centered cross moments as packed upper-triangle rows,
            shape ``(capacity, P)`` with ``P = n (n + 1) / 2``.
        rows: Number of valid prefix rows (``0`` = nothing, including no
            zero row).
    """

    offsets: np.ndarray
    count: np.ndarray
    first: np.ndarray
    second: np.ndarray
    cross: np.ndarray
    rows: int

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1:
            raise SketchError(
                f"prefix offsets must be 1-D, got shape {self.offsets.shape}"
            )
        n = self.offsets.shape[0]
        capacity = self.count.shape[0]
        if self.count.ndim != 1:
            raise SketchError(
                f"prefix count table must be 1-D, got shape {self.count.shape}"
            )
        if self.first.shape != (capacity, n) or self.second.shape != (capacity, n):
            raise SketchError(
                f"prefix moment tables {self.first.shape}/{self.second.shape} "
                f"incompatible with capacity {capacity}, {n} series"
            )
        if self.cross.shape != (capacity, packed_size(n)):
            raise SketchError(
                f"prefix cross table {self.cross.shape} incompatible with "
                f"capacity {capacity}, {n} series"
            )
        if not 0 <= self.rows <= capacity:
            raise SketchError(
                f"prefix rows {self.rows} outside [0, {capacity}]"
            )

    @property
    def n_series(self) -> int:
        """Number of series per table row."""
        return int(self.offsets.shape[0])

    @property
    def capacity(self) -> int:
        """Allocated table rows (``n_windows + 1`` for a full build)."""
        return int(self.count.shape[0])

    @property
    def covered(self) -> int:
        """Basic windows the committed rows cover (``rows - 1``, floored at 0)."""
        return max(self.rows - 1, 0)

    @property
    def writable(self) -> bool:
        """Whether the tables can be extended in place."""
        return all(
            a.flags.writeable
            for a in (self.count, self.first, self.second, self.cross)
        )

    @classmethod
    def allocate(cls, offsets: np.ndarray, n_windows: int) -> "PrefixAggregates":
        """Zero-initialized in-memory tables for ``n_windows`` basic windows."""
        offsets = np.asarray(offsets, dtype=np.float64)
        if n_windows <= 0:
            raise SketchError(f"n_windows must be positive, got {n_windows}")
        n = offsets.shape[0]
        capacity = n_windows + 1
        return cls(
            offsets=offsets.copy(),
            count=np.zeros(capacity),
            first=np.zeros((capacity, n)),
            second=np.zeros((capacity, n)),
            cross=np.zeros((capacity, packed_size(n))),
            rows=1,
        )

    def extend(
        self,
        means: np.ndarray,
        stds: np.ndarray,
        covs: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Fold the next windows (in order) into the tables.

        Args:
            means: Per-series means of the appended windows, shape ``(n, k)``.
            stds: Per-series population stds, shape ``(n, k)``.
            covs: Per-window covariance matrices as packed upper-triangle
                rows, shape ``(k, P)``
                (:func:`~repro.core.packing.pack_symmetric`).
            sizes: Per-window sizes, shape ``(k,)``.
        """
        if not self.writable:
            raise SketchError("prefix tables are read-only")
        if self.rows < 1:
            raise SketchError("prefix tables hold no zero row to extend from")
        means, stds, sizes = check_window_stats(means, stds, sizes)
        n, k = means.shape
        if n != self.n_series:
            raise SketchError(
                f"chunk holds {n} series, prefix tables hold {self.n_series}"
            )
        covs = np.asarray(covs, dtype=np.float64)
        if covs.shape != (k, packed_size(n)):
            raise SketchError(
                f"chunk covs shape {covs.shape} incompatible with "
                f"{k} packed windows of {n} series"
            )
        if self.rows + k > self.capacity:
            raise SketchError(
                f"prefix tables hold {self.capacity} rows; cannot extend "
                f"{self.rows} committed rows by {k} windows"
            )
        centered = (means - self.offsets[:, None]).T  # (k, n)
        weights = sizes[:, None]
        iu, ju, _ = packed_index(n)
        rows = self.rows
        _extend_cumsum(self.count, rows, sizes)
        _extend_cumsum(self.first, rows, weights * centered)
        _extend_cumsum(self.second, rows, weights * (stds.T**2 + centered**2))
        _extend_cumsum(
            self.cross, rows, weights * (covs + centered[:, iu] * centered[:, ju])
        )
        self.rows = rows + k

    def moments(self, lo: int, hi: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Centered range aggregates ``(T, s1, s2)`` over windows ``[lo, hi)``.

        The cross-moment difference is intentionally not materialized here —
        :func:`combine_matrix_prefix` takes the full packed row,
        :func:`combine_row_prefix` only one series' ``n`` entries of it.
        """
        self._check_range(lo, hi)
        total = float(self.count[hi] - self.count[lo])
        if total <= 0.0:
            raise SketchError("window sizes must sum to a positive total")
        return total, self.first[hi] - self.first[lo], self.second[hi] - self.second[lo]

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= self.covered:
            raise SketchError(
                f"prefix range [{lo}, {hi}) outside the covered windows "
                f"[0, {self.covered})"
            )


def build_prefix_aggregates(
    means: np.ndarray,
    stds: np.ndarray,
    covs: np.ndarray,
    sizes: np.ndarray,
    offsets: np.ndarray | None = None,
) -> PrefixAggregates:
    """Build the full prefix tables of a sketched window sequence.

    Args:
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        covs: Per-window covariance matrices, shape ``(ns, n, n)``.
        sizes: Per-window sizes, shape ``(ns,)``.
        offsets: Optional per-series centering offsets; defaults to the
            weighted grand mean over all ``ns`` windows (the choice that
            minimizes cancellation for stationary series).

    Returns:
        Writable in-memory :class:`PrefixAggregates` covering every window.
    """
    means, stds, sizes = check_window_stats(means, stds, sizes)
    n, ns = means.shape
    covs = np.asarray(covs, dtype=np.float64)
    if covs.shape != (ns, n, n):
        raise SketchError(
            f"covs shape {covs.shape} incompatible with {ns} windows of {n} series"
        )
    if offsets is None:
        offsets = means @ sizes / float(np.sum(sizes))
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape != (n,):
        raise SketchError(f"offsets shape {offsets.shape} != ({n},)")
    aggregates = PrefixAggregates.allocate(offsets, ns)
    aggregates.extend(means, stds, pack_symmetric(covs), sizes)
    return aggregates


def _range_moments(
    aggregates: PrefixAggregates,
    lo: int,
    hi: int,
    points: np.ndarray | None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """Centered moments of windows ``[lo, hi)`` plus the fragment points.

    The ``(n, k)`` raw ``points`` are centered with the tables' offsets
    (``D = X - c``) and folded in: ``T += k``, ``s1 += sum D``,
    ``s2 += sum D^2``. Their cross term ``D D^T`` is left to the caller,
    because the matrix and row kernels need different slices of it.

    Returns:
        ``(T, s1, s2, D)``, with ``D = None`` when there are no points.
    """
    total, s1, s2 = aggregates.moments(lo, hi)
    if points is None:
        return total, s1, s2, None
    points = np.asarray(points, dtype=np.float64)
    n = aggregates.n_series
    if points.ndim != 2 or points.shape[0] != n:
        raise SketchError(
            f"fragment points of shape {points.shape} incompatible with "
            f"{n} series"
        )
    if points.shape[1] == 0:
        return total, s1, s2, None
    centered = points - aggregates.offsets[:, None]
    total += points.shape[1]
    s1 += centered.sum(axis=1)
    s2 += np.einsum("ij,ij->i", centered, centered)
    return total, s1, s2, centered


def _pooled_scales(
    total: float, mu: np.ndarray, s2: np.ndarray, row_magnitude: np.ndarray
) -> np.ndarray:
    """Undivided pooled stds from centered range moments (guarded).

    ``pooled = s2 - T mu^2`` equals ``sum B (sigma^2 + delta^2)`` exactly in
    real arithmetic; in floats the result carries two noise floors that are
    zeroed here so the range is treated as constant, like the direct
    kernel's zero-variance convention:

    * :data:`VARIANCE_GUARD` of the (always larger) centered second moment —
      the subtraction's own cancellation noise, and
    * ``_KAHAN_BLOCK * eps`` of the *prefix row magnitude* — the rounding
      already baked into the cumulative tables. A short range deep in a
      long history differences two huge nearly-equal rows, so its noise
      scales with the rows, not with the (possibly tiny) range moment.
    """
    pooled = s2 - total * mu**2
    floor = np.maximum(
        VARIANCE_GUARD * np.maximum(s2, 0.0),
        _KAHAN_BLOCK * np.finfo(np.float64).eps * np.abs(row_magnitude),
    )
    pooled = np.where(pooled > floor, pooled, 0.0)
    return np.sqrt(pooled)


def combine_matrix_prefix(
    aggregates: PrefixAggregates,
    lo: int,
    hi: int,
    points: np.ndarray | None = None,
) -> np.ndarray:
    """Exact all-pairs correlation over windows ``[lo, hi)`` in ``O(n^2)``.

    Matches :func:`~repro.core.lemma1.combine_matrix` over the same segments
    within :data:`PREFIX_ATOL` (see the module docstring's accuracy
    contract), at a cost independent of ``hi - lo``.

    Args:
        aggregates: Prefix tables covering at least window ``hi - 1``.
        lo: First selected basic window (inclusive).
        hi: Last selected basic window (exclusive).
        points: Raw head/tail points of an arbitrary query window as one
            ``(n, k)`` block (:func:`~repro.core.exact.fragment_points`),
            folded in against the tables' offsets.

    Returns:
        The ``(n, n)`` Pearson correlation matrix, unit diagonal; rows and
        columns of (effectively) constant series are zero off-diagonal.
    """
    total, s1, s2, centered = _range_moments(aggregates, lo, hi, points)
    n = aggregates.n_series
    mu = s1 / total
    scale = _pooled_scales(total, mu, s2, aggregates.second[hi])
    cross = unpack_symmetric(aggregates.cross[hi] - aggregates.cross[lo], n)
    if centered is not None:
        # ``a @ a.T`` runs as one symmetric rank-k update (exactly symmetric).
        cross += centered @ centered.T
    numer = cross - total * np.outer(mu, mu)
    denom = np.outer(scale, scale)
    corr = np.zeros_like(denom)
    np.divide(numer, denom, out=corr, where=denom > 0.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def combine_row_prefix(
    aggregates: PrefixAggregates,
    lo: int,
    hi: int,
    row: int,
    points: np.ndarray | None = None,
) -> np.ndarray:
    """One correlation-matrix row over windows ``[lo, hi)`` in ``O(n)``.

    The prefix form of :func:`~repro.core.lemma1.combine_row` (Algorithm 5's
    ``Computecorr`` primitive): only row ``row`` of the cross table is read.

    Args:
        aggregates: Prefix tables covering at least window ``hi - 1``.
        lo: First selected basic window (inclusive).
        hi: Last selected basic window (exclusive).
        row: Index of the anchor series.
        points: Raw head/tail points, as for :func:`combine_matrix_prefix`
            (``O(n k)`` more for ``k`` points).

    Returns:
        Length-``n`` array of exact correlations (entry ``row`` is 1.0).
    """
    n = aggregates.n_series
    if not 0 <= row < n:
        raise SketchError(f"row {row} out of range [0, {n})")
    total, s1, s2, centered = _range_moments(aggregates, lo, hi, points)
    mu = s1 / total
    scale = _pooled_scales(total, mu, s2, aggregates.second[hi])
    positions = packed_index(n)[2][row]
    cross = aggregates.cross[hi, positions] - aggregates.cross[lo, positions]
    if centered is not None:
        cross += centered @ centered[row]
    numer = cross - total * mu[row] * mu
    denom = scale[row] * scale
    out = np.zeros(n)
    np.divide(numer, denom, out=out, where=denom > 0.0)
    np.clip(out, -1.0, 1.0, out=out)
    out[row] = 1.0
    return out
