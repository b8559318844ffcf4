"""Query operators over correlation matrices.

The complete-matrix design of TSUBASA (vs. threshold-only competitors) means
classic correlated-time-series queries become cheap post-processing of the
matrix: top-k most correlated pairs, per-node neighborhoods, range queries,
and anti-correlation search. These operators are what a network analyst (or
the visualization layer of Fig. 1) actually calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import CorrelationMatrix
from repro.core.packing import pair_index
from repro.exceptions import DataError

__all__ = [
    "top_k_pairs",
    "neighbors",
    "pairs_in_range",
    "most_anticorrelated_pairs",
    "degree_at_threshold",
]


def _upper_pairs(matrix: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    return pair_index(matrix.n_series)


def _top_order(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, descending, ties by index order.

    Equivalent to ``np.argsort(-values, kind="stable")[:k]`` but avoids the
    full ``O(p log p)`` sort when ``k << p``: ``np.argpartition`` isolates a
    candidate set in ``O(p)``, the boundary is resolved deterministically
    (every value strictly above the k-th, then just enough boundary ties in
    ascending index order), and only the ``O(k)`` tail is stably sorted.
    """
    if k <= 0 or k >= values.size:
        # Covers the empty selection (k clamped to 0 pairs) and makes the
        # helper total for any k; argpartition below needs 1 <= k < size.
        return np.argsort(-values, kind="stable")[: max(k, 0)]
    candidates = np.argpartition(-values, k - 1)[:k]
    boundary = values[candidates].min()
    if np.isnan(boundary):
        # NaNs (e.g. np.corrcoef of a constant series) sort last, so one in
        # the candidate set means fewer than k finite values exist; the
        # boundary comparisons below would go all-False and silently drop
        # results. Take the stable slow path instead.
        return np.argsort(-values, kind="stable")[:k]
    # argpartition picks an *arbitrary* subset of boundary-valued entries;
    # rebuild the selection so equal values keep ascending index order.
    above = np.nonzero(values > boundary)[0]
    ties = np.nonzero(values == boundary)[0][: k - above.size]
    chosen = np.concatenate([above, ties])
    # nonzero() returns ascending indices, so a stable sort of the (small)
    # candidate set reproduces the full stable sort's tie order exactly.
    return chosen[np.argsort(-values[chosen], kind="stable")]


def top_k_pairs(
    matrix: CorrelationMatrix, k: int
) -> list[tuple[str, str, float]]:
    """The ``k`` most positively correlated distinct pairs, descending.

    Args:
        matrix: A labeled correlation matrix.
        k: Number of pairs to return (capped at the number of pairs).

    Returns:
        ``(name_a, name_b, correlation)`` triples, strongest first; ties are
        broken by row order for determinism.
    """
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    rows, cols = _upper_pairs(matrix)
    values = matrix.values[rows, cols]
    k = min(k, values.size)
    # Equal correlations keep row order (same contract as a stable argsort).
    order = _top_order(values, k)
    return [
        (matrix.names[rows[i]], matrix.names[cols[i]], float(values[i]))
        for i in order
    ]


def most_anticorrelated_pairs(
    matrix: CorrelationMatrix, k: int
) -> list[tuple[str, str, float]]:
    """The ``k`` most *negatively* correlated pairs, most negative first.

    Anti-correlated teleconnections (seesaw patterns like the Southern
    Oscillation) are as physically meaningful as positive ones.
    """
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    rows, cols = _upper_pairs(matrix)
    values = matrix.values[rows, cols]
    k = min(k, values.size)
    # Most negative first == largest of the negated values; negation
    # preserves ties, so index order at equal correlations is unchanged.
    order = _top_order(-values, k)
    return [
        (matrix.names[rows[i]], matrix.names[cols[i]], float(values[i]))
        for i in order
    ]


def neighbors(
    matrix: CorrelationMatrix, name: str, theta: float
) -> list[tuple[str, float]]:
    """Nodes correlated with ``name`` above ``theta``, strongest first."""
    if name not in matrix.names:
        raise DataError(f"unknown series {name!r}")
    index = matrix.names.index(name)
    row = matrix.values[index].copy()
    row[index] = -np.inf  # exclude self
    hits = np.nonzero(row > theta)[0]
    order = hits[np.argsort(-row[hits], kind="stable")]
    return [(matrix.names[j], float(row[j])) for j in order]


def pairs_in_range(
    matrix: CorrelationMatrix, low: float, high: float
) -> list[tuple[str, str, float]]:
    """All distinct pairs with correlation in ``[low, high]``.

    Useful for isolating the "uncertain band" around a threshold, e.g. the
    pairs Eq. 7 inference cannot decide.
    """
    if low > high:
        raise DataError(f"empty range [{low}, {high}]")
    rows, cols = _upper_pairs(matrix)
    values = matrix.values[rows, cols]
    mask = (values >= low) & (values <= high)
    return [
        (matrix.names[i], matrix.names[j], float(v))
        for i, j, v in zip(rows[mask], cols[mask], values[mask])
    ]


def degree_at_threshold(matrix: CorrelationMatrix, theta: float) -> dict[str, int]:
    """Node degree of the θ-thresholded network, keyed by series name."""
    adjacency = matrix.threshold(theta)
    degrees = adjacency.sum(axis=1)
    return {name: int(d) for name, d in zip(matrix.names, degrees)}
