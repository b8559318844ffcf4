"""Correlation matrices, threshold networks, and network comparison.

The output of TSUBASA's query path is the complete ``n x n`` correlation
matrix (unlike the DFT competitors, which only surface edges above a
threshold). A user-provided threshold ``theta`` turns the matrix into the
boolean adjacency matrix of the climate network; arbitrary thresholds can be
applied to the same matrix at query time.

Also implements the paper's two accuracy measures (§4.1):

* **number of edges** of the thresholded network, and
* **correlation similarity ratio** ``D_p`` — the fraction of identical
  off-diagonal entries between two adjacency matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.packing import pair_index
from repro.exceptions import DataError

__all__ = ["CorrelationMatrix", "threshold_adjacency", "count_edges",
           "similarity_ratio"]


@dataclass
class CorrelationMatrix:
    """A labeled, symmetric correlation matrix.

    Attributes:
        names: Series identifiers, in row/column order.
        values: ``(n, n)`` correlation values in ``[-1, 1]``.
    """

    names: list[str]
    values: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        n = len(self.names)
        if self.values.shape != (n, n):
            raise DataError(
                f"matrix shape {self.values.shape} does not match {n} names"
            )
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != n:
            raise DataError("series names must be unique")

    @property
    def n_series(self) -> int:
        """Number of series (matrix dimension)."""
        return len(self.names)

    def get(self, a: str, b: str) -> float:
        """Correlation between series ``a`` and ``b`` by name."""
        return float(self.values[self._index[a], self._index[b]])

    def threshold(self, theta: float) -> np.ndarray:
        """Boolean adjacency matrix of edges with ``corr > theta``.

        The diagonal is forced to ``False`` (no self-loops), matching the
        paper's edge definition between distinct nodes.
        """
        adj = self.values > theta
        np.fill_diagonal(adj, False)
        return adj

    def edges(self, theta: float) -> list[tuple[str, str, float]]:
        """Weighted edge list ``(a, b, corr)`` for pairs with ``corr > theta``.

        Each undirected edge is reported once with ``a`` preceding ``b`` in
        row order.
        """
        adj = self.threshold(theta)
        rows, cols = np.nonzero(np.triu(adj, k=1))
        return [
            (self.names[i], self.names[j], float(self.values[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def n_edges(self, theta: float) -> int:
        """Number of undirected edges above ``theta``."""
        return count_edges(self.threshold(theta))


def threshold_adjacency(values: np.ndarray, theta: float) -> np.ndarray:
    """Boolean adjacency from a raw correlation array (no self-loops)."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DataError(f"expected a square matrix, got shape {values.shape}")
    adj = values > theta
    np.fill_diagonal(adj, False)
    return adj


def count_edges(adjacency: np.ndarray) -> int:
    """Number of undirected edges in a boolean adjacency matrix."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DataError(f"expected a square matrix, got shape {adj.shape}")
    return int(np.triu(adj, k=1).sum())


def similarity_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation similarity ratio ``D_p`` between two networks (§4.1).

    ``D_p(A, B) = 2 * sum_{i<j} (1 - |a_ij - b_ij|) / (n * (n - 1))`` — the
    fraction of off-diagonal entries on which the two boolean adjacency
    matrices agree. Equals 1 iff the networks are identical and is symmetric
    in its arguments.

    Args:
        a: First boolean adjacency matrix.
        b: Second boolean adjacency matrix, same shape.

    Returns:
        The similarity ratio in ``[0, 1]``. For ``n < 2`` the ratio is
        defined as 1.0 (no off-diagonal entries to disagree on).
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        return 1.0
    upper = pair_index(n)
    agree = np.sum(a[upper] == b[upper])
    return float(2.0 * agree / (n * (n - 1)))
