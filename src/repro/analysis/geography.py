"""Geographic structure of climate networks.

The paper stresses that "the geographical locality of nodes does not
directly imply the topology of a network" — short-range edges are expected
from spatial autocorrelation, but *long-range* edges (teleconnections) carry
the interesting physics. These helpers quantify that split:

* :func:`edge_lengths` — great-circle length of every edge.
* :func:`teleconnection_edges` — edges longer than a distance cutoff.
* :func:`degree_field` — per-node ``(lat, lon, degree)`` for map plotting.
* :func:`correlation_vs_distance` — binned decay of correlation with
  distance, the field's standard diagnostic of spatial structure.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork
from repro.core.packing import pair_index
from repro.data.grid import haversine_km
from repro.exceptions import DataError

__all__ = [
    "edge_lengths",
    "teleconnection_edges",
    "degree_field",
    "correlation_vs_distance",
]


def _require_coordinates(network: ClimateNetwork) -> dict[str, tuple[float, float]]:
    if not network.coordinates:
        raise DataError("network carries no node coordinates")
    missing = [n for n in network.names if n not in network.coordinates]
    if missing:
        raise DataError(f"nodes without coordinates: {missing[:5]}")
    return network.coordinates


def edge_lengths(network: ClimateNetwork) -> dict[tuple[str, str], float]:
    """Great-circle length (km) of every edge."""
    coords = _require_coordinates(network)
    lengths = {}
    for a, b in network.edge_set():
        (lat1, lon1), (lat2, lon2) = coords[a], coords[b]
        lengths[(a, b)] = float(haversine_km(lat1, lon1, lat2, lon2))
    return lengths


def teleconnection_edges(
    network: ClimateNetwork, min_km: float = 2000.0
) -> list[tuple[str, str, float, float]]:
    """Edges spanning at least ``min_km``, longest first.

    Returns:
        ``(name_a, name_b, distance_km, correlation)`` tuples.
    """
    if min_km < 0:
        raise DataError(f"min_km must be >= 0, got {min_km}")
    lengths = edge_lengths(network)
    far = [
        (a, b, d, network.edge_weight(a, b))
        for (a, b), d in lengths.items()
        if d >= min_km
    ]
    return sorted(far, key=lambda item: -item[2])


def degree_field(network: ClimateNetwork) -> np.ndarray:
    """Per-node ``(lat, lon, degree)`` rows, in ``names`` order.

    The degree field over a map is the standard visualization of
    teleconnection hubs (e.g. the El Niño studies cited in the paper).
    """
    coords = _require_coordinates(network)
    degrees = network.degrees()
    rows = [
        (coords[name][0], coords[name][1], float(degree))
        for name, degree in zip(network.names, degrees)
    ]
    return np.array(rows)


def correlation_vs_distance(
    matrix: CorrelationMatrix,
    coordinates: dict[str, tuple[float, float]],
    bin_km: float = 500.0,
    max_km: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean pairwise correlation binned by great-circle distance.

    Args:
        matrix: A labeled correlation matrix.
        coordinates: ``name -> (lat, lon)`` for every series.
        bin_km: Distance bin width.
        max_km: Drop pairs farther than this; ``None`` keeps all.

    Returns:
        ``(bin_centers_km, mean_correlation, pair_counts)`` arrays over the
        non-empty bins.
    """
    if bin_km <= 0:
        raise DataError(f"bin_km must be positive, got {bin_km}")
    missing = [n for n in matrix.names if n not in coordinates]
    if missing:
        raise DataError(f"series without coordinates: {missing[:5]}")
    lats = np.array([coordinates[n][0] for n in matrix.names])
    lons = np.array([coordinates[n][1] for n in matrix.names])
    rows, cols = pair_index(matrix.n_series)
    dists = haversine_km(lats[rows], lons[rows], lats[cols], lons[cols])
    corrs = matrix.values[rows, cols]
    if max_km is not None:
        keep = dists <= max_km
        dists, corrs = dists[keep], corrs[keep]
    if dists.size == 0:
        raise DataError("no pairs to bin")

    bins = np.floor(dists / bin_km).astype(np.int64)
    n_bins = int(bins.max()) + 1
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    np.add.at(sums, bins, corrs)
    np.add.at(counts, bins, 1.0)
    non_empty = counts > 0
    centers = (np.arange(n_bins) + 0.5) * bin_km
    return (
        centers[non_empty],
        sums[non_empty] / counts[non_empty],
        counts[non_empty].astype(np.int64),
    )
