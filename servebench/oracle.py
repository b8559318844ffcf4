"""Correctness checks of served answers against ``np.corrcoef``.

Each path is held to the tolerance it documents:

* prefix-table answers: :data:`repro.core.prefix.PREFIX_ATOL`;
* the direct Lemma-1 path: ``1e-10``, the bound the exact engine's tests
  assert against ``np.corrcoef`` (``tests/test_exact.py``);
* real-time snapshots (Lemma-2 slides): ``1e-9``, the bound of
  ``tests/test_realtime.py``.

Threshold decisions (edges, degrees, neighbors) may legitimately differ only
for pairs whose reference correlation lies within the tolerance of theta.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.prefix import PREFIX_ATOL

DIRECT_ATOL = 1e-10
REALTIME_ATOL = 1e-9


def atol_for(path: str) -> float:
    return PREFIX_ATOL if path == "prefix" else DIRECT_ATOL


def reference(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    return np.corrcoef(values[:, start:stop])


def _edge_problems(
    ref: np.ndarray, adjacency: np.ndarray, theta: float, atol: float
) -> int:
    """Pairs whose edge decision disagrees with the reference decisively."""
    expected = ref > theta
    np.fill_diagonal(expected, False)
    wrong = (adjacency != expected) & (np.abs(ref - theta) > atol)
    return int(np.triu(wrong, k=1).sum())


def check_edges(
    ref: np.ndarray,
    index: dict[str, int],
    edges: list[tuple[str, str, float]],
    theta: float,
    atol: float,
) -> list[str]:
    """An edge list (``[a, b, weight]``) against the reference at theta."""
    n = ref.shape[0]
    adjacency = np.zeros((n, n), dtype=bool)
    problems = []
    for a, b, weight in edges:
        i, j = index[a], index[b]
        adjacency[i, j] = adjacency[j, i] = True
        if abs(weight - ref[i, j]) > atol:
            problems.append(f"edge {a}-{b} weight {weight} vs {ref[i, j]}")
    wrong = _edge_problems(ref, adjacency, theta, atol)
    if wrong:
        problems.append(f"{wrong} edge decisions differ at theta={theta}")
    return problems


def check_value(
    spec: Any, value: Any, ref: np.ndarray, names: list[str], atol: float
) -> list[str]:
    """Problems with one query result (empty when it is correct)."""
    index = {name: i for i, name in enumerate(names)}
    op = spec.op
    if op == "matrix":
        error = float(np.max(np.abs(np.asarray(value.values) - ref)))
        return [] if error <= atol else [f"matrix off by {error:.3g}"]
    if op == "network":
        rows, cols = np.nonzero(np.triu(value.adjacency, k=1))
        edges = [
            (value.names[i], value.names[j], float(value.weights[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]
        return check_edges(ref, index, edges, spec.theta, atol)
    if op == "top_k":
        upper = np.sort(ref[np.triu_indices(len(names), k=1)])[::-1]
        problems = []
        for rank, (a, b, corr) in enumerate(value):
            if abs(corr - ref[index[a], index[b]]) > atol:
                problems.append(f"top_k pair {a}-{b} corr {corr}")
            if abs(corr - upper[rank]) > atol:
                problems.append(f"top_k rank {rank} is {corr}, expected {upper[rank]}")
        if len(value) != min(spec.k, upper.size):
            problems.append(f"top_k returned {len(value)} pairs")
        return problems
    if op == "degree":
        expected = ref > spec.theta
        np.fill_diagonal(expected, False)
        near = np.abs(ref - spec.theta) <= atol
        np.fill_diagonal(near, False)
        problems = []
        for name, degree in value.items():
            i = index[name]
            if abs(degree - int(expected[i].sum())) > int(near[i].sum()):
                problems.append(f"degree of {name} is {degree}")
        return problems
    if op == "neighbors":
        i = index[spec.node]
        row = ref[i].copy()
        row[i] = -np.inf
        got = {name: corr for name, corr in value}
        problems = [
            f"neighbor {name} corr {corr}"
            for name, corr in got.items()
            if abs(corr - row[index[name]]) > atol
        ]
        for j, corr in enumerate(row):
            if abs(corr - spec.theta) > atol and (corr > spec.theta) != (names[j] in got):
                problems.append(f"neighbor decision for {names[j]} differs")
        return problems
    return [f"no check for op {op!r}"]


def check_event(
    event: dict[str, Any], ref: np.ndarray, names: list[str]
) -> list[str]:
    """One real-time stream event against the batch recomputation."""
    index = {name: i for i, name in enumerate(names)}
    edges = [(a, b, float(w)) for a, b, w in event["edges"]]
    return check_edges(ref, index, edges, float(event["theta"]), REALTIME_ATOL)
