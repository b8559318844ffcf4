"""Bit-accuracy fuzz: combine_matrix_prefix vs the direct Lemma 1 kernel.

The prefix kernel's accuracy contract (:mod:`repro.core.prefix`) promises
agreement with :func:`~repro.core.lemma1.combine_matrix` within
:data:`~repro.core.prefix.PREFIX_ATOL` on every correlation entry, across
the regimes a deployment actually hits: random sizes and ranges, long
histories (``ns >= 5000``), huge mean offsets (the naive-variance
cancellation trap), near-constant series, and drifting means. Non-aligned
``[start, stop)`` windows feed the prefix kernel their raw head/tail points;
those answers are checked against the direct kernel over the fragments'
sketches and against ``np.corrcoef`` of the raw window, including a
head fragment whose level shift puts its mean far from the build-time
offsets. Every case is generated from a seed printed on failure, so a red
run is reproducible with ``_run_case(seed)`` / ``_run_fragment_case(seed)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import fragment_points, fragment_stats
from repro.core.lemma1 import combine_matrix
from repro.core.prefix import (
    PREFIX_ATOL,
    build_prefix_aggregates,
    combine_matrix_prefix,
)
from repro.core.segmentation import BasicWindowPlan, QueryWindow
from repro.core.sketch import build_sketch

#: Random fuzz seeds (kept small enough for CI; bump locally to fuzz wider).
FUZZ_SEEDS = tuple(range(24))

#: Ranges compared per generated sketch.
RANGES_PER_CASE = 8


def _generate_data(rng: np.random.Generator) -> np.ndarray:
    """One random series collection spanning the contract's regimes."""
    n = int(rng.integers(2, 9))
    n_windows = int(rng.integers(3, 400))
    window = int(rng.integers(2, 9))
    length = n_windows * window + int(rng.integers(0, window))  # short tail
    regime = int(rng.integers(0, 4))
    base = rng.standard_normal((n, length))
    if regime == 0:  # plain standardized noise
        data = base
    elif regime == 1:  # huge per-series offsets: the cancellation trap
        data = base + rng.uniform(-1e6, 1e6, (n, 1))
    elif regime == 2:  # near-constant series (tiny genuine variance)
        data = 1e-6 * base + rng.uniform(-10, 10, (n, 1))
    else:  # slow mean drift across the history
        drift = np.linspace(0, 1, length) * rng.uniform(-50, 50, (n, 1))
        data = base + drift
    # Mix in cross-series correlation so the matrices are not near-diagonal.
    shared = rng.standard_normal(length)
    return data + rng.uniform(0.0, 2.0, (n, 1)) * shared


def _compare_ranges(sketch, rng: np.random.Generator, seed: int) -> None:
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    ns = sketch.n_windows
    for _ in range(RANGES_PER_CASE):
        lo = int(rng.integers(0, ns))
        hi = int(rng.integers(lo + 1, ns + 1))
        idx = np.arange(lo, hi)
        direct = combine_matrix(
            sketch.means[:, idx],
            sketch.stds[:, idx],
            sketch.covs[idx],
            sketch.sizes[idx].astype(np.float64),
        )
        prefix = combine_matrix_prefix(aggregates, lo, hi)
        worst = float(np.max(np.abs(prefix - direct)))
        assert worst <= PREFIX_ATOL, (
            f"prefix kernel diverged from the direct kernel: seed={seed}, "
            f"range=[{lo}, {hi}), n={sketch.n_series}, ns={ns}, "
            f"B={sketch.window_size}, max|diff|={worst:.3e} > {PREFIX_ATOL}"
        )


def _run_case(seed: int) -> None:
    rng = np.random.default_rng(seed)
    data = _generate_data(rng)
    window = int(rng.integers(2, 9))
    sketch = build_sketch(data, window)
    _compare_ranges(sketch, rng, seed)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_random_sizes_and_ranges(seed):
    _run_case(seed)


@pytest.mark.parametrize("seed", (1001, 1002))
def test_fuzz_long_history(seed):
    """ns >= 5000: the regime where naive running sums lose digits."""
    rng = np.random.default_rng(seed)
    n, window, n_windows = 4, 3, 5200
    data = rng.standard_normal((n, n_windows * window)) + rng.uniform(
        -1e4, 1e4, (n, 1)
    )
    sketch = build_sketch(data, window)
    assert sketch.n_windows >= 5000
    _compare_ranges(sketch, rng, seed)


def test_fuzz_near_constant_long_history():
    """Near-constant series over a long history: centering must keep the
    pooled-variance subtraction conditioned (sigma tiny but genuine)."""
    seed = 2001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 3, 3, 5000
    data = 1e-9 * rng.standard_normal((n, n_windows * window)) + rng.uniform(
        -5, 5, (n, 1)
    )
    sketch = build_sketch(data, window)
    _compare_ranges(sketch, rng, seed)


def test_fuzz_short_ranges_deep_in_long_history():
    """Short windows at the far end of a long prefix: the subtraction of two
    huge nearly-equal prefix rows is the classic failure mode."""
    seed = 3001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 5, 4, 6000
    data = rng.standard_normal((n, n_windows * window)) + 1e5
    sketch = build_sketch(data, window)
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    for lo in (5900, 5990, 5998):
        hi = min(lo + int(rng.integers(1, 8)), n_windows)
        idx = np.arange(lo, hi)
        direct = combine_matrix(
            sketch.means[:, idx],
            sketch.stds[:, idx],
            sketch.covs[idx],
            sketch.sizes[idx].astype(np.float64),
        )
        prefix = combine_matrix_prefix(aggregates, lo, hi)
        worst = float(np.max(np.abs(prefix - direct)))
        assert worst <= PREFIX_ATOL, (
            f"seed={seed}, range=[{lo}, {hi}), max|diff|={worst:.3e}"
        )


def _check_window(sketch, aggregates, data, start, stop, seed) -> bool:
    """Prefix-with-fragments vs the direct kernel and ``np.corrcoef``.

    Returns ``False`` (nothing checked) for windows without a full basic
    window — those have no interior for the prefix tables to serve.
    """
    plan = BasicWindowPlan(length=data.shape[1], window_size=sketch.window_size)
    selection = plan.align(QueryWindow(end=stop - 1, length=stop - start))
    idx = selection.full_windows
    if idx.size == 0:
        return False
    spans = [span for span in (selection.head, selection.tail) if span is not None]
    fragments = [fragment_stats(data, *span) for span in spans]
    prefix = combine_matrix_prefix(
        aggregates,
        int(idx[0]),
        int(idx[-1]) + 1,
        fragment_points(data, spans) if spans else None,
    )
    means = [sketch.means[:, idx]] + [f[0][:, None] for f in fragments]
    stds = [sketch.stds[:, idx]] + [f[1][:, None] for f in fragments]
    covs = [sketch.covs[idx]] + [f[2][None] for f in fragments]
    sizes = [sketch.sizes[idx].astype(np.float64)] + [
        np.array([float(f[3])]) for f in fragments
    ]
    direct = combine_matrix(
        np.concatenate(means, axis=1),
        np.concatenate(stds, axis=1),
        np.concatenate(covs),
        np.concatenate(sizes),
    )
    for label, reference in (
        ("direct kernel", direct),
        ("np.corrcoef", np.corrcoef(data[:, start:stop])),
    ):
        worst = float(np.max(np.abs(prefix - reference)))
        assert worst <= PREFIX_ATOL, (
            f"prefix kernel with fragments diverged from the {label}: "
            f"seed={seed}, window=[{start}, {stop}), fragments="
            f"{selection.head}/{selection.tail}, n={sketch.n_series}, "
            f"ns={sketch.n_windows}, B={sketch.window_size}, "
            f"max|diff|={worst:.3e} > {PREFIX_ATOL}"
        )
    return True


def _run_fragment_case(seed: int) -> None:
    rng = np.random.default_rng(seed)
    data = _generate_data(rng)
    window = int(rng.integers(2, 9))
    sketch = build_sketch(data, window)
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    length = data.shape[1]
    for _ in range(RANGES_PER_CASE):
        start = int(rng.integers(0, length - 2 * window))
        stop = int(rng.integers(start + 2 * window, length + 1))
        _check_window(sketch, aggregates, data, start, stop, seed)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_non_aligned_windows_with_fragments(seed):
    _run_fragment_case(seed)


@pytest.mark.parametrize("shift", (1e3, 1e6))
def test_fuzz_level_shifted_head_fragment(shift):
    """A head fragment whose mean sits far from the build-time offsets."""
    seed = 4001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 6, 8, 300
    data = rng.standard_normal((n, n_windows * window))
    data += rng.uniform(0.0, 2.0, (n, 1)) * rng.standard_normal(data.shape[1])
    # Shift the last points of window 9: a window starting inside it has a
    # head fragment made only of shifted points, while the offsets (the
    # grand mean of the whole history) barely move.
    data[:, 76:80] += shift * rng.uniform(0.5, 1.0, (n, 1))
    sketch = build_sketch(data, window)
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    for start, stop in ((76, 2397), (77, 403), (78, 90), (76, 1005)):
        assert _check_window(sketch, aggregates, data, start, stop, seed)
