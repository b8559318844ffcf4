"""Shared fixtures for the TSUBASA reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sketch import build_sketch
from repro.data.synthetic import generate_station_dataset
from repro.engine.providers import InMemoryProvider


@pytest.fixture(scope="session")
def small_dataset():
    """20 correlated stations x 600 hourly points (deterministic)."""
    return generate_station_dataset(n_stations=20, n_points=600, seed=11)


@pytest.fixture(scope="session")
def medium_dataset():
    """40 correlated stations x 1500 points for integration tests."""
    return generate_station_dataset(n_stations=40, n_points=1500, seed=23)


@pytest.fixture(scope="session")
def small_matrix(small_dataset):
    """The (20, 600) value matrix of the small dataset."""
    return small_dataset.values


@pytest.fixture()
def small_sketch(small_matrix):
    """Exact sketch of the small dataset with B=50 (12 windows)."""
    return build_sketch(small_matrix, window_size=50)


@pytest.fixture(scope="session")
def rng():
    """A deterministic random generator for ad-hoc test data."""
    return np.random.default_rng(1234)


class CountingProvider(InMemoryProvider):
    """In-memory provider counting the window records its queries stream."""

    windows_read = 0

    def iter_window_chunks(self, indices, chunk_windows):
        for chunk in super().iter_window_chunks(indices, chunk_windows):
            self.windows_read += chunk[2].size
            yield chunk


@pytest.fixture(scope="session")
def counting_provider():
    """The :class:`CountingProvider` class (call it with a sketch)."""
    return CountingProvider
