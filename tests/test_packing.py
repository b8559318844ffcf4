"""Tests for repro.core.packing (the one symmetric pack/unpack helper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packing import (
    is_symmetric,
    pack_symmetric,
    packed_index,
    packed_size,
    unpack_symmetric,
)
from repro.exceptions import SketchError


def _symmetric_stack(k, n, seed=0):
    raw = np.random.default_rng(seed).normal(size=(k, n, n))
    return raw + raw.transpose(0, 2, 1)


class TestPackedIndex:
    def test_cached_and_read_only(self):
        iu, ju, full_map = packed_index(6)
        assert packed_index(6)[0] is iu
        for index in (iu, ju, full_map):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1

    def test_maps_agree(self):
        n = 7
        iu, ju, full_map = packed_index(n)
        assert iu.size == packed_size(n) == 28
        np.testing.assert_array_equal(full_map[iu, ju], np.arange(iu.size))
        np.testing.assert_array_equal(full_map, full_map.T)
        assert np.all(iu <= ju)


class TestPackUnpack:
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_roundtrip_is_exact(self, n):
        covs = _symmetric_stack(4, n)
        packed = pack_symmetric(covs)
        assert packed.shape == (4, packed_size(n))
        np.testing.assert_array_equal(unpack_symmetric(packed, n), covs)
        np.testing.assert_array_equal(unpack_symmetric(packed[2], n), covs[2])

    def test_packed_rows_are_c_contiguous(self):
        # covs[:, iu, ju] alone comes back Fortran-ordered; BLAS then sums
        # in a different order, so the helper must hand out C order.
        covs = _symmetric_stack(9, 8)
        iu, ju, _ = packed_index(8)
        assert not covs[:, iu, ju].flags.c_contiguous
        assert pack_symmetric(covs).flags.c_contiguous
        assert pack_symmetric(covs[3]).flags.c_contiguous

    def test_rejects_bad_shapes(self):
        with pytest.raises(SketchError):
            pack_symmetric(np.zeros((3, 4)))
        with pytest.raises(SketchError):
            unpack_symmetric(np.zeros(7), 3)

    def test_is_symmetric_is_exact(self):
        matrix = _symmetric_stack(1, 5)[0]
        assert is_symmetric(matrix)
        matrix[3, 1] = np.nextafter(matrix[3, 1], np.inf)
        assert not is_symmetric(matrix)
        assert not is_symmetric(np.zeros((2, 3)))
        assert is_symmetric(np.full((2, 2), np.nan))
