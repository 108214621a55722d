"""Tests for the vectorized CSR gather helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.arrays import concat_ranges, csr_positions, gather_adjacency

from tests.conftest import make_connected_signed


class TestConcatRanges:
    def test_basic(self):
        np.testing.assert_array_equal(
            concat_ranges(np.array([2, 3])), [0, 1, 0, 1, 2]
        )

    def test_zero_counts(self):
        np.testing.assert_array_equal(
            concat_ranges(np.array([2, 0, 3])), [0, 1, 0, 1, 2]
        )
        np.testing.assert_array_equal(
            concat_ranges(np.array([0, 0, 2])), [0, 1]
        )
        np.testing.assert_array_equal(
            concat_ranges(np.array([1, 0])), [0]
        )

    def test_empty(self):
        assert len(concat_ranges(np.array([], dtype=np.int64))) == 0
        assert len(concat_ranges(np.array([0, 0]))) == 0

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_python_reference(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        expect = [i for c in counts for i in range(c)]
        np.testing.assert_array_equal(concat_ranges(counts), expect)


class TestCsrPositions:
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                 max_size=12),
        st.lists(st.integers(min_value=0, max_value=11), max_size=20),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_repeat_formula(self, degrees, picks):
        """Zero-degree rows, unsorted and repeated vertices, and the
        empty set all agree with ``repeat(starts) + concat_ranges``."""
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        vertices = np.asarray(
            [p % len(degrees) for p in picks], dtype=np.int64
        )
        starts = indptr[vertices]
        counts = indptr[vertices + 1] - starts
        expect = np.repeat(starts, counts) + concat_ranges(counts)
        got = csr_positions(indptr, vertices)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expect)

    def test_empty_and_all_zero_rows(self):
        indptr = np.array([0, 0, 3, 3], dtype=np.int64)
        assert len(csr_positions(indptr, np.array([], dtype=np.int64))) == 0
        assert len(csr_positions(indptr, np.array([0, 2, 0]))) == 0
        np.testing.assert_array_equal(
            csr_positions(indptr, np.array([2, 1, 0, 1])), [0, 1, 2, 0, 1, 2]
        )


class TestGatherAdjacency:
    def test_matches_per_vertex_loops(self):
        g = make_connected_signed(40, 80, seed=0)
        vertices = np.array([3, 17, 3, 0])
        pos, src = gather_adjacency(g.indptr, vertices)
        expect_pos, expect_src = [], []
        for v in vertices:
            for p in range(int(g.indptr[v]), int(g.indptr[v + 1])):
                expect_pos.append(p)
                expect_src.append(int(v))
        np.testing.assert_array_equal(pos, expect_pos)
        np.testing.assert_array_equal(src, expect_src)

    def test_empty_vertex_set(self):
        g = make_connected_signed(10, 20, seed=0)
        pos, src = gather_adjacency(g.indptr, np.array([], dtype=np.int64))
        assert len(pos) == 0 and len(src) == 0
