"""Unit tests for the CSR signed-graph container."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.csr import SignedGraph


@pytest.fixture
def sample() -> SignedGraph:
    return from_edges(
        [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, -1), (1, 3, 1)]
    )


class TestShape:
    def test_counts(self, sample):
        assert sample.num_vertices == 4
        assert sample.num_edges == 5
        assert sample.num_fundamental_cycles == 5 - 3

    def test_degrees(self, sample):
        assert sample.degree(0) == 2
        assert sample.degree(2) == 3
        np.testing.assert_array_equal(sample.degree(), [2, 3, 3, 2])
        assert sample.max_degree == 3
        assert sample.avg_degree == pytest.approx(5 / 4)

    def test_negative_count(self, sample):
        assert sample.num_negative_edges == 2

    def test_empty_graph(self):
        g = from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert g.avg_degree == 0.0


class TestAdjacency:
    def test_neighbors_sorted(self, sample):
        np.testing.assert_array_equal(sample.neighbors(2), [0, 1, 3])

    def test_incident_edges_align_with_neighbors(self, sample):
        for v in range(sample.num_vertices):
            nbrs = sample.neighbors(v)
            eids = sample.incident_edges(v)
            for w, e in zip(nbrs, eids):
                assert {sample.edge_u[e], sample.edge_v[e]} == {v, w}

    def test_find_edge_both_directions(self, sample):
        e = sample.find_edge(0, 2)
        assert e == sample.find_edge(2, 0)
        assert sample.edge_sign[e] == -1

    def test_find_edge_missing(self, sample):
        with pytest.raises(GraphFormatError):
            sample.find_edge(0, 3)

    def test_has_edge(self, sample):
        assert sample.has_edge(1, 3)
        assert not sample.has_edge(0, 3)

    def test_sign_of(self, sample):
        assert sample.sign_of(2, 3) == -1
        assert sample.sign_of(0, 1) == 1

    def test_iter_edges_canonical(self, sample):
        for u, v, s in sample.iter_edges():
            assert u < v
            assert s in (-1, 1)

    def test_half_twin_is_the_reverse_half_edge(self, sample):
        twin = sample.half_twin
        source = np.repeat(np.arange(sample.num_vertices), sample.degrees)
        pos = np.arange(len(twin))
        assert np.array_equal(twin[twin], pos) and np.all(twin != pos)
        assert np.array_equal(sample.adj_edge[twin], sample.adj_edge)
        assert np.array_equal(sample.adj_vertex[twin], source)
        # Cached and shared by every later BFS on the graph.
        assert sample.half_twin is twin and not twin.flags.writeable


class TestDerivedGraphs:
    def test_with_signs_shares_structure(self, sample):
        flipped = sample.with_signs(-sample.edge_sign)
        assert flipped.indptr is sample.indptr
        assert flipped.num_negative_edges == 3

    def test_with_signs_rejects_bad_shape(self, sample):
        with pytest.raises(GraphFormatError):
            sample.with_signs(np.ones(3, dtype=np.int8))

    def test_with_signs_rejects_zeros(self, sample):
        bad = sample.edge_sign.copy()
        bad[0] = 0
        with pytest.raises(GraphFormatError):
            sample.with_signs(bad)

    def test_all_positive(self, sample):
        pos = sample.all_positive()
        assert pos.num_negative_edges == 0

    def test_edges_array_round_trip(self, sample):
        arr = sample.edges_array()
        rebuilt = from_edges(arr, num_vertices=4)
        assert rebuilt == sample


class TestIdentity:
    def test_equality_is_structural_and_signed(self, sample):
        same = from_edges(sample.edges_array(), num_vertices=4)
        assert sample == same
        assert sample != sample.all_positive()

    def test_hash_matches_equality(self, sample):
        same = from_edges(sample.edges_array(), num_vertices=4)
        assert hash(sample) == hash(same)
        assert len({sample, same}) == 1

    def test_nbytes_positive(self, sample):
        assert sample.nbytes() > 0
