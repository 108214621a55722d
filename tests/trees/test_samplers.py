"""Tests for the BFS / DFS / Wilson spanning-tree samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedGraphError, EngineError
from repro.graph.build import from_edges
from repro.graph.generators import (
    chung_lu_signed,
    complete_signed,
    cycle_graph,
    ensure_connected,
    grid_graph,
)
from repro.rng import as_generator, spawn
from repro.trees import TreeSampler, bfs_tree, dfs_tree, wilson_tree
from repro.util.arrays import gather_adjacency

from tests.conftest import make_connected_signed

SAMPLERS = [bfs_tree, dfs_tree, wilson_tree]


@pytest.mark.parametrize("sampler", SAMPLERS)
class TestAllSamplers:
    def test_produces_valid_spanning_tree(self, sampler):
        g = make_connected_signed(60, 90, seed=1)
        t = sampler(g, seed=0)
        assert t.in_tree.sum() == g.num_vertices - 1
        assert (t.parent >= 0).sum() == g.num_vertices - 1

    def test_respects_pinned_root(self, sampler):
        g = make_connected_signed(40, 60, seed=2)
        t = sampler(g, root=7, seed=0)
        assert t.root == 7
        assert t.parent[7] == -1

    def test_deterministic_for_seed(self, sampler):
        g = make_connected_signed(40, 60, seed=2)
        t1 = sampler(g, seed=11)
        t2 = sampler(g, seed=11)
        np.testing.assert_array_equal(t1.parent, t2.parent)

    def test_disconnected_raises(self, sampler):
        g = from_edges([(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedGraphError):
            sampler(g, root=0, seed=0)

    def test_single_vertex(self, sampler):
        g = from_edges([], num_vertices=1)
        t = sampler(g, seed=0)
        assert t.num_vertices == 1
        assert t.depth == 0


def _sorted_offers_bfs(graph, root, seed):
    """The randomized BFS by sorting each level's offers: the reference
    for bfs_tree's sort-free winner selection."""
    n = graph.num_vertices
    rng = as_generator(seed)
    if root is None:
        root = int(rng.integers(0, n))
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    discovered = np.zeros(n, dtype=bool)
    discovered[root] = True
    frontier = np.array([root], dtype=np.int64)
    while len(frontier):
        half, sources = gather_adjacency(graph.indptr, frontier)
        targets, edges = graph.adj_vertex[half], graph.adj_edge[half]
        fresh = ~discovered[targets]
        targets, sources, edges = targets[fresh], sources[fresh], edges[fresh]
        if len(targets) == 0:
            break
        keys = rng.random(len(targets))
        order = np.lexsort((keys, targets))
        targets, sources, edges = targets[order], sources[order], edges[order]
        first = np.ones(len(targets), dtype=bool)
        first[1:] = targets[1:] != targets[:-1]
        frontier = targets[first]
        parent[frontier], parent_edge[frontier] = sources[first], edges[first]
        discovered[frontier] = True
    return parent, parent_edge


class TestBfsSpecifics:
    def test_bfs_levels_are_graph_distances(self):
        # On an unweighted graph, BFS tree depth equals shortest-path
        # distance from the root — the property that makes fundamental
        # cycles minimal (§2.2).
        g = grid_graph(5, 5, seed=0)
        t = bfs_tree(g, root=0, seed=3)
        # Manhattan distance on the grid.
        for v in range(25):
            r, c = divmod(v, 5)
            assert t.level_of[v] == r + c

    def test_bfs_shallower_than_dfs_on_dense_graph(self):
        g = complete_signed(40, seed=0)
        bt = bfs_tree(g, seed=1)
        dt = dfs_tree(g, seed=1)
        assert bt.depth <= 2
        assert dt.depth > bt.depth

    @pytest.mark.parametrize("kind", ["er", "grid", "cycle", "hubs"])
    def test_winners_match_the_sorted_offers_reference(self, kind):
        """bfs_tree's parents are the sort-based reference's: per level,
        the offers sorted stably by (target, random key), the first of
        each target's run winning."""
        g = {
            "er": lambda: make_connected_signed(300, 1500, seed=4),
            "grid": lambda: grid_graph(15, 15, seed=1),
            "cycle": lambda: cycle_graph([1, -1] * 50),
            "hubs": lambda: ensure_connected(
                chung_lu_signed(300, 900, seed=5), seed=5
            ),
        }[kind]()
        for i, root in ((0, None), (1, None), (2, 7), (3, None)):
            tree = bfs_tree(g, root=root, seed=spawn(9, i))
            parent, parent_edge = _sorted_offers_bfs(g, root, spawn(9, i))
            assert np.array_equal(tree.parent, parent), i
            assert np.array_equal(tree.parent_edge, parent_edge), i

    def test_random_parent_choice_varies(self):
        # In a grid, interior vertices receive offers from two frontier
        # parents, so different seeds must yield different trees.
        g = grid_graph(6, 6, seed=0)
        parents = {bfs_tree(g, root=0, seed=s).parent.tobytes() for s in range(8)}
        assert len(parents) > 1


class TestWilsonSpecifics:
    def test_uniformity_on_triangle(self):
        # The triangle has 3 spanning trees; Wilson should hit each
        # about equally often.
        g = from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        counts = {}
        for s in range(300):
            t = wilson_tree(g, root=0, seed=s)
            counts[t.parent.tobytes()] = counts.get(t.parent.tobytes(), 0) + 1
        assert len(counts) == 3
        assert all(c > 60 for c in counts.values())


class TestSampler:
    def test_indexed_reproducibility(self):
        g = make_connected_signed(50, 80, seed=4)
        s = TreeSampler(g, method="bfs", seed=9)
        t1 = s.tree(5)
        t2 = s.tree(5)
        np.testing.assert_array_equal(t1.parent, t2.parent)

    def test_index_independent_of_order(self):
        g = make_connected_signed(50, 80, seed=4)
        s1 = TreeSampler(g, method="bfs", seed=9)
        _ = [s1.tree(i) for i in range(4)]
        s2 = TreeSampler(g, method="bfs", seed=9)
        np.testing.assert_array_equal(s1.tree(7).parent, s2.tree(7).parent)

    def test_none_seed_is_frozen(self):
        g = make_connected_signed(30, 40, seed=4)
        s = TreeSampler(g, method="bfs", seed=None)
        np.testing.assert_array_equal(s.tree(0).parent, s.tree(0).parent)

    def test_trees_iterator(self):
        g = make_connected_signed(30, 40, seed=4)
        s = TreeSampler(g, method="dfs", seed=1)
        trees = list(s.trees(3))
        assert len(trees) == 3
        np.testing.assert_array_equal(trees[2].parent, s.tree(2).parent)

    def test_unknown_method(self):
        g = make_connected_signed(10, 10, seed=0)
        with pytest.raises(EngineError):
            TreeSampler(g, method="prim")

    def test_different_methods_differ(self):
        g = make_connected_signed(60, 200, seed=4)
        bfs = TreeSampler(g, method="bfs", seed=1).tree(0)
        dfs = TreeSampler(g, method="dfs", seed=1).tree(0)
        assert not np.array_equal(bfs.parent, dfs.parent)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_every_seed_gives_spanning_tree(seed):
    g = make_connected_signed(25, 40, seed=7)
    t = bfs_tree(g, seed=seed)
    # Every vertex reaches the root.
    for v in range(25):
        path = t.path_to_root(v)
        assert path[-1] == t.root
        assert len(path) == t.level_of[v] + 1
