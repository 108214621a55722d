"""Tests for the Alg. 1 dense-matrix baseline (the 'Python [39]' analog)."""

import numpy as np
import pytest

from repro.core import balance, balance_baseline, is_balanced
from repro.errors import ReproError
from repro.trees import bfs_tree, dfs_tree

from tests.conftest import make_connected_signed


class TestBaselineCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_graphbplus(self, seed):
        g = make_connected_signed(60, 150, seed=seed)
        t = bfs_tree(g, seed=seed)
        fast = balance(g, t)
        slow = balance_baseline(g, t)
        np.testing.assert_array_equal(fast.signs, slow.signs)
        np.testing.assert_array_equal(fast.flipped, slow.flipped)

    def test_matches_on_dfs_tree(self):
        g = make_connected_signed(40, 100, seed=7)
        t = dfs_tree(g, seed=7)
        np.testing.assert_array_equal(
            balance(g, t).signs, balance_baseline(g, t).signs
        )

    def test_output_balanced(self):
        g = make_connected_signed(50, 120, seed=2)
        t = bfs_tree(g, seed=2)
        r = balance_baseline(g, t)
        assert is_balanced(r.balanced_graph)

    def test_counters(self):
        g = make_connected_signed(30, 80, seed=1)
        t = bfs_tree(g, seed=1)
        r = balance_baseline(g, t)
        assert r.counters.get("cycle.count") == g.num_fundamental_cycles
        assert r.counters.get("baseline.path_vertices") > 0


class TestBaselineLimits:
    def test_refuses_large_graphs(self):
        # Don't actually build a >20k graph densely; the guard fires
        # before allocation.
        g = make_connected_signed(100, 10, seed=0)
        big_n = 25_000
        from repro.graph.build import from_arrays

        u = np.arange(big_n - 1)
        v = u + 1
        s = np.ones(big_n - 1)
        big = from_arrays(u, v, s, num_vertices=big_n)
        t = bfs_tree(big, root=0, seed=0)
        with pytest.raises(ReproError, match="safety limit"):
            balance_baseline(big, t)

    def test_timers_record_phases(self):
        from repro.perf.export import span_stats
        from repro.perf.registry import collecting

        g = make_connected_signed(30, 60, seed=0)
        t = bfs_tree(g, seed=0)
        with collecting() as metrics:
            balance_baseline(g, t)
        assert {"baseline_setup", "baseline_kernel"} == set(
            span_stats(metrics.snapshot()))
