"""Tests for the graphB+ front end (balance) and result container."""

import numpy as np
import pytest

from repro.core import balance, is_balanced
from repro.errors import EngineError
from repro.graph.datasets import fig1_sigma
from repro.perf.compat import Counters
from repro.perf.export import span_stats
from repro.perf.registry import collecting
from repro.trees import bfs_tree

from tests.conftest import make_connected_signed


class TestBalance:
    def test_default_pipeline(self):
        g = make_connected_signed(80, 200, seed=0)
        r = balance(g, seed=0)
        assert is_balanced(r.balanced_graph)
        assert r.graph is g
        assert r.signs.shape == (g.num_edges,)

    def test_tree_sampled_when_omitted_is_deterministic(self):
        g = make_connected_signed(40, 80, seed=0)
        r1 = balance(g, seed=5)
        r2 = balance(g, seed=5)
        np.testing.assert_array_equal(r1.signs, r2.signs)
        np.testing.assert_array_equal(r1.tree.parent, r2.tree.parent)

    @pytest.mark.parametrize("kernel", ["walk", "lockstep", "parity"])
    @pytest.mark.parametrize("labeling", ["serial", "parallel"])
    def test_all_configurations_agree(self, kernel, labeling):
        g = make_connected_signed(60, 150, seed=1)
        t = bfs_tree(g, seed=1)
        base = balance(g, t, kernel="walk", labeling="serial")
        r = balance(g, t, kernel=kernel, labeling=labeling)
        np.testing.assert_array_equal(base.signs, r.signs)

    def test_labeling_none_with_lockstep(self):
        g = make_connected_signed(60, 150, seed=1)
        t = bfs_tree(g, seed=1)
        r = balance(g, t, kernel="lockstep", labeling="none")
        base = balance(g, t, kernel="walk", labeling="serial")
        np.testing.assert_array_equal(base.signs, r.signs)

    def test_walk_requires_labels(self):
        g = make_connected_signed(20, 40, seed=1)
        with pytest.raises(EngineError):
            balance(g, kernel="walk", labeling="none", seed=0)

    def test_parity_rejects_stats(self):
        g = make_connected_signed(20, 40, seed=1)
        with pytest.raises(EngineError):
            balance(g, kernel="parity", collect_stats=True, seed=0)

    def test_unknown_kernel(self):
        g = make_connected_signed(20, 40, seed=1)
        with pytest.raises(EngineError):
            balance(g, kernel="quantum", seed=0)

    def test_unknown_labeling(self):
        g = make_connected_signed(20, 40, seed=1)
        with pytest.raises(EngineError):
            balance(g, labeling="magic", kernel="walk", seed=0)

    def test_partition_flag_does_not_change_result(self):
        g = make_connected_signed(50, 120, seed=2)
        t = bfs_tree(g, seed=2)
        a = balance(g, t, kernel="walk", labeling="serial", partition=True)
        b = balance(g, t, kernel="walk", labeling="serial", partition=False)
        np.testing.assert_array_equal(a.signs, b.signs)


class TestBalanceResult:
    def test_num_flips(self):
        g = fig1_sigma()
        t = bfs_tree(g, root=0, seed=0)
        r = balance(g, t)
        assert r.num_flips == int(r.flipped.sum())
        assert r.num_cycles == g.num_fundamental_cycles

    def test_state_key_identity(self):
        g = make_connected_signed(30, 70, seed=3)
        t = bfs_tree(g, seed=3)
        a = balance(g, t, kernel="walk", labeling="serial")
        b = balance(g, t, kernel="parity")
        assert a.state_key() == b.state_key()

    def test_timers_record_phases(self):
        g = make_connected_signed(30, 70, seed=3)
        with collecting() as metrics:
            balance(g, seed=0)
        assert {"tree_sample", "labeling", "lockstep_kernel"} == set(
            span_stats(metrics.snapshot()))

    def test_walk_kernel_records_its_phases(self):
        g = make_connected_signed(30, 70, seed=3)
        with collecting() as metrics:
            balance(g, seed=0, kernel="walk")
        assert {"tree_sample", "labeling", "adjacency_partition",
                "walk_kernel"} == set(span_stats(metrics.snapshot()))

    def test_counters_passed_through(self):
        g = make_connected_signed(30, 70, seed=3)
        c = Counters()
        balance(g, seed=0, counters=c)
        assert c.get("cycle.count") == g.num_fundamental_cycles

    def test_balanced_graph_shares_structure(self):
        g = make_connected_signed(30, 70, seed=3)
        r = balance(g, seed=1)
        assert r.balanced_graph.indptr is g.indptr
