"""Tests for frustration-cloud accumulation and the paper's Fig. 1–3
anchors (8 trees, 5 unique states, status 0.75)."""

import numpy as np
import pytest

from repro.cloud.cloud import FrustrationCloud, exact_cloud, sample_cloud
from repro.core import balance
from repro.errors import NotBalancedError, ReproError
from repro.graph.datasets import fig1_sigma
from repro.graph.generators import cycle_graph
from repro.perf.journal import journaling, read_journal

from tests.conftest import make_connected_signed


class TestFig1Anchors:
    """The validation anchors of DESIGN.md §6."""

    @pytest.fixture(scope="class")
    def cloud(self):
        return exact_cloud(fig1_sigma())

    def test_eight_tree_states(self, cloud):
        assert cloud.num_states == 8

    def test_five_unique_states(self, cloud):
        # Fig. 2: the frustration cloud of Σ has 5 unique nearest
        # balanced states.
        assert cloud.num_unique_states == 5

    def test_top_left_vertex_status(self, cloud):
        # Fig. 3: the top-left vertex ends up in the larger bipartition
        # 6 of 8 times -> status 0.75.
        assert cloud.status()[0] == pytest.approx(0.75)

    def test_one_state_repeats_most(self, cloud):
        # Fig. 1: the top balanced state is reached by more trees than
        # the others.
        multiplicities = sorted(cloud.unique_states().values(), reverse=True)
        assert multiplicities[0] > multiplicities[-1]
        assert sum(multiplicities) == 8

    def test_flip_counts_and_frustration_bound(self, cloud):
        # Σ has frustration index 1.  The cloud contains nearest states
        # with *varying* switch counts (§2.2 / [33]): minimal means no
        # subset of the flips balances, not globally fewest flips.
        counts = set(cloud.flip_counts().tolist())
        assert min(counts) == 1
        assert counts <= {1, 2}
        assert cloud.frustration_upper_bound() == 1


class TestAccumulator:
    def test_rejects_unbalanced_state(self):
        g = cycle_graph([1, 1, -1])
        cloud = FrustrationCloud(g)
        with pytest.raises(NotBalancedError):
            cloud.add_signs(g.edge_sign)

    def test_empty_cloud_raises(self):
        g = fig1_sigma()
        cloud = FrustrationCloud(g)
        with pytest.raises(ReproError):
            cloud.status()

    def test_unique_states_requires_flag(self):
        g = fig1_sigma()
        cloud = FrustrationCloud(g, store_states=False)
        cloud.add_result(balance(g, seed=0))
        with pytest.raises(ReproError):
            cloud.unique_states()

    def test_status_bounds(self):
        g = make_connected_signed(60, 150, seed=0)
        cloud = sample_cloud(g, 20, seed=0)
        st = cloud.status()
        assert np.all(st >= 0.0) and np.all(st <= 1.0)

    def test_influence_bounds(self):
        g = make_connected_signed(60, 150, seed=0)
        cloud = sample_cloud(g, 20, seed=0)
        inf = cloud.influence()
        assert np.all(inf >= 0.0) and np.all(inf <= 1.0)

    def test_edge_agreement_one_for_never_flipped(self):
        g = make_connected_signed(60, 150, seed=1)
        cloud = sample_cloud(g, 10, seed=1)
        agree = cloud.edge_agreement()
        # Tree edges never flip, and every edge is a tree edge in some
        # state, but at minimum: agreement is a valid probability.
        assert np.all(agree >= 0.0) and np.all(agree <= 1.0)
        assert np.any(agree == 1.0)

    def test_vertex_agreement_mean_of_incident(self):
        g = fig1_sigma()
        cloud = exact_cloud(g)
        edge_agree = cloud.edge_agreement()
        v_agree = cloud.vertex_agreement()
        # Vertex 1 has edges to 0 and 3.
        e01 = g.find_edge(0, 1)
        e13 = g.find_edge(1, 3)
        assert v_agree[1] == pytest.approx((edge_agree[e01] + edge_agree[e13]) / 2)

    def test_flip_counts_are_an_ascending_multiset(self):
        g = make_connected_signed(40, 100, seed=2)
        cloud = sample_cloud(g, 5, seed=2)
        flips = cloud.flip_counts()
        assert len(flips) == 5
        assert np.all(np.diff(flips) >= 0)
        assert flips[0] == cloud.frustration_upper_bound()


class TestSampleCloud:
    def test_deterministic(self):
        g = make_connected_signed(50, 120, seed=3)
        a = sample_cloud(g, 10, seed=9).status()
        b = sample_cloud(g, 10, seed=9).status()
        np.testing.assert_array_equal(a, b)

    def test_method_choice_changes_cloud(self):
        g = make_connected_signed(50, 150, seed=3)
        a = sample_cloud(g, 10, method="bfs", seed=4)
        b = sample_cloud(g, 10, method="dfs", seed=4)
        assert not np.array_equal(a.status(), b.status())

    def test_negative_num_states_rejected_up_front(self, tmp_path):
        g = make_connected_signed(20, 40, seed=1)
        journal, ckpt = tmp_path / "run.jsonl", tmp_path / "c.npz"
        with journaling(journal):
            with pytest.raises(ReproError, match="num_states"):
                sample_cloud(g, -3, checkpoint_path=ckpt)
        assert read_journal(journal) == []
        assert not ckpt.exists()

    def test_timers_accumulate(self):
        from repro.perf.export import span_stats
        from repro.perf.registry import collecting

        g = make_connected_signed(40, 100, seed=1)
        with collecting() as metrics:
            sample_cloud(g, 5, seed=0)
            sample_cloud(g, 3, seed=1)
        stats = span_stats(metrics.snapshot())
        # One engine chunk per campaign here: the engine stacks many
        # more than five states of a 100-edge graph per chunk.
        assert stats["campaign/block/tree_sample"][1] == 2
        assert "campaign/block/accumulate" in stats

    def test_status_converges_on_balanced_graph(self):
        # A balanced graph has exactly one nearest state: itself.
        g = cycle_graph([1, -1, -1, 1])
        cloud = sample_cloud(g, 6, seed=0, store_states=True)
        assert cloud.num_unique_states == 1
        assert cloud.flip_counts().sum() == 0
