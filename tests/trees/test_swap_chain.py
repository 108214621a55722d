"""Swap-chain sampler: delta exactness, determinism, and statistics."""

import numpy as np
import pytest

from repro.cloud.cloud import sample_cloud
from repro.core.cycles_vectorized import sign_to_root
from repro.core.incremental import TreeDeltaState
from repro.core.labeling import label_tree
from repro.errors import EngineError
from repro.rng import spawn
from repro.trees.bfs import bfs_tree
from repro.trees.sampler import TREE_METHODS, TreeSampler
from repro.trees.swap_chain import SwapChainSampler

from tests.conftest import make_connected_signed


class TestDeltaEqualsFromScratch:
    """Every chain state's incremental labeling / sign_to_root must be
    exactly what label_tree / sign_to_root compute from scratch."""

    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_labeling_and_s2r_match(self, seed):
        g = make_connected_signed(80, 220, seed=seed)
        chain = SwapChainSampler(g, seed=seed, segment_length=64)
        for k in (0, 1, 7, 30, 63, 64, 70):
            st = chain.state_at(k)
            tree = st.spanning_tree()  # validates tree structure
            lab = label_tree(tree)
            assert np.array_equal(st.new_id, lab.new_id)
            assert np.array_equal(st.subtree_size, lab.subtree_size)
            assert np.array_equal(st.s2r, sign_to_root(g, tree))

    def test_subtree_ranges_contiguous(self):
        g = make_connected_signed(50, 140, seed=4)
        chain = SwapChainSampler(g, seed=11)
        st = chain.state_at(25)
        lab = st.labeling()
        for c in range(g.num_vertices):
            if st.parent[c] < 0:  # the root carries sentinel ranges
                continue
            lo, hi = lab.range_lo[c], lab.range_hi[c]
            assert hi - lo + 1 == st.subtree_size[c]
            # the subtree really occupies exactly [lo, hi] in pre-order
            members = np.nonzero((st.new_id >= lo) & (st.new_id <= hi))[0]
            assert len(members) == st.subtree_size[c]

    def test_balanced_signs_match_parity_definition(self):
        g = make_connected_signed(60, 180, seed=8)
        chain = SwapChainSampler(g, seed=3, swaps_per_state=3)
        st = chain.state_at(17)
        signs = st.balanced_signs()
        # balanced sign of (u, v) is s2r[u] * s2r[v]; tree edges keep
        # the input sign by construction.
        expect = (
            st.s2r[g.edge_u].astype(np.int16) * st.s2r[g.edge_v]
        ).astype(np.int8)
        assert np.array_equal(signs, expect)
        assert np.array_equal(signs[st.in_tree], g.edge_sign[st.in_tree])

    def test_swap_against_fresh_delta_state(self):
        """cut_link on a fresh TreeDeltaState agrees with re-labeling."""
        g = make_connected_signed(40, 120, seed=2)
        tree = bfs_tree(g, seed=spawn(7, 0))
        st = TreeDeltaState(g, tree)
        rng = spawn(7, 1)
        for _ in range(40):
            st.random_swap(rng)
            t = st.spanning_tree()
            lab = label_tree(t)
            assert np.array_equal(st.new_id, lab.new_id)
            assert np.array_equal(st.subtree_size, lab.subtree_size)
            assert np.array_equal(st.s2r, sign_to_root(g, t))


class TestChainDeterminism:
    def test_state_is_pure_function_of_index(self):
        g = make_connected_signed(50, 150, seed=6)
        a = SwapChainSampler(g, seed=13)
        b = SwapChainSampler(g, seed=13)
        # Walk a forward, then jump b straight to the same index.
        for k in range(12):
            a.state_at(k)
        assert np.array_equal(a.state_at(11).s2r, b.state_at(11).s2r)
        assert np.array_equal(
            a.state_at(11).parent, b.state_at(11).parent
        )

    def test_block_split_matches_single_block(self):
        """states([0,20)) == states([0,7)) ++ states([7,20)) with fresh
        samplers — the property the pool's block protocol relies on."""
        g = make_connected_signed(45, 130, seed=3)
        whole_signs, whole_s2r = SwapChainSampler(g, seed=5).states(20)
        head = SwapChainSampler(g, seed=5).states(7)
        tail = SwapChainSampler(g, seed=5).states(range(7, 20))
        assert np.array_equal(whole_signs, np.vstack([head[0], tail[0]]))
        assert np.array_equal(whole_s2r, np.vstack([head[1], tail[1]]))

    def test_segment_restart_rebases(self):
        g = make_connected_signed(30, 80, seed=1)
        chain = SwapChainSampler(g, seed=9, segment_length=8)
        # Index 8 opens a new segment: its tree is the fresh BFS draw,
        # independent of anything in segment 0.
        tree = chain.tree(8)
        fresh = bfs_tree(g, seed=spawn(chain.seed, 8))
        assert np.array_equal(tree.parent, fresh.parent)
        assert chain.segment_base(7) == 0
        assert chain.segment_base(8) == 8

    @pytest.mark.parametrize("root", [None, 4])
    def test_every_segment_base_is_bfs_tree(self, root):
        """Each segment opens on ``bfs_tree(graph, root, spawn(seed,
        base))``, whether the chain steps into it or jumps there."""
        g = make_connected_signed(40, 110, seed=12)
        stepped = SwapChainSampler(g, seed=21, root=root, segment_length=5)
        for base in (0, 5, 10, 15, 20):
            fresh = bfs_tree(g, root=root, seed=spawn(21, base))
            jumped = SwapChainSampler(
                g, seed=21, root=root, segment_length=5
            )
            for chain in (jumped, stepped):
                tree = chain.tree(base)
                assert tree.root == fresh.root
                assert np.array_equal(tree.parent, fresh.parent)
                assert np.array_equal(tree.parent_edge, fresh.parent_edge)
                assert np.array_equal(
                    chain.state_at(base).s2r, sign_to_root(g, fresh)
                )
            stepped.state_at(base + 4)

    def test_backwards_index_replays(self):
        g = make_connected_signed(30, 80, seed=5)
        chain = SwapChainSampler(g, seed=2)
        late = chain.state_at(15).s2r.copy()
        early = chain.state_at(3).s2r.copy()  # forces a re-base + replay
        assert np.array_equal(chain.state_at(15).s2r, late)
        assert np.array_equal(chain.state_at(3).s2r, early)

    def test_sampler_integration(self):
        g = make_connected_signed(40, 100, seed=7)
        sampler = TreeSampler(g, method="swap", seed=42, swaps_per_state=2)
        direct = SwapChainSampler(g, seed=42, swaps_per_state=2)
        assert np.array_equal(sampler.tree(5).parent, direct.tree(5).parent)
        signs, s2r = sampler.swap_states(4, start=2)
        d_signs, d_s2r = SwapChainSampler(
            g, seed=42, swaps_per_state=2
        ).states(4, start=2)
        assert np.array_equal(signs, d_signs)
        assert np.array_equal(s2r, d_s2r)

    def test_registry_stub_raises(self):
        g = make_connected_signed(10, 15, seed=0)
        with pytest.raises(EngineError):
            TREE_METHODS["swap"](g, seed=0)

    def test_rejects_bad_parameters(self):
        g = make_connected_signed(10, 15, seed=0)
        with pytest.raises(EngineError):
            SwapChainSampler(g, swaps_per_state=0)
        with pytest.raises(EngineError):
            SwapChainSampler(g, segment_length=0)
        with pytest.raises(EngineError):
            SwapChainSampler(g, seed=0).states([])
        with pytest.raises(EngineError):
            SwapChainSampler(g, seed=0).state_at(-1)
        with pytest.raises(EngineError):
            TreeSampler(g, method="bfs", seed=0).swap_chain()


class TestSwapCloudStatistics:
    """Swap clouds estimate a different cloud from independent-BFS
    clouds (EXPERIMENTS.md); these loose bounds are sanity checks."""

    def test_frustration_bound_close_to_bfs(self):
        g = make_connected_signed(150, 450, seed=12)
        bfs = sample_cloud(g, 300, seed=4, batch_size=16)
        swp = sample_cloud(
            g, 300, method="swap", seed=4, batch_size=16, swaps_per_state=4
        )
        lo = bfs.frustration_upper_bound()
        hi = swp.frustration_upper_bound()
        # Both estimate the same minimum; allow 10% relative slack.
        assert abs(hi - lo) <= max(5, 0.10 * lo)
        # Mean flip counts agree within a few percent.
        assert abs(
            bfs.flip_counts().mean() - swp.flip_counts().mean()
        ) <= 0.05 * bfs.flip_counts().mean()

    def test_every_state_is_balanced(self):
        # add_batch validates balance internally; reaching the end
        # without NotBalancedError is the assertion.
        g = make_connected_signed(60, 200, seed=9)
        cloud = sample_cloud(
            g, 64, method="swap", seed=1, batch_size=8, swaps_per_state=2
        )
        assert cloud.num_states == 64
