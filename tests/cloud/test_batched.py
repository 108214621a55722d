"""Tree-batched cloud engine: seed-for-seed equivalence with the
sequential Alg. 2 driver, across every consensus attribute."""

import numpy as np
import pytest

from repro.cloud.cloud import FrustrationCloud, sample_cloud
from repro.core.parity_batch import balance_batch
from repro.core.cycles_vectorized import sign_to_root
from repro.errors import NotBalancedError, ReproError
from repro.harary.bipartition import sides_from_sign_to_root
from repro.parallel.pool import sample_cloud_pool
from repro.perf.compat import Counters
from repro.perf.export import span_stats
from repro.perf.registry import collecting
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed

ATTRIBUTES = (
    "status",
    "influence",
    "edge_agreement",
    "edge_coside",
    "vertex_agreement",
    "status_volatility",
)


def assert_clouds_identical(a: FrustrationCloud, b: FrustrationCloud) -> None:
    assert a.num_states == b.num_states
    for name in ATTRIBUTES:
        lhs, rhs = getattr(a, name)(), getattr(b, name)()
        assert np.array_equal(lhs, rhs), f"{name} differs"
    assert np.array_equal(a.flip_counts(), b.flip_counts())
    assert a.frustration_upper_bound() == b.frustration_upper_bound()


class TestBatchedParityKernel:
    def test_sign_to_root_batch_matches_single(self):
        g = make_connected_signed(50, 130, seed=4)
        sampler = TreeSampler(g, seed=21)
        batch = sampler.batch(8)
        s2r = batch.sign_to_root
        for i in range(8):
            assert np.array_equal(s2r[i], sign_to_root(g, sampler.tree(i)))

    def test_balance_batch_matches_all_kernels(self):
        from repro.core.balancer import balance

        g = make_connected_signed(40, 110, seed=5)
        sampler = TreeSampler(g, seed=13)
        batch = sampler.batch(6)
        signs, _ = balance_batch(g, batch)
        for i in range(6):
            tree = sampler.tree(i)
            for kernel in ("walk", "lockstep", "parity"):
                result = balance(g, tree, kernel=kernel)
                assert np.array_equal(signs[i], result.signs), (i, kernel)

    def test_counters_recorded(self):
        g = make_connected_signed(30, 80, seed=6)
        counters = Counters()
        batch = TreeSampler(g, seed=1).batch(4, counters=counters)
        balance_batch(g, batch, counters=counters)
        stats = counters.region_stats()
        assert "batch.bfs_round" in stats
        assert "parity.top_down" in stats
        assert counters.get("cycle.count") == 4 * g.num_fundamental_cycles


class TestSeedForSeedEquivalence:
    @pytest.mark.parametrize("batch_size", [2, 8, 32, 100])
    def test_batched_equals_sequential(self, batch_size):
        g = make_connected_signed(70, 220, seed=10)
        seq = sample_cloud(g, 25, seed=42)
        bat = sample_cloud(g, 25, seed=42, batch_size=batch_size)
        assert_clouds_identical(seq, bat)

    def test_unique_states_match(self):
        g = make_connected_signed(20, 45, seed=11)
        seq = sample_cloud(g, 15, seed=3, store_states=True)
        bat = sample_cloud(g, 15, seed=3, store_states=True, batch_size=4)
        assert seq.unique_states() == bat.unique_states()
        assert seq.num_unique_states == bat.num_unique_states

    def test_batched_merge_matches_whole(self):
        g = make_connected_signed(30, 70, seed=12)
        whole = sample_cloud(g, 20, seed=9, batch_size=8)
        left = sample_cloud(g, 20, seed=9, batch_size=8)
        # merging an empty-state-compatible split via two runs of the
        # same stream halves
        a = FrustrationCloud(g)
        sampler = TreeSampler(g, seed=9)
        for start in (0, 10):
            batch = sampler.batch(10, start=start)
            signs, s2r = balance_batch(g, batch)
            a.add_batch(signs, sides_from_sign_to_root(s2r))
        assert_clouds_identical(whole, a)
        assert_clouds_identical(whole, left)

    def test_phase_timer_has_batched_phases(self, monkeypatch):
        from repro.cloud import cloud as cloud_module

        g = make_connected_signed(25, 60, seed=13)
        # An engine chunk of 4 states.
        monkeypatch.setattr(cloud_module, "_chunk_size", lambda *_: 4)
        with collecting() as metrics:
            sample_cloud(g, 8, seed=1)
        stats = span_stats(metrics.snapshot())
        for phase in ("tree_sample", "balance", "accumulate"):
            assert stats[f"campaign/block/{phase}"][0] > 0.0
        assert stats["campaign/block/tree_sample"][1] == 2  # two chunks of 4

    def test_non_bfs_method_falls_back(self):
        g = make_connected_signed(20, 50, seed=14)
        seq = sample_cloud(g, 6, method="dfs", seed=5)
        bat = sample_cloud(g, 6, method="dfs", seed=5, batch_size=3)
        assert_clouds_identical(seq, bat)


class TestAddBatchValidation:
    def test_rejects_bad_shapes(self):
        g = make_connected_signed(10, 20, seed=0)
        cloud = FrustrationCloud(g)
        with pytest.raises(ReproError):
            cloud.add_batch(np.ones((2, 3), dtype=np.int8))
        with pytest.raises(ReproError):
            cloud.add_batch(
                np.ones((2, g.num_edges), dtype=np.int8),
                np.zeros((3, g.num_vertices), dtype=np.int8),
            )

    def test_rejects_unbalanced_rows(self):
        g = make_connected_signed(15, 30, seed=1)
        sampler = TreeSampler(g, seed=2)
        batch = sampler.batch(2)
        signs, s2r = balance_batch(g, batch)
        sides = sides_from_sign_to_root(s2r)
        signs = signs.copy()
        signs[1, 0] = -signs[1, 0]  # breaks side consistency for row 1
        cloud = FrustrationCloud(g)
        with pytest.raises(NotBalancedError):
            cloud.add_batch(signs, sides)

    def test_sides_omitted_uses_oracle(self):
        g = make_connected_signed(15, 35, seed=2)
        sampler = TreeSampler(g, seed=4)
        batch = sampler.batch(3)
        signs, _ = balance_batch(g, batch)
        a = FrustrationCloud(g)
        a.add_batch(signs)  # per-row oracle path
        b = FrustrationCloud(g)
        for row in signs:
            b.add_signs(row)
        assert_clouds_identical(a, b)

    def test_batch_size_must_be_positive(self):
        g = make_connected_signed(10, 20, seed=3)
        with pytest.raises(ReproError):
            sample_cloud(g, 4, batch_size=0)


class TestPoolBatched:
    def test_pool_batched_matches_sequential(self):
        g = make_connected_signed(40, 100, seed=15)
        seq = sample_cloud(g, 16, seed=8)
        pooled = sample_cloud_pool(g, 16, workers=2, seed=8, batch_size=4)
        # Every attribute is an exact sum and the contiguous worker
        # blocks merge in index order, so even the flip-count log
        # matches bit for bit.
        for name in ATTRIBUTES:
            assert np.array_equal(
                getattr(seq, name)(), getattr(pooled, name)()
            ), name
        assert np.array_equal(seq.flip_counts(), pooled.flip_counts())

    def test_single_worker_batched(self):
        g = make_connected_signed(30, 70, seed=16)
        seq = sample_cloud(g, 10, seed=6)
        pooled = sample_cloud_pool(g, 10, workers=1, seed=6, batch_size=8)
        assert_clouds_identical(seq, pooled)


class TestFlipCountBuffer:
    def test_growth_past_initial_capacity(self):
        g = make_connected_signed(12, 25, seed=17)
        cloud = sample_cloud(g, 150, seed=2, batch_size=37)
        assert len(cloud.flip_counts()) == 150
        seq = sample_cloud(g, 150, seed=2)
        assert np.array_equal(cloud.flip_counts(), seq.flip_counts())

    def test_checkpoint_roundtrip_keeps_flip_counts(self, tmp_path):
        from repro.cloud.checkpoint import load_cloud, save_cloud

        g = make_connected_signed(15, 30, seed=18)
        cloud = sample_cloud(g, 12, seed=1, batch_size=5)
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path)
        back = load_cloud(path, g)
        assert np.array_equal(back.flip_counts(), cloud.flip_counts())
        assert back.frustration_upper_bound() == cloud.frustration_upper_bound()

    def test_resume_batched_matches_uninterrupted(self, tmp_path):
        from repro.cloud.checkpoint import resume_cloud

        g = make_connected_signed(20, 45, seed=19)
        partial = sample_cloud(g, 7, seed=5, batch_size=4)
        resumed = resume_cloud(partial, 20, seed=5, batch_size=6)
        whole = sample_cloud(g, 20, seed=5)
        assert_clouds_identical(resumed, whole)
