"""Swap-method campaigns: drivers, checkpointing, and the engine's chunks
(``batch_size`` is accepted and ignored)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud.checkpoint import (
    CampaignMeta,
    load_cloud,
    resume_cloud,
    validate_campaign,
)
from repro.cloud import cloud as cloud_module
from repro.cloud.cloud import sample_cloud
from repro.errors import CheckpointError, ReproError
from repro.parallel.pool import sample_cloud_pool

from tests.conftest import make_connected_signed


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(120, 360, seed=14)


def _attrs(cloud):
    return (
        cloud.status(),
        cloud.influence(),
        cloud.edge_agreement(),
        cloud.flip_counts(),
    )


class TestAutoBatchSize:
    def test_targets_cache_sized_batches(self):
        """The engine picks the chunks: dense chunks stack as many
        states (what the fold holds at its peak, 3(m + n) bytes) as fit
        its byte budget (at least one), swap flushes every 32 states."""
        chunk = cloud_module._chunk_size
        budget = cloud_module._CHUNK_BYTES
        for n, m in ((5, 10), (4_000, 20_000), (2_000, 2_000),
                     (32_000, 160_000), (10, budget), (10, 4 * budget)):
            g = SimpleNamespace(num_vertices=n, num_edges=m)
            per_state = 3 * (m + n)
            rows = chunk("bfs", g)
            assert rows >= 1 and (rows == 1 or rows * per_state <= budget)
            assert (rows + 1) * per_state > budget
            assert chunk("wilson", g) == rows
            assert chunk("swap", g) == 32

    def test_rejects_nonpositive(self, graph):
        for bad in (0, -3):
            with pytest.raises(ReproError):
                sample_cloud(graph, 4, batch_size=bad)
            with pytest.raises(ReproError):
                sample_cloud_pool(graph, 4, workers=1, batch_size=bad)

    def test_sample_cloud_accepts_auto(self, graph):
        auto = sample_cloud(graph, 20, seed=3, batch_size="auto")
        default = sample_cloud(graph, 20, seed=3)
        for a, b in zip(_attrs(auto), _attrs(default)):
            assert np.array_equal(a, b)

    def test_rejects_garbage_batch_size(self, graph):
        with pytest.raises(ReproError):
            sample_cloud(graph, 4, batch_size="big")


class TestSwapCampaigns:
    def test_deterministic_in_seed(self, graph):
        a = sample_cloud(graph, 60, method="swap", seed=7, batch_size=8)
        b = sample_cloud(graph, 60, method="swap", seed=7, batch_size=8)
        for x, y in zip(_attrs(a), _attrs(b)):
            assert np.array_equal(x, y)

    def test_independent_of_batch_size(self, graph, monkeypatch):
        """The engine's chunk is an execution detail: the chain's states
        are a pure function of (seed, index)."""
        clouds = []
        for chunk in (4, 32, 1):
            monkeypatch.setattr(cloud_module, "_SWAP_CHUNK", chunk)
            clouds.append(sample_cloud(graph, 60, method="swap", seed=5))
        a, b, c = clouds
        for x, y, z in zip(_attrs(a), _attrs(b), _attrs(c)):
            assert np.array_equal(x, y)
            assert np.array_equal(x, z)

    def test_pool_matches_sequential(self, graph):
        seq = sample_cloud(
            graph, 90, method="swap", seed=2, batch_size=8, swaps_per_state=2
        )
        pool = sample_cloud_pool(
            graph, 90, workers=3, method="swap", seed=2, batch_size=8,
            swaps_per_state=2,
        )
        assert np.array_equal(seq.status(), pool.status())
        assert np.array_equal(seq.edge_agreement(), pool.edge_agreement())
        assert np.array_equal(
            np.sort(seq.flip_counts()), np.sort(pool.flip_counts())
        )

    def test_swaps_per_state_changes_states(self, graph):
        a = sample_cloud(graph, 40, method="swap", seed=3, batch_size=8)
        b = sample_cloud(
            graph, 40, method="swap", seed=3, batch_size=8, swaps_per_state=5
        )
        assert not np.array_equal(a.flip_counts(), b.flip_counts())

    def test_rejects_nonpositive_swaps(self, graph):
        with pytest.raises(ReproError):
            sample_cloud(graph, 4, method="swap", swaps_per_state=0)


class TestSwapCheckpointing:
    def test_resume_reproduces_uninterrupted_run(self, graph, tmp_path):
        ck = tmp_path / "swap.npz"
        full = sample_cloud(
            graph, 100, method="swap", seed=17, batch_size=8,
            swaps_per_state=3,
        )
        sample_cloud(
            graph, 44, method="swap", seed=17, batch_size=8,
            swaps_per_state=3, checkpoint_path=ck, checkpoint_every=16,
        )
        loaded = load_cloud(ck, graph)
        assert loaded.campaign_meta.swaps_per_state == 3
        resumed = resume_cloud(loaded, 100)
        for a, b in zip(_attrs(full), _attrs(resumed)):
            assert np.array_equal(a, b)

    def test_meta_roundtrip_and_legacy_default(self, graph, tmp_path):
        ck = tmp_path / "bfs.npz"
        sample_cloud(
            graph, 10, seed=1, checkpoint_path=ck, checkpoint_every=0
        )
        loaded = load_cloud(ck, graph)
        # BFS campaigns implicitly use swaps_per_state=1, matching the
        # default read for checkpoints that predate the key.
        assert loaded.campaign_meta.swaps_per_state == 1

    def test_validate_rejects_mismatched_swaps(self):
        stored = CampaignMeta(
            method="swap", seed=1,
            store_states=False, swaps_per_state=3,
        )
        with pytest.raises(CheckpointError):
            validate_campaign(stored, swaps_per_state=2)
        assert validate_campaign(stored)["swaps_per_state"] == 3

    def test_resume_rejects_mismatched_swaps(self, graph, tmp_path):
        ck = tmp_path / "s.npz"
        sample_cloud(
            graph, 24, method="swap", seed=9, batch_size=8,
            swaps_per_state=2, checkpoint_path=ck,
        )
        loaded = load_cloud(ck, graph)
        with pytest.raises(CheckpointError):
            resume_cloud(loaded, 48, swaps_per_state=4)

    def test_pool_salvage_resume_with_swap(self, graph, tmp_path):
        """A swap campaign interrupted mid-pool heals through the
        salvage/resume path to the exact sequential attributes."""
        from repro.errors import EngineError
        from repro.util.faults import WorkerCrash

        ck = tmp_path / "salvage.npz"
        seq = sample_cloud(
            graph, 90, method="swap", seed=6, batch_size=8
        )
        # Swap campaigns partition contiguously: blocks start at 0/30/60.
        crash = WorkerCrash(30)
        with pytest.raises(EngineError):
            sample_cloud_pool(
                graph, 90, workers=3, method="swap", seed=6, batch_size=8,
                checkpoint_path=ck, fault=crash,
            )
        healed = sample_cloud_pool(
            graph, 90, workers=3, method="swap", seed=6, batch_size=8,
            resume_from=ck,
        )
        assert np.array_equal(seq.status(), healed.status())
        assert np.array_equal(
            seq.edge_agreement(), healed.edge_agreement()
        )
