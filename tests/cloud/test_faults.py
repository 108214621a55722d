"""Crash-safety tests: checkpoint round-trips under injected faults.

These prove the campaign runtime's contract: a kill at any instant of
a checkpoint write leaves the previous checkpoint loadable, damaged
files surface as :class:`CheckpointError` (never a cryptic
``KeyError``/``ValueError`` from numpy), recovery falls back through
the rotation chain, and a resumed campaign is bit-identical to an
uninterrupted run with the same seed.
"""

import numpy as np
import pytest

from repro.cloud import sample_cloud
from repro.cloud.checkpoint import (
    CampaignMeta,
    graph_fingerprint,
    load_checkpoint,
    load_cloud,
    recover_cloud,
    resume_cloud,
    rotated_paths,
    save_cloud,
)
from repro.errors import CheckpointError
from repro.util.faults import (
    SimulatedCrash,
    flip_bits,
    kill_before_replace,
    kill_mid_write,
    truncate_file,
)

from tests.conftest import make_connected_signed


@pytest.fixture
def graph():
    return make_connected_signed(40, 90, seed=0)


class TestAtomicity:
    def test_kill_mid_write_preserves_previous(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        sample_cloud(graph, 8, seed=7, checkpoint_path=path)
        with kill_mid_write(100):
            with pytest.raises(SimulatedCrash):
                save_cloud(sample_cloud(graph, 12, seed=7), path)
        cloud, meta, source = recover_cloud(path, graph)
        assert source == path
        assert cloud.num_states == 8
        # The interrupted write left only a torn temp file behind.
        assert (tmp_path / "c.npz.tmp").exists()
        # Resume from the survivor is bit-identical to never crashing.
        resumed = resume_cloud(cloud, 20)
        full = sample_cloud(graph, 20, seed=7)
        np.testing.assert_array_equal(full.status(), resumed.status())
        np.testing.assert_array_equal(full.influence(), resumed.influence())
        np.testing.assert_array_equal(
            full.flip_counts(), resumed.flip_counts()
        )

    def test_kill_before_replace_preserves_previous(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        sample_cloud(graph, 8, seed=7, checkpoint_path=path)
        with kill_before_replace():
            with pytest.raises(SimulatedCrash):
                save_cloud(sample_cloud(graph, 12, seed=7), path)
        cloud, _meta, _src = recover_cloud(path, graph)
        assert cloud.num_states == 8

    def test_kill_during_rotation_still_recoverable(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        save_cloud(sample_cloud(graph, 4, seed=7), path, keep=3)
        save_cloud(sample_cloud(graph, 8, seed=7), path, keep=3)
        # Crash on the rotation rename (path -> path.1): the newest
        # checkpoint file must survive somewhere in the chain.
        with kill_before_replace(after_calls=0):
            with pytest.raises(SimulatedCrash):
                save_cloud(sample_cloud(graph, 12, seed=7), path, keep=3)
        cloud, _meta, _src = recover_cloud(path, graph)
        assert cloud.num_states == 8

    def test_stray_tmp_never_consulted(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        save_cloud(sample_cloud(graph, 8, seed=7), path)
        (tmp_path / "c.npz.tmp").write_bytes(b"torn garbage")
        cloud, _meta, _src = recover_cloud(path, graph)
        assert cloud.num_states == 8


class TestCorruption:
    def test_missing_file_raises_checkpoint_error(self, graph, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz", graph)
        with pytest.raises(CheckpointError, match="no loadable"):
            recover_cloud(tmp_path / "nope.npz", graph)

    @pytest.mark.parametrize("keep_bytes", [0, 10, 200])
    def test_truncated_raises_checkpoint_error(
        self, graph, tmp_path, keep_bytes
    ):
        path = tmp_path / "c.npz"
        save_cloud(sample_cloud(graph, 8, seed=7), path)
        truncate_file(path, keep_bytes=keep_bytes)
        with pytest.raises(CheckpointError):
            load_cloud(path, graph)

    def test_half_truncated_raises_checkpoint_error(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        save_cloud(sample_cloud(graph, 8, seed=7), path)
        truncate_file(path, fraction=0.5)
        with pytest.raises(CheckpointError):
            load_cloud(path, graph)

    def test_bit_flips_raise_checkpoint_error(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        save_cloud(sample_cloud(graph, 8, seed=7), path)
        flip_bits(path, count=64, seed=1)
        with pytest.raises(CheckpointError):
            load_cloud(path, graph)

    def test_wrong_shape_raises_checkpoint_error(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        n, m = graph.num_vertices, graph.num_edges
        np.savez_compressed(
            path.open("wb"),
            version=np.array([2]),
            fingerprint=np.frombuffer(
                graph_fingerprint(graph).encode("ascii"), dtype=np.uint8
            ),
            num_states=np.array([3]),
            store_states=np.array([0]),
            majority=np.zeros(n + 5),  # wrong length
            majority_sq=np.zeros(n),
            coalition=np.zeros(n),
            edge_preserved=np.zeros(m, dtype=np.int64),
            edge_coside=np.zeros(m, dtype=np.int64),
            flip_counts=np.zeros(3, dtype=np.int64),
        )
        with pytest.raises(CheckpointError, match="shape"):
            load_cloud(path, graph)

    def test_junk_npz_raises_checkpoint_error(self, graph, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(CheckpointError, match="not a cloud checkpoint"):
            load_cloud(path, graph)


class TestRotationRecovery:
    def test_rotation_keeps_history(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        for states in (4, 8, 12):
            save_cloud(sample_cloud(graph, states, seed=7), path, keep=3)
        chain = rotated_paths(path)
        assert [p.name for p in chain] == ["c.npz", "c.npz.1", "c.npz.2"]
        assert load_cloud(chain[1], graph).num_states == 8
        assert load_cloud(chain[2], graph).num_states == 4

    def test_recover_falls_back_past_corruption(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        for states in (4, 8, 12):
            save_cloud(sample_cloud(graph, states, seed=7), path, keep=3)
        truncate_file(path, keep_bytes=25)
        cloud, _meta, source = recover_cloud(path, graph)
        assert source.name == "c.npz.1"
        assert cloud.num_states == 8
        # And past two layers of damage.
        flip_bits(source, count=64, seed=3)
        cloud, _meta, source = recover_cloud(path, graph)
        assert source.name == "c.npz.2"
        assert cloud.num_states == 4
        # Resuming the survivor still reproduces the full campaign.
        resumed = resume_cloud(cloud, 20, seed=7)
        full = sample_cloud(graph, 20, seed=7)
        np.testing.assert_array_equal(full.status(), resumed.status())

    def test_recover_reports_every_attempt(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        for states in (4, 8):
            save_cloud(sample_cloud(graph, states, seed=7), path, keep=2)
        truncate_file(path, keep_bytes=10)
        truncate_file(rotated_paths(path)[1], keep_bytes=10)
        with pytest.raises(CheckpointError, match="c.npz.1"):
            recover_cloud(path, graph)


class TestResumeValidation:
    def _checkpoint(self, graph, tmp_path, **kwargs):
        path = tmp_path / "c.npz"
        sample_cloud(graph, 8, checkpoint_path=path, **kwargs)
        return load_cloud(path, graph)

    def test_mismatched_method_rejected(self, graph, tmp_path):
        cloud = self._checkpoint(graph, tmp_path, seed=7, method="bfs")
        with pytest.raises(CheckpointError, match="method"):
            resume_cloud(cloud, 20, method="dfs")

    def test_mismatched_seed_rejected(self, graph, tmp_path):
        cloud = self._checkpoint(graph, tmp_path, seed=7)
        with pytest.raises(CheckpointError, match="seed"):
            resume_cloud(cloud, 20, seed=5)

    def test_batch_size_ignored_on_resume(self, graph, tmp_path):
        """``batch_size`` is not campaign config: a resume under any
        value continues the stored campaign exactly."""
        cloud = self._checkpoint(graph, tmp_path, seed=7, batch_size=4)
        resumed = resume_cloud(cloud, 20, batch_size=2)
        full = sample_cloud(graph, 20, seed=7)
        np.testing.assert_array_equal(full.status(), resumed.status())
        np.testing.assert_array_equal(
            full.flip_counts(), resumed.flip_counts()
        )

    def test_explicit_campaign_arg_validates(self, graph, tmp_path):
        cloud = sample_cloud(graph, 8, seed=7)
        stored = CampaignMeta(
            method="bfs", seed=7,
            store_states=False,
        )
        with pytest.raises(CheckpointError, match="seed"):
            resume_cloud(cloud, 20, seed=3, campaign=stored)

    def test_resume_inherits_stored_campaign(self, graph, tmp_path):
        cloud = self._checkpoint(
            graph, tmp_path, seed=11, method="dfs", batch_size=1
        )
        resumed = resume_cloud(cloud, 20)  # no parameters respelled
        full = sample_cloud(graph, 20, seed=11, method="dfs")
        np.testing.assert_array_equal(full.status(), resumed.status())

    def test_batched_resume_bit_identical(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        sample_cloud(graph, 8, seed=7, batch_size=4, checkpoint_path=path)
        cloud = load_cloud(path, graph)
        resumed = resume_cloud(cloud, 20)
        full = sample_cloud(graph, 20, seed=7, batch_size=4)
        np.testing.assert_array_equal(full.status(), resumed.status())
        np.testing.assert_array_equal(full.influence(), resumed.influence())
        np.testing.assert_array_equal(
            full.edge_agreement(), resumed.edge_agreement()
        )
        np.testing.assert_array_equal(
            full.flip_counts(), resumed.flip_counts()
        )

    def test_periodic_checkpoints_rotate(self, graph, tmp_path):
        path = tmp_path / "c.npz"
        sample_cloud(
            graph, 12, seed=7, checkpoint_path=path, checkpoint_every=4,
            keep_checkpoints=3,
        )
        chain = rotated_paths(path)
        assert len(chain) == 3
        assert load_cloud(chain[0], graph).num_states == 12
        assert load_cloud(chain[1], graph).num_states == 12  # final + step
        assert load_cloud(chain[2], graph).num_states == 8
