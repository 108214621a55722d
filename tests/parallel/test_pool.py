"""Tests for the process-pool cloud driver and cloud merging."""

import numpy as np
import pytest

from repro.cloud import FrustrationCloud, sample_cloud
from repro.cloud.checkpoint import (
    CampaignMeta,
    load_checkpoint,
    load_cloud,
    recover_cloud,
    resume_cloud,
    rotated_paths,
    save_cloud,
)
from repro.core import balance
from repro.errors import CheckpointError, EngineError, ReproError
from repro.graph.build import from_edges
from repro.parallel.pool import (
    CampaignTask,
    _contiguous_blocks,
    plan_blocks,
    sample_cloud_pool,
)
from repro.util.faults import SimulatedCrash, WorkerCrash

from tests.conftest import make_connected_signed

def _payload(cloud, path) -> dict:
    """The checkpoint arrays of *cloud*, minus the run's timings."""
    save_cloud(cloud, path)
    with np.load(path) as data:
        return {key: data[key].tobytes() for key in data.files
                if key != "metrics_json"}


# The blocks a fresh 12-state, 3-worker campaign runs; the fault tests
# aim at the middle one (FIRST, MIDDLE, LAST).
FIRST, MIDDLE, LAST = _contiguous_blocks(12, 3)


class TestMerge:
    def test_merge_equals_sequential(self):
        g = make_connected_signed(40, 100, seed=0)
        a = FrustrationCloud(g, store_states=True)
        b = FrustrationCloud(g, store_states=True)
        full = FrustrationCloud(g, store_states=True)
        for i in range(10):
            r = balance(g, seed=i)
            (a if i % 2 == 0 else b).add_result(r)
            full.add_result(r)
        a.merge(b)
        np.testing.assert_allclose(a.status(), full.status())
        np.testing.assert_allclose(a.edge_agreement(), full.edge_agreement())
        assert a.num_unique_states == full.num_unique_states
        assert sorted(a.flip_counts()) == sorted(full.flip_counts())

    def test_merge_rejects_different_structure(self):
        a = FrustrationCloud(make_connected_signed(10, 20, seed=0))
        b = FrustrationCloud(make_connected_signed(12, 20, seed=0))
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            a.merge(b)

    def test_merge_rejects_mixed_store_flags(self):
        g = make_connected_signed(10, 20, seed=0)
        a = FrustrationCloud(g, store_states=True)
        b = FrustrationCloud(g, store_states=False)
        with pytest.raises(ReproError):
            a.merge(b)


class TestBlockShipping:
    @pytest.mark.parametrize("method", ["bfs", "swap"])
    def test_block_result_ships_without_the_graph(self, method, tmp_path):
        """A pool block's cloud travels back without the graph the
        parent already holds, and merges to the same cloud."""
        import pickle

        g = make_connected_signed(300, 1500, seed=3)
        task = CampaignTask(method=method, seed=4, store_states=False)
        block = task(g, (0, 40, 1))
        shipped = pickle.dumps(task.pack(block))
        assert len(shipped) < len(pickle.dumps(g))
        landed = task.unpack(g, pickle.loads(shipped))
        assert landed.graph is g
        landed.merge(task(g, (40, 64, 1)))
        seq = sample_cloud(g, 64, method=method, seed=4)
        assert _payload(landed, tmp_path / "m.npz") == _payload(
            seq, tmp_path / "s.npz"
        )


class TestPool:
    def test_single_worker_matches_sequential(self):
        g = make_connected_signed(40, 100, seed=1)
        seq = sample_cloud(g, 9, seed=5)
        pool = sample_cloud_pool(g, 9, workers=1, seed=5)
        np.testing.assert_allclose(seq.status(), pool.status())

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_matches_sequential(self, workers):
        g = make_connected_signed(40, 100, seed=1)
        seq = sample_cloud(g, 10, seed=5)
        pool = sample_cloud_pool(g, 10, workers=workers, seed=5)
        np.testing.assert_allclose(seq.status(), pool.status())
        np.testing.assert_allclose(seq.influence(), pool.influence())
        assert pool.num_states == 10

    def test_more_workers_than_states(self):
        g = make_connected_signed(20, 40, seed=2)
        pool = sample_cloud_pool(g, 3, workers=8, seed=1)
        assert pool.num_states == 3

    def test_rejects_bad_args(self):
        g = from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(EngineError):
            sample_cloud_pool(g, 0)
        with pytest.raises(EngineError):
            sample_cloud_pool(g, 5, workers=0)

    def test_final_checkpoint_is_sequentially_resumable(self, tmp_path):
        g = make_connected_signed(30, 60, seed=1)
        ckpt = tmp_path / "pool.npz"
        sample_cloud_pool(g, 9, workers=3, seed=5, checkpoint_path=ckpt)
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks is None  # completed run is a full prefix
        resumed = resume_cloud(cloud, 15)
        seq = sample_cloud(g, 15, seed=5)
        np.testing.assert_allclose(seq.status(), resumed.status())
        np.testing.assert_array_equal(
            resumed.flip_counts(), seq.flip_counts()
        )


    def test_batch_size_is_accepted_and_ignored(self, tmp_path):
        """Every campaign entry point takes ``batch_size`` and drops it:
        the checkpoint records no batch size, and any value gives the
        default campaign's payload."""
        g = make_connected_signed(40, 100, seed=1)
        pool = sample_cloud_pool(g, 8, seed=5, batch_size="auto")
        assert not hasattr(pool.campaign_meta, "batch_size")
        ckpt = tmp_path / "auto.npz"
        sample_cloud(g, 4, seed=5, batch_size=3, checkpoint_path=ckpt)
        with np.load(ckpt) as data:
            assert "campaign_batch_size" not in data.files
        resumed = resume_cloud(load_cloud(ckpt, g), 8, batch_size="auto")
        assert _payload(resumed, tmp_path / "r.npz") == _payload(
            sample_cloud_pool(g, 8, seed=5, workers=1), tmp_path / "p.npz"
        ) == _payload(pool, tmp_path / "q.npz")


class TestPeriodicCheckpoints:
    def test_pool_chain_falls_on_block_boundaries_and_resumes(
        self, tmp_path
    ):
        g = make_connected_signed(30, 60, seed=4)
        ckpt = tmp_path / "run.npz"
        pooled = sample_cloud_pool(
            g, 15, workers=2, seed=3, checkpoint_path=ckpt,
            checkpoint_every=3, keep_checkpoints=3,
        )
        want = _payload(sample_cloud(g, 15, seed=3), tmp_path / "one.npz")
        assert _payload(pooled, tmp_path / "pooled.npz") == want
        chain = rotated_paths(ckpt)
        assert len(chain) == 3
        for k, path in enumerate(chain):
            cloud, meta = load_checkpoint(path, g)
            assert cloud.num_states % 3 == 0
            assert all(
                len(range(*block)) <= 3 for block in meta.done_blocks or ()
            )
            resumed = resume_cloud(cloud, 15)
            assert _payload(resumed, tmp_path / f"{k}.npz") == want


class TestRemainingBlocks:
    """The blocks :func:`plan_blocks` cuts a campaign's remaining
    indices into: contiguous, step 1, in index order."""

    def test_fresh_split_is_contiguous(self):
        assert plan_blocks((), 10, 3) == [(0, 3, 1), (3, 6, 1), (6, 10, 1)]
        assert plan_blocks((), 2, 8) == [(0, 1, 1), (1, 2, 1)]
        assert plan_blocks((), 0, 3) == []

    def test_prefix_resume_splits_the_tail(self):
        assert plan_blocks(((0, 6, 1),), 12, 2) == [(6, 9, 1), (9, 12, 1)]
        assert plan_blocks(((0, 12, 1),), 12, 2) == []

    def test_salvage_resume_fills_missing_residues(self):
        # Strided rows, as older versions wrote them to salvage
        # checkpoints, leave single-index gaps.
        done = ((0, 12, 3), (2, 12, 3))
        assert plan_blocks(done, 12, 3) == [
            (1, 2, 1), (4, 5, 1), (7, 8, 1), (10, 11, 1)
        ]
        # Extending the target adds the tail beyond the stored rows.
        assert plan_blocks(done, 15, 3)[-1] == (12, 15, 1)

    def test_mixed_shapes_never_span_a_covered_index(self):
        done = ((0, 4, 1), (5, 12, 3))
        assert plan_blocks(done, 12, 2) == [
            (4, 5, 1), (6, 7, 1), (7, 8, 1), (9, 11, 1)
        ]

    def test_blocks_cover_exactly_the_campaign(self):
        for done in [(), ((0, 7, 1),), ((1, 20, 4), (3, 20, 4))]:
            blocks = plan_blocks(done, 20, 4)
            covered = sorted(
                list(i for b in done for i in range(*b))
                + [i for b in blocks for i in range(*b)]
            )
            assert covered == list(range(20))

    def test_step_one_done_blocks_plan_without_the_index_range(self):
        # A resume of a huge campaign plans from its interval list
        # alone: nothing of size `target` is materialized.
        done = ((0, 10**15, 1), (10**15 + 5, 2 * 10**15, 1))
        assert plan_blocks(done, 2 * 10**15 + 3, 2) == [
            (10**15, 10**15 + 4, 1),
            (10**15 + 4, 10**15 + 5, 1),
            (2 * 10**15, 2 * 10**15 + 3, 1),
        ]


class TestSalvage:
    def test_worker_crash_salvages_completed_blocks(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(MIDDLE[0]),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == (FIRST, LAST)
        assert cloud.num_states == 8
        # Resume reruns only the missing block and matches sequential.
        finished = sample_cloud_pool(g, 12, workers=3, seed=9, resume_from=ckpt)
        seq = sample_cloud(g, 12, seed=9)
        np.testing.assert_allclose(seq.status(), finished.status())
        np.testing.assert_allclose(seq.influence(), finished.influence())
        np.testing.assert_allclose(
            seq.edge_agreement(), finished.edge_agreement()
        )
        assert finished.num_states == 12
        np.testing.assert_array_equal(
            finished.flip_counts(), seq.flip_counts()
        )

    @pytest.mark.parametrize("method", ["bfs", "swap"])
    def test_resume_from_strided_done_blocks(self, tmp_path, method):
        # Older versions split pools into strided blocks and recorded
        # them as such in salvage checkpoints; those still resume to
        # the sequential campaign's state set.
        g = make_connected_signed(30, 60, seed=3)
        done = ((0, 12, 3), (2, 12, 3))
        task = CampaignTask(method=method, seed=9, store_states=False)
        salvage = task(g, done[0])
        salvage.merge(task(g, done[1]))
        ckpt = tmp_path / "strided.npz"
        save_cloud(salvage, ckpt, campaign=CampaignMeta(
            method=method, seed=9, store_states=False,
            done_blocks=done,
        ))
        finished = sample_cloud_pool(
            g, 14, workers=2, method=method, seed=9, resume_from=ckpt
        )
        seq = sample_cloud(g, 14, method=method, seed=9)
        assert finished.num_states == 14
        np.testing.assert_array_equal(seq.status(), finished.status())
        np.testing.assert_array_equal(seq.influence(), finished.influence())
        assert sorted(finished.flip_counts()) == sorted(seq.flip_counts())

    def test_sequential_resume_fills_salvage_checkpoint(self, tmp_path):
        # resume_cloud runs the one campaign driver, so it fills the
        # salvage checkpoint's hole like the pool resume does.
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(MIDDLE[0]),
            )
        cloud, _meta, _src = recover_cloud(ckpt, g)
        resumed = resume_cloud(cloud, 12)
        assert resumed.campaign_meta.done_blocks is None
        assert _payload(resumed, tmp_path / "resumed.npz") == _payload(
            sample_cloud(g, 12, seed=9), tmp_path / "one.npz"
        )

    def test_salvage_validates_campaign_on_resume(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(MIDDLE[0]),
            )
        with pytest.raises(CheckpointError, match="seed"):
            sample_cloud_pool(g, 12, workers=3, seed=4, resume_from=ckpt)

    def test_no_checkpoint_path_still_raises(self):
        g = make_connected_signed(20, 40, seed=3)
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, fault=WorkerCrash(MIDDLE[0])
            )

    def test_hard_worker_death_is_survivable(self, tmp_path):
        # os._exit kills the process outright: the executor reports a
        # broken pool for unfinished futures, and whatever completed is
        # salvaged.  (Which blocks finish first is timing-dependent, so
        # only the invariants are asserted.)
        g = make_connected_signed(20, 40, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(
                g, 9, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(0, mode="exit"),
            )
        if ckpt.exists():
            cloud, meta, _src = recover_cloud(ckpt, g)
            assert cloud.num_states == sum(
                len(range(*b)) for b in meta.done_blocks
            )
            finished = sample_cloud_pool(
                g, 9, workers=3, seed=9, resume_from=ckpt
            )
            seq = sample_cloud(g, 9, seed=9)
            np.testing.assert_allclose(seq.status(), finished.status())

    def test_batched_salvage_round_trip(self, tmp_path):
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, batch_size=2,
                checkpoint_path=ckpt, fault=WorkerCrash(MIDDLE[0]),
            )
        finished = sample_cloud_pool(
            g, 12, workers=3, seed=9, batch_size=2, resume_from=ckpt
        )
        seq = sample_cloud(g, 12, seed=9)
        np.testing.assert_allclose(seq.status(), finished.status())
        np.testing.assert_array_equal(
            finished.flip_counts(), seq.flip_counts()
        )


class _CrashExcept:
    """Picklable fault: crash every block except the one starting at
    *keep* — used to manufacture a salvage checkpoint whose resume
    leaves several blocks for the sequential (workers=1) path."""

    def __init__(self, keep):
        self.keep = keep

    def __call__(self, block):
        if int(block[0]) != self.keep:
            raise SimulatedCrash(f"crash on {block}")


class TestSequentialSalvage:
    def test_in_process_crash_salvages_earlier_blocks(self, tmp_path):
        # Stage 1: pool crash leaves a checkpoint with only FIRST done,
        # so a workers=1 resume cut into two blocks walks TWO blocks
        # in-process.
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "seq.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=_CrashExcept(FIRST[0]),
            )
        _cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == (FIRST,)

        # Stage 2: in the sequential path, block MIDDLE completes and
        # then LAST crashes.  The salvage checkpoint must keep MIDDLE's
        # work — this is the bug the pool path never had and the
        # in-process path used to.
        assert plan_blocks((FIRST,), 12, 2) == [MIDDLE, LAST]
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                g, 12, workers=1, seed=9, checkpoint_path=ckpt,
                resume_from=ckpt, steal_chunks=2,
                fault=WorkerCrash(LAST[0]),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == (FIRST, MIDDLE)
        assert cloud.num_states == 8

        finished = sample_cloud_pool(g, 12, workers=1, seed=9,
                                     resume_from=ckpt)
        seq = sample_cloud(g, 12, seed=9)
        np.testing.assert_allclose(seq.status(), finished.status())
        assert finished.num_states == 12

    def test_in_process_crash_without_checkpoint_still_raises(self):
        g = make_connected_signed(20, 40, seed=3)
        with pytest.raises(EngineError, match="crashed"):
            sample_cloud_pool(g, 12, workers=1, seed=9, fault=WorkerCrash(0))


class TestInterruptSalvage:
    def test_pool_interrupt_salvages_and_reraises(self, tmp_path):
        # The interrupted block sleeps long enough for its siblings to
        # finish, so exactly two blocks are salvageable when the
        # KeyboardInterrupt ships back to the parent.
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "interrupt.npz"
        with pytest.raises(KeyboardInterrupt):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=WorkerCrash(MIDDLE[0], mode="interrupt", delay=2.0),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == (FIRST, LAST)
        assert cloud.num_states == 8

        finished = sample_cloud_pool(g, 12, workers=3, seed=9,
                                     resume_from=ckpt)
        seq = sample_cloud(g, 12, seed=9)
        np.testing.assert_allclose(seq.status(), finished.status())
        assert finished.num_states == 12

    def test_in_process_interrupt_salvages_and_reraises(self, tmp_path):
        # Same invariant on the workers=1 path: BaseException salvage,
        # then the interrupt propagates unchanged (not as EngineError).
        g = make_connected_signed(30, 60, seed=3)
        ckpt = tmp_path / "interrupt.npz"
        with pytest.raises(EngineError):
            sample_cloud_pool(
                g, 12, workers=3, seed=9, checkpoint_path=ckpt,
                fault=_CrashExcept(FIRST[0]),
            )
        with pytest.raises(KeyboardInterrupt):
            sample_cloud_pool(
                g, 12, workers=1, seed=9, checkpoint_path=ckpt,
                resume_from=ckpt, steal_chunks=2,
                fault=WorkerCrash(LAST[0], mode="interrupt"),
            )
        cloud, meta, _src = recover_cloud(ckpt, g)
        assert meta.done_blocks == (FIRST, MIDDLE)
        assert cloud.num_states == 8


_POOL_HOLDER = """
import time
from concurrent.futures import ProcessPoolExecutor

from repro.parallel.pool import _init_worker
from tests.conftest import make_connected_signed

pool = ProcessPoolExecutor(
    2, initializer=_init_worker, initargs=(make_connected_signed(10, 5),))
list(pool.map(time.sleep, [0.5, 0.5]))  # both workers are initialized
print(*pool._processes, flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether *pid* still runs (a zombie waiting for its reaper does
    not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.timeout(60)
def test_workers_exit_when_their_parent_is_sigkilled():
    """Pool workers watch their parent: SIGKILL the process holding a
    2-worker pool and both workers are gone within 5 s."""
    import os
    import signal
    import subprocess
    import sys
    import time

    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")])
    holder = subprocess.Popen(
        [sys.executable, "-c", _POOL_HOLDER], env=env,
        stdout=subprocess.PIPE, text=True,
    )
    workers = []
    try:
        workers = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(workers) == 2
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=10)
        limit = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < limit:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()
        holder.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
