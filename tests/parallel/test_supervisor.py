"""Tests for the self-healing campaign supervisor.

Each test injects a specific fault (via
:class:`repro.util.faults.WorkerCrash` or a local picklable hook) and
asserts two things: the campaign *completes* (or degrades exactly as
the ladder promises), and the healed cloud is bit-identical to a
fault-free run — the supervisor may only change *whether* work
finishes, never *what* it computes.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cloud import sample_cloud
from repro.cloud.checkpoint import recover_cloud
from repro.errors import SupervisorError
from repro.parallel.pool import (
    CampaignTask,
    _contiguous_blocks,
    sample_cloud_pool,
)
from repro.parallel.supervisor import (
    CampaignSupervisor,
    FaultEvent,
    RetryPolicy,
    RunReport,
    run_supervised,
)
from repro.util.faults import SimulatedCrash, WorkerCrash

from tests.conftest import make_connected_signed

# Fast, jitter-free policies keep the fault tests deterministic and the
# suite quick; production defaults are exercised separately.
FAST = dict(backoff_base=0.0, jitter=0.0)

# The blocks a 12-state, 3-worker campaign runs; faults aim at MIDDLE.
FIRST, MIDDLE, LAST = _contiguous_blocks(12, 3)


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(18, 24, seed=3)


@pytest.fixture(scope="module")
def sequential(graph):
    return sample_cloud(graph, num_states=12, seed=7)


class _PoolOnlyCrash:
    """Picklable fault that fails only inside forked pool workers —
    the shape of fault the degradation ladder exists to rescue."""

    def __init__(self, block_start):
        self.block_start = block_start
        self.parent_pid = os.getpid()

    def __call__(self, block):
        if (
            int(block[0]) == self.block_start
            and os.getpid() != self.parent_pid
        ):
            raise SimulatedCrash(f"pool-only failure on {block}")


class _ExitOnce:
    """Picklable fault that kills the first pool worker to run any
    block (hard exit), then lets every later attempt through."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, block):
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(1)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(block_timeout=0.0),
            dict(block_timeout=-1.0),
            dict(backoff_base=-0.1),
            dict(backoff_factor=0.5),
            dict(backoff_max=-1.0),
            dict(jitter=-0.1),
            dict(jitter=1.5),
            dict(deadline=0.0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(SupervisorError):
            RetryPolicy(**kwargs)

    def test_backoff_deterministic(self):
        pol = RetryPolicy(backoff_base=0.5, jitter=0.25)
        block = (1, 12, 3)
        a = pol.backoff_seconds(7, block, 2)
        b = pol.backoff_seconds(7, block, 2)
        assert a == b
        # different (seed, block, retry) keys draw different jitter
        assert a != pol.backoff_seconds(8, block, 2) or a != pol.backoff_seconds(
            7, block, 3
        )

    def test_backoff_growth_and_cap(self):
        pol = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0, jitter=0.0
        )
        assert pol.backoff_seconds(0, (0, 1, 1), 1) == 1.0
        assert pol.backoff_seconds(0, (0, 1, 1), 2) == 2.0
        assert pol.backoff_seconds(0, (0, 1, 1), 3) == 3.0  # capped
        assert pol.backoff_seconds(0, (0, 1, 1), 10) == 3.0

    def test_backoff_jitter_bounded(self):
        pol = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.2)
        for retry in range(1, 6):
            s = pol.backoff_seconds(42, (2, 12, 3), retry)
            assert 1.0 <= s < 1.2

    def test_backoff_rejects_retry_zero(self):
        with pytest.raises(SupervisorError):
            RetryPolicy().backoff_seconds(0, (0, 1, 1), 0)


class TestFaultFree:
    def test_matches_plain_pool_bitwise(self, graph, sequential):
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=2, **FAST),
        )
        np.testing.assert_array_equal(sequential.status(), sup.status())
        report = sup.run_report
        assert report.ok
        assert report.retries == 0
        assert report.timeouts == 0
        assert report.events == []
        assert sorted(report.completed) == [FIRST, MIDDLE, LAST]

    def test_workers_one_supervised(self, graph, sequential):
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=1,
            policy=RetryPolicy(max_retries=1, **FAST),
        )
        np.testing.assert_array_equal(sequential.status(), sup.status())
        assert sup.run_report.ok


class TestFlaky:
    def test_flaky_block_retried_to_bit_identical_cloud(
        self, graph, sequential, tmp_path
    ):
        """Acceptance: a block failing twice then succeeding completes
        unaided, bit-identical to the fault-free run."""
        fault = WorkerCrash(
            MIDDLE[0], mode="flaky", fails=2, counter_dir=tmp_path
        )
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=2, **FAST), fault=fault,
        )
        np.testing.assert_array_equal(sequential.status(), sup.status())
        report = sup.run_report
        assert report.ok
        assert report.retries == 2
        kinds = [e.kind for e in report.events]
        assert kinds.count("failure") == 2
        assert all(e.block == MIDDLE for e in report.events)

    def test_flaky_in_process(self, graph, sequential, tmp_path):
        # workers=1 runs one block (0, 12, 1); fault block 0 so the
        # in-process retry loop (not the pool) does the healing.
        fault = WorkerCrash(0, mode="flaky", fails=2, counter_dir=tmp_path)
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=1,
            policy=RetryPolicy(max_retries=2, **FAST), fault=fault,
        )
        np.testing.assert_array_equal(sequential.status(), sup.status())
        assert sup.run_report.retries == 2
        assert sup.run_report.ok


class TestHungWorker:
    def test_hang_trips_watchdog_and_campaign_completes(self, graph):
        """Acceptance: a permanently hung block is killed within its
        timeout budget, quarantined, and the other blocks complete."""
        pol = RetryPolicy(max_retries=1, block_timeout=0.75, **FAST)
        t0 = time.monotonic()
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=pol, fault=WorkerCrash(MIDDLE[0], mode="hang", delay=60.0),
        )
        elapsed = time.monotonic() - t0
        report = sup.run_report
        # budget: (max_retries + 1) attempts x block_timeout, plus
        # generous slack for pool rebuilds — far below the 60 s nap.
        assert elapsed < 0.75 * 2 + 10.0
        assert report.quarantined_blocks == (MIDDLE,)
        assert report.timeouts == 2
        assert sup.num_states == 8
        assert not report.ok

    def test_slow_block_within_timeout_is_not_a_fault(self, graph, sequential):
        t0 = time.monotonic()
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=1, block_timeout=30.0, **FAST),
            fault=WorkerCrash(MIDDLE[0], mode="slow", delay=0.3),
        )
        assert time.monotonic() - t0 >= 0.3  # the slow fault fired
        np.testing.assert_array_equal(sequential.status(), sup.status())
        assert sup.run_report.ok
        assert sup.run_report.timeouts == 0


class TestQuarantineCheckpoint:
    def test_quarantine_roundtrips_and_resume_reattempts(
        self, graph, sequential, tmp_path
    ):
        """Acceptance: quarantined blocks are recorded in the
        checkpoint, survive recovery, and a fault-free resume finishes
        exactly the missing work."""
        ck = tmp_path / "campaign.npz"
        pol = RetryPolicy(max_retries=1, block_timeout=0.75, **FAST)
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=pol, fault=WorkerCrash(MIDDLE[0], mode="hang", delay=60.0),
            checkpoint_path=ck,
        )
        assert sup.num_states == 8
        recovered, meta, _source = recover_cloud(ck, graph)
        assert recovered.num_states == 8
        assert meta.done_blocks == (FIRST, LAST)
        assert meta.quarantined_blocks == (MIDDLE,)

        finished = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3, resume_from=ck,
        )
        assert finished.num_states == 12
        np.testing.assert_allclose(sequential.status(), finished.status())


class TestBrokenPool:
    def test_hard_worker_death_is_contained(self, graph):
        pol = RetryPolicy(max_retries=1, degrade=False, **FAST)
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=pol, fault=WorkerCrash(MIDDLE[0], mode="exit"),
        )
        report = sup.run_report
        assert report.quarantined_blocks == (MIDDLE,)
        assert report.pool_rebuilds >= 1
        assert sup.num_states == 8


class TestDegradationLadder:
    def test_pool_only_fault_rescued_in_process(self, graph, sequential):
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=1, degrade=True, **FAST),
            fault=_PoolOnlyCrash(MIDDLE[0]),
        )
        np.testing.assert_array_equal(sequential.status(), sup.status())
        report = sup.run_report
        assert report.ok
        assert report.degraded == [MIDDLE]
        assert "degrade" in [e.kind for e in report.events]

    def test_no_degrade_quarantines_instead(self, graph):
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=1, degrade=False, **FAST),
            fault=_PoolOnlyCrash(MIDDLE[0]),
        )
        assert sup.run_report.quarantined_blocks == (MIDDLE,)
        assert sup.run_report.degraded == []
        assert sup.num_states == 8

    def test_persistent_fault_degrades_then_quarantines(self, graph):
        # mode="raise" fails in the parent too: the ladder tries the
        # in-process rung, it fails, the block is quarantined.
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=1, degrade=True, **FAST),
            fault=WorkerCrash(MIDDLE[0], mode="raise"),
        )
        report = sup.run_report
        kinds = [e.kind for e in report.events]
        assert "degrade" in kinds
        assert report.quarantined_blocks == (MIDDLE,)
        assert report.degraded == []


class TestDeadline:
    def test_deadline_checkpoints_and_resume_finishes(
        self, graph, tmp_path
    ):
        ck = tmp_path / "deadline.npz"
        done, slow = _contiguous_blocks(8, 2)
        pol = RetryPolicy(max_retries=2, deadline=3.0, **FAST)
        sup = sample_cloud_pool(
            graph, num_states=8, seed=7, workers=2,
            policy=pol, fault=WorkerCrash(slow[0], mode="slow", delay=20.0),
            checkpoint_path=ck,
        )
        report = sup.run_report
        assert report.deadline_hit
        assert not report.ok
        assert slow in report.remaining

        _recovered, meta, _source = recover_cloud(ck, graph)
        assert meta.done_blocks == (done,)

        finished = sample_cloud_pool(
            graph, num_states=8, seed=7, workers=2, resume_from=ck,
        )
        assert finished.num_states == 8
        seq = sample_cloud(graph, num_states=8, seed=7)
        np.testing.assert_allclose(seq.status(), finished.status())


class TestAllQuarantined:
    def test_no_usable_work_raises_with_report(self, graph):
        pol = RetryPolicy(max_retries=1, **FAST)
        with pytest.raises(SupervisorError) as excinfo:
            sample_cloud_pool(
                graph, num_states=4, seed=7, workers=1,
                policy=pol, fault=WorkerCrash(0, mode="raise"),
            )
        report = excinfo.value.report
        assert isinstance(report, RunReport)
        assert report.quarantined_blocks == ((0, 4, 1),)


class TestRunReport:
    def test_json_roundtrip(self, graph, tmp_path):
        sup = sample_cloud_pool(
            graph, num_states=12, seed=7, workers=3,
            policy=RetryPolicy(max_retries=1, block_timeout=0.75, **FAST),
            fault=WorkerCrash(MIDDLE[0], mode="hang", delay=60.0),
        )
        report = sup.run_report
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert list(MIDDLE) in [q["block"] for q in data["quarantined"]]
        assert data["timeouts"] == report.timeouts
        assert data["policy"]["block_timeout"] == 0.75
        assert all("kind" in e and "t" in e for e in data["events"])

        path = tmp_path / "report.json"
        report.dump(path)
        assert json.loads(path.read_text()) == data

    def test_summary_mentions_quarantine_and_counts(self):
        report = RunReport(policy=RetryPolicy(), blocks_total=3)
        report.completed = [FIRST, LAST]
        report.quarantined = [
            {"block": MIDDLE, "attempts": 2, "error": "boom"}
        ]
        text = report.summary()
        assert "2/3 blocks completed" in text
        assert "1 quarantined" in text

    def test_fault_event_is_frozen(self):
        event = FaultEvent(
            t=0.0, kind="failure", block=(0, 1, 1), attempt=1, detail="x"
        )
        with pytest.raises(AttributeError):
            event.kind = "other"


class TestRunSupervisedApi:
    def test_returns_completed_pairs_and_report(self, graph):
        completed, report = run_supervised(
            graph,
            [(0, 6, 2), (1, 6, 2)],
            method="bfs", seed=7,
            store_states=False, workers=2,
            policy=RetryPolicy(max_retries=1, **FAST),
        )
        assert report.ok
        assert sorted(b for b, _c in completed) == [(0, 6, 2), (1, 6, 2)]
        assert sum(c.num_states for _b, c in completed) == 6


class TestKeptPool:
    """``keep_pool=True``: a clean run leaves its pool running and
    hands it back; a pool that breaks is rebuilt and the rebuilt one is
    handed back instead."""

    def _run(self, graph, pool, fault=None):
        supervisor = CampaignSupervisor(
            graph, [(0, 6, 2), (1, 6, 2)],
            CampaignTask(method="bfs", seed=7, store_states=False),
            seed=7, workers=2, policy=RetryPolicy(max_retries=1, **FAST),
            fault=fault, pool=pool, keep_pool=True,
        )
        completed, report = supervisor.run()
        assert report.ok and len(completed) == 2
        return supervisor.pool, report

    def test_clean_runs_share_one_pool(self, graph):
        pool, _report = self._run(graph, None)
        try:
            again, report = self._run(graph, pool)
            assert again is pool and report.pool_rebuilds == 0
        finally:
            pool.shutdown()

    def test_broken_pool_is_rebuilt_and_handed_back(self, graph, tmp_path):
        pool, _report = self._run(graph, None)
        rebuilt, report = self._run(
            graph, pool, fault=_ExitOnce(tmp_path / "exited")
        )
        try:
            assert report.pool_rebuilds == 1
            assert rebuilt is not None and rebuilt is not pool
            again, report = self._run(graph, rebuilt)
            assert again is rebuilt and report.pool_rebuilds == 0
        finally:
            rebuilt.shutdown()


class TestInterrupts:
    """An interrupt raised by a block is a stop request on every rung,
    never a block fault: the ladder must not retry, degrade or
    quarantine it, and the completed blocks are salvaged first."""

    @pytest.mark.parametrize(
        "policy",
        [
            RetryPolicy(max_retries=0, degrade=False, **FAST),
            RetryPolicy(max_retries=2, degrade=False, **FAST),
            RetryPolicy(max_retries=1, degrade=True, **FAST),
        ],
        ids=["no-retry", "retries", "degrade"],
    )
    def test_pool_interrupt_propagates_after_salvage(
        self, graph, tmp_path, policy
    ):
        ck = tmp_path / "interrupt.npz"
        with pytest.raises(KeyboardInterrupt):
            sample_cloud_pool(
                graph, num_states=12, seed=7, workers=3, policy=policy,
                checkpoint_path=ck,
                fault=WorkerCrash(MIDDLE[0], mode="interrupt", delay=1.0),
            )
        recovered, meta, _source = recover_cloud(ck, graph)
        assert meta.done_blocks == (FIRST, LAST)
        assert recovered.num_states == 8

    def test_in_process_interrupt_propagates(self, graph):
        with pytest.raises(KeyboardInterrupt):
            run_supervised(
                graph, [(0, 6, 2), (1, 6, 2)],
                method="bfs", seed=7,
                store_states=False, workers=1,
                policy=RetryPolicy(max_retries=2, **FAST),
                fault=WorkerCrash(1, mode="interrupt"),
            )


class TestJournalShape:
    """Every campaign journals the same shape, whichever ladder it runs:
    swap blocks carry their chain entry point, and the pooled run ends
    with a steal summary and its gauges."""

    @pytest.mark.parametrize(
        "policy", [None, RetryPolicy()], ids=["no-policy", "policy"]
    )
    def test_swap_blocks_tagged_and_steal_summarized(
        self, graph, tmp_path, policy
    ):
        from repro.perf.journal import journaling, read_journal

        path = tmp_path / "run.jsonl"
        with journaling(path):
            cloud = sample_cloud_pool(
                graph, num_states=64, seed=7, workers=2, method="swap",
                steal_chunks=8, policy=policy,
            )
        events = read_journal(path)
        completed = [e for e in events if e["kind"] == "block_completed"]
        assert len(completed) == 8
        for event in completed:
            assert event["chain_segment_start"] == (
                event["block"] - event["block"] % 256
            )
        summaries = [e for e in events if e["kind"] == "steal_summary"]
        assert len(summaries) == 1
        assert sum(summaries[0]["blocks"].values()) == 8
        assert sum(summaries[0]["states"].values()) == 64
        gauges = cloud.metrics["gauges"]
        assert gauges["pool.workers_used"] == summaries[0]["workers_used"]
        assert "pool.steal_max_blocks" in gauges
        assert "pool.steal_min_blocks" in gauges
