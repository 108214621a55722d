"""Tests for the campaign event journal: crash-safe writes, valid-prefix
recovery, and replay summaries that reconcile with live RunReports."""

import json

import numpy as np
import pytest

from repro.cloud import sample_cloud
from repro.cloud.checkpoint import save_cloud
from repro.errors import JournalError
from repro.parallel.pool import sample_cloud_pool
from repro.parallel.supervisor import RetryPolicy, run_supervised
from repro.perf.journal import (
    Journal,
    get_sinks,
    install_sink,
    journal_event,
    journaling,
    read_journal,
    remove_sink,
    render_summary,
    summarize_journal,
)
from repro.util.faults import WorkerCrash, truncate_file

from tests.conftest import make_connected_signed

FAST = dict(backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(18, 24, seed=3)


class TestJournalBasics:
    def test_emit_and_read(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            assert journal.emit("alpha", x=1) == 0
            assert journal.emit("beta", y="z") == 1
        events = read_journal(path)
        assert [e["kind"] for e in events] == ["alpha", "beta"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all("ts" in e for e in events)
        assert events[0]["x"] == 1

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.emit("a")
            journal.emit("b")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.emit("first")
        with Journal(path) as journal:
            assert journal.emit("second") == 1
        assert [e["seq"] for e in read_journal(path)] == [0, 1]

    def test_numpy_payloads_serialize(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.emit(
                "stats",
                count=np.int64(7),
                bound=np.float64(1.5),
                curve=np.arange(3),
            )
        event = read_journal(path)[0]
        assert event["count"] == 7
        assert event["bound"] == 1.5
        assert event["curve"] == [0, 1, 2]

    def test_unopenable_path_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot open"):
            Journal(tmp_path / "no" / "such" / "dir" / "j.jsonl")

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            read_journal(tmp_path / "absent.jsonl")
        with pytest.raises(JournalError, match="no journal"):
            summarize_journal(tmp_path / "absent.jsonl")


class TestGlobalHandle:
    def test_event_is_noop_without_journal(self):
        assert get_sinks() == ()
        journal_event("ignored", x=1)  # must not raise or write anywhere

    def test_journaling_scope_installs_and_restores(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with journaling(path) as journal:
            assert get_sinks() == (journal,)
            journal_event("inside", n=3)
        assert get_sinks() == ()
        journal_event("outside")  # dropped
        events = read_journal(path)
        assert [e["kind"] for e in events] == ["inside"]

    def test_set_journal_explicit(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        install_sink(journal)
        try:
            journal_event("direct")
        finally:
            remove_sink(journal)
            journal.close()
        assert read_journal(tmp_path / "j.jsonl")[0]["kind"] == "direct"


class TestCrashRecovery:
    def write_events(self, path, n=5):
        with Journal(path) as journal:
            for i in range(n):
                journal.emit("tick", i=i)

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        # Tear the last line mid-record, as a kill mid-write would.
        truncate_file(path, keep_bytes=path.stat().st_size - 10)
        events = read_journal(path)
        assert [e["i"] for e in events] == [0, 1, 2, 3]

    def test_torn_tail_strict_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        truncate_file(path, keep_bytes=path.stat().st_size - 10)
        with pytest.raises(JournalError, match="torn final line"):
            read_journal(path, strict=True)

    def test_intact_file_passes_strict(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        assert len(read_journal(path, strict=True)) == 5

    def test_resume_after_torn_tail_continues_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        truncate_file(path, keep_bytes=path.stat().st_size - 10)
        with Journal(path) as journal:
            journal.emit("resumed")
        events = read_journal(path)
        # Re-open discards the torn tail: intact prefix keeps seqs
        # 0..3 and the resumed event continues at 4 on a fresh line.
        assert [e["i"] for e in events[:-1]] == [0, 1, 2, 3]
        assert events[-1]["kind"] == "resumed"
        assert events[-1]["seq"] == 4
        assert len(read_journal(path, strict=True)) == 5

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4] + "@@@@"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="intact lines after"):
            read_journal(path)

    def test_summary_reports_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_events(path)
        truncate_file(path, keep_bytes=path.stat().st_size - 10)
        summary = summarize_journal(path)
        assert summary["torn_tail"] is True
        assert summary["events"] == 4
        assert "torn final line" in render_summary(summary)


class TestCampaignJournal:
    def test_sequential_campaign_events(self, graph, tmp_path):
        path = tmp_path / "run.jsonl"
        with journaling(path):
            cloud = sample_cloud(graph, num_states=8, seed=7)
        events = read_journal(path)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_completed"
        assert "convergence" in kinds
        started = events[0]
        assert started["driver"] == "sequential"
        assert started["num_states"] == 8
        assert started["vertices"] == graph.num_vertices
        summary = summarize_journal(path)
        assert summary["completed"] is True
        assert summary["states"] == cloud.num_states
        assert summary["frustration_bound"] == cloud.frustration_upper_bound()

    def test_pool_campaign_events(self, graph, tmp_path):
        path = tmp_path / "run.jsonl"
        with journaling(path):
            cloud = sample_cloud_pool(graph, 8, workers=2, seed=7)
        summary = summarize_journal(path)
        assert summary["campaign"]["driver"] == "pool"
        assert summary["completed"] is True
        assert summary["states"] == cloud.num_states
        assert summary["blocks_completed"] >= 1

    def test_checkpoint_written_event(self, graph, tmp_path):
        cloud = sample_cloud(graph, num_states=4, seed=1)
        path = tmp_path / "run.jsonl"
        ckpt = tmp_path / "c.npz"
        with journaling(path):
            save_cloud(cloud, ckpt)
        event = read_journal(path)[0]
        assert event["kind"] == "checkpoint_written"
        assert event["path"] == str(ckpt)
        assert event["states"] == 4
        assert summarize_journal(path)["checkpoints"] == 1

    def test_summary_matches_run_report(self, graph, tmp_path):
        # A flaky block fails twice then succeeds: the journal replay
        # must carry the same retry/completion counts as the live
        # RunReport of the run that wrote it.
        path = tmp_path / "run.jsonl"
        fault = WorkerCrash(0, mode="flaky", fails=2, counter_dir=tmp_path)
        with journaling(path):
            completed, report = run_supervised(
                graph, [(0, 6, 2), (1, 6, 2)],
                method="bfs", seed=7,
                store_states=False, workers=2,
                policy=RetryPolicy(max_retries=3, **FAST), fault=fault,
            )
        assert report.ok
        summary = summarize_journal(path)
        assert summary["retries"] == report.retries == 2
        assert summary["blocks_completed"] == len(completed) == 2
        assert summary["timeouts"] == report.timeouts
        assert summary["pool_rebuilds"] == report.pool_rebuilds
        assert summary["degraded"] == len(report.degraded)
        assert summary["kinds"].get("block_failed", 0) >= 2

    def test_quarantine_recorded(self, graph, tmp_path):
        path = tmp_path / "run.jsonl"
        fault = WorkerCrash(0, mode="raise")
        with journaling(path):
            _completed, report = run_supervised(
                graph, [(0, 6, 2), (1, 6, 2)],
                method="bfs", seed=7,
                store_states=False, workers=2,
                policy=RetryPolicy(max_retries=1, degrade=False, **FAST),
                fault=fault,
            )
        assert len(report.quarantined) == 1
        summary = summarize_journal(path)
        assert summary["quarantined"] == [0]

    def test_journal_does_not_change_results(self, graph, tmp_path):
        # Bit-identity acceptance: journaling (and tracing) only append
        # to side files; the cloud is exactly the one a plain run makes.
        from repro.perf.tracing import collecting_trace

        plain = sample_cloud(graph, num_states=10, seed=5)
        with journaling(tmp_path / "j.jsonl"), collecting_trace():
            journaled = sample_cloud(graph, num_states=10, seed=5)
        assert np.array_equal(plain.status(), journaled.status())
        assert np.array_equal(plain.influence(), journaled.influence())
        assert np.array_equal(plain.flip_counts(), journaled.flip_counts())
        assert (plain.frustration_upper_bound()
                == journaled.frustration_upper_bound())
