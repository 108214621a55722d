"""Cross-process span stitching through every campaign path.

Each test runs a pool campaign (pool, work-stealing, degraded
in-process rescue, salvage-after-crash, resume) under a trace
collector and asserts the same three things about the stitched result:

* every span event carries the **one** trace_id of the campaign — the
  worker-side spans shipped back as shards joined the parent's tree;
* worker processes contributed events (``pid != 0``), i.e. the shard
  actually crossed a process boundary;
* the flat event list exports to a Chrome/Perfetto document that
  passes :func:`~repro.perf.trace_export.validate_chrome_trace`
  (``REQUIRED_EVENT_KEYS`` on every complete event).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import EngineError
from repro.parallel.pool import _contiguous_blocks, sample_cloud_pool
from repro.parallel.supervisor import (
    _SHARD_MAX_EVENTS,
    BlockTask,
    CampaignSupervisor,
    RetryPolicy,
)
from repro.perf.flight import flight_recording, iter_flight_dumps
from repro.perf.registry import reset_global_registry
from repro.perf.tracing import (
    SpanEvent,
    TraceCollector,
    absorb_shard,
    collecting_trace,
    collector_shard,
    span,
)
from repro.perf.trace_export import (
    events_for_trace,
    spans_to_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.util.faults import SimulatedCrash, WorkerCrash

from tests.conftest import make_connected_signed

FAST = dict(backoff_base=0.0, jitter=0.0)

# The middle block of a 12-state, 3-worker campaign: the fault target.
MIDDLE = _contiguous_blocks(12, 3)[1]


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_global_registry()
    yield
    reset_global_registry()


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(18, 24, seed=3)


def _assert_stitched(events, *, expect_workers=True):
    """The invariants one stitched campaign trace must satisfy."""
    assert events, "no span events were collected"
    trace_ids = {e.trace_id for e in events if e.trace_id}
    assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"
    pids = {e.pid for e in events}
    assert 0 in pids  # parent-side spans
    if expect_workers:
        worker_pids = pids - {0}
        assert worker_pids, "no worker-side spans were absorbed"
        assert os.getpid() not in worker_pids
    # Every non-root span's parent is a span in the same trace.
    span_ids = {e.span_id for e in events if e.span_id}
    for event in events:
        if event.parent_id:
            assert event.parent_id in span_ids, (
                f"{event.path} has dangling parent {event.parent_id}"
            )
    doc = {"traceEvents": spans_to_events(events)}
    validate_chrome_trace(doc)
    return doc


class _PoolOnlyCrash:
    """Picklable fault failing only inside forked pool workers."""

    def __init__(self, block_start):
        self.block_start = block_start
        self.parent_pid = os.getpid()

    def __call__(self, block):
        if (
            int(block[0]) == self.block_start
            and os.getpid() != self.parent_pid
        ):
            raise SimulatedCrash(f"pool-only failure on {block}")


class _BlockProbe:
    """Picklable fault marking every block with a span named after its
    first state (recorded in the worker, before the block runs), then
    crashing the block starting at *crash_start* (see
    :class:`WorkerCrash`)."""

    def __init__(self, crash_start):
        self.crash = WorkerCrash(crash_start)

    def __call__(self, block):
        with span(f"probe_{int(block[0])}"):
            pass
        self.crash(block)


class TestStitchedCampaigns:
    def test_pool_campaign_single_trace(self, graph, tmp_path):
        with collecting_trace() as trace:
            sample_cloud_pool(graph, 12, workers=3, seed=7)
        doc = _assert_stitched(trace.events())
        # Worker block spans hang under the parent campaign span.
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert "campaign" in names and "block" in names
        write_chrome_trace(doc["traceEvents"], tmp_path / "t.json")

    def test_steal_chunks_single_trace(self, graph):
        with collecting_trace() as trace:
            sample_cloud_pool(graph, 12, workers=3, seed=7, steal_chunks=6)
        events = trace.events()
        _assert_stitched(events)
        # Six stolen chunks → six worker-side block spans in the trace.
        blocks = [e for e in events
                  if e.path.endswith("block") and e.pid != 0]
        assert len(blocks) == 6

    def test_degraded_block_stitches_in_process(self, graph):
        """A block rescued on the in-process rung records its spans in
        the parent (pid 0) under the same campaign trace."""
        with collecting_trace() as trace:
            sample_cloud_pool(
                graph, 12, workers=3, seed=7,
                policy=RetryPolicy(max_retries=1, degrade=True, **FAST),
                fault=_PoolOnlyCrash(MIDDLE[0]),
            )
        events = trace.events()
        _assert_stitched(events)
        # The rescued block ran in the parent: a parent-side block span.
        assert any(e.path.endswith("block") and e.pid == 0 for e in events)

    def test_salvage_after_crash_keeps_completed_spans(self, graph, tmp_path):
        ck = tmp_path / "salvage.npz"
        with collecting_trace() as trace:
            with pytest.raises(EngineError, match="salvaged"):
                sample_cloud_pool(
                    graph, 12, workers=3, seed=9,
                    checkpoint_path=ck, fault=_BlockProbe(MIDDLE[0]),
                )
        events = trace.events()
        _assert_stitched(events)
        # Block by block: each completed block's worker spans were
        # absorbed at salvage time (its probe, then its block span in
        # the same worker), and the crashed block's never shipped.
        # Which worker ran which block is the scheduler's choice.
        worker = [e for e in events if e.pid != 0]
        probes = {e.path.rsplit("/", 1)[-1]: e for e in worker
                  if "probe_" in e.path}
        completed = [int(b[0]) for b in _contiguous_blocks(12, 3)
                     if b[0] != MIDDLE[0]]
        assert sorted(probes) == sorted(f"probe_{b}" for b in completed)
        blocks = [e for e in worker if e.path.endswith("block")]
        assert len(blocks) == len(completed)
        own = {
            min((e for e in blocks
                 if e.pid == probe.pid and e.start >= probe.end),
                key=lambda e: e.start).span_id
            for probe in probes.values()
        }
        assert len(own) == len(completed)

    def test_resume_is_its_own_stitched_trace(self, graph, tmp_path):
        ck = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                graph, 12, workers=3, seed=9,
                checkpoint_path=ck, fault=WorkerCrash(MIDDLE[0]),
            )
        # Resume toward a *larger* target so more than one block
        # remains and the pool rung (hence shard shipping) engages.
        with collecting_trace() as trace:
            resumed = sample_cloud_pool(
                graph, 15, workers=3, seed=9, resume_from=ck,
            )
        assert resumed.num_states == 15
        _assert_stitched(trace.events())

    def test_stitching_does_not_change_results(self, graph):
        plain = sample_cloud_pool(graph, 12, workers=3, seed=7)
        with collecting_trace():
            traced = sample_cloud_pool(graph, 12, workers=3, seed=7)
        np.testing.assert_allclose(plain.status(), traced.status())


class TestShardMechanics:
    def test_shard_roundtrip_rebases_onto_parent_clock(self):
        worker = TraceCollector()
        worker.record_event(SpanEvent(
            "block", 1.0, 2.0, 77, "t" * 32, "a" * 16, "b" * 16))
        shard = collector_shard(worker)
        row = shard["events"][0]
        row["pid"] = 4242
        row["start"] += 100.0  # closed 100s later on the shared wall clock
        row["end"] += 100.0
        parent = TraceCollector()
        assert absorb_shard(parent, shard) == 1
        got = parent.events()[0]
        assert got.pid == 4242
        assert got.trace_id == "t" * 32
        assert got.parent_id == "b" * 16
        assert got.start == pytest.approx(101.0, abs=0.05)
        assert got.duration == pytest.approx(1.0, abs=1e-6)

    def test_shard_carries_drop_count(self):
        worker = TraceCollector(max_events=2)
        worker.record_event(SpanEvent("a", 0.0, 1.0, 1))  # dropped
        worker.append({"ts": 0.5, "kind": "tick"})
        worker.record_event(SpanEvent("b", 0.0, 1.0, 1))
        shard = collector_shard(worker)
        assert shard["dropped"] == 1
        assert [r["kind"] for r in shard["events"]] == ["tick", "span"]
        parent = TraceCollector()
        # Only span ends are absorbed; the shard's drops are added.
        assert absorb_shard(parent, shard) == 1
        assert [e.path for e in parent.events()] == ["b"]
        assert parent.dropped == 1

    def test_events_for_trace_filters(self):
        with collecting_trace() as trace:
            with span("alpha"):
                pass
            with span("beta"):
                pass
        events = trace.events()
        tid = events[0].trace_id
        assert tid and events[1].trace_id != tid  # separate roots
        only = events_for_trace(events, tid)
        assert [e.path for e in only] == ["alpha"]


class _ManySpans(BlockTask):
    """Picklable task whose block closes more child spans than one
    shard keeps."""

    def __call__(self, graph, block):
        for _ in range(_SHARD_MAX_EVENTS + 100):
            with span("child"):
                pass


class TestLongBlockShard:
    def test_long_block_ships_its_block_span(self, graph):
        """The shard keeps its newest records: the block span, which
        closes last, always ships, and every kept span's parent is in
        the stitched trace."""
        blocks = _contiguous_blocks(2, 2)
        with collecting_trace() as trace, span("campaign"):
            completed, report = CampaignSupervisor(
                graph, blocks, _ManySpans(), seed=0, workers=2,
                policy=RetryPolicy(**FAST),
            ).run()
        assert report.ok and len(completed) == 2
        events = trace.events()
        _assert_stitched(events)
        worker = [e for e in events if e.pid != 0]
        assert sum(e.path.endswith("block") for e in worker) == 2
        assert trace.dropped >= 2 * 100
        (campaign,) = [e for e in events if e.path == "campaign"]
        span_ids = {e.span_id for e in events}
        for event in worker:
            assert (event.parent_id in span_ids
                    or event.parent_id == campaign.span_id), event


class TestFlightOnly:
    def test_flight_recorder_alone_stitches_nothing(self, graph, tmp_path):
        """A flight recorder is its own process's black box: with no
        trace collector, spans mint no trace identity, no trace rides
        the pool tasks, and the driver's dump holds none of its
        workers' spans, which stay in the workers' own dumps."""
        with flight_recording(str(tmp_path), role="driver") as rec:
            sample_cloud_pool(graph, 12, workers=2, seed=7,
                              flight_dir=str(tmp_path))
            with span("campaign"):
                assert CampaignSupervisor(
                    graph, _contiguous_blocks(2, 2), _ManySpans(), seed=0,
                    workers=2, policy=RetryPolicy(**FAST),
                ).trace is None
        dumps = {doc["pid"]: doc for doc in iter_flight_dumps(str(tmp_path))}
        driver = dumps.pop(os.getpid())
        assert rec.path.endswith(f"flight-{os.getpid()}.json")
        spans = [e for e in driver["events"] if e["kind"] == "span"]
        assert spans and {e["pid"] for e in spans} == {os.getpid()}
        assert all(e["trace_id"] == "" for e in spans)
        assert dumps, "no pool worker left a dump"
        for pid, doc in dumps.items():
            paths = {e["path"] for e in doc["events"]
                     if e["kind"] == "span" and e["pid"] == pid}
            assert any(p.endswith("tree_sample") for p in paths), paths


class TestStitchedRestarts:
    def test_balanced_pool_restarts_single_trace(self):
        """The balanced runner's pooled restarts ship their spans back
        through the same executor: one trace, worker-side ``restart``
        spans, every parent link resolvable."""
        from repro.balanced import run_balanced

        graph = make_connected_signed(70, 150, seed=6)
        with collecting_trace() as trace:
            report = run_balanced(graph, restarts=3, seed=0, workers=2)
        assert report.degraded_restarts == 0
        events = trace.events()
        _assert_stitched(events)
        restarts = [e for e in events
                    if e.path.endswith("restart") and e.pid != 0]
        assert len(restarts) == len(report.per_seed)
