"""Tests for the crash flight recorder: ring bounds, the
dump-before-compute discipline of ``mark_inflight``, the one event
stream it shares with the journal, the span ends between its events,
its scope, atomic dump reading/validation, and the ``repro flight
dump`` CLI."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf.flight import (
    DUMP_VERSION,
    FlightRecorder,
    find_flight_dumps,
    flight_clear_inflight,
    flight_mark_inflight,
    flight_recording,
    iter_flight_dumps,
    read_flight_dump,
)
from repro.perf.journal import (
    events_enabled,
    get_sinks,
    journal_event,
    journaling,
    read_journal,
)
from repro.perf.tracing import SpanEvent, collecting_trace, span


def _record(kind, **fields):
    """A journal-shaped record, as the event stream hands it over."""
    return {"ts": time.time(), "kind": kind, **fields}


class TestRecorder:
    def test_ring_is_bounded(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "f.json"), capacity=4,
                             autodump_every=0)
        for i in range(10):
            rec.append(_record("tick", i=i))
        events = rec.snapshot()["events"]
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path / "f.json"), capacity=0)

    def test_mark_inflight_dumps_immediately(self, tmp_path):
        """The crash-only contract: the dump naming the in-flight work
        is on disk *before* the work runs, so SIGKILL needs no hook."""
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=0)
        assert not path.exists()
        rec.mark_inflight(what="block", block_start=3, block_stop=7)
        doc = read_flight_dump(str(path))
        assert doc["inflight"]["what"] == "block"
        assert doc["inflight"]["block_start"] == 3
        assert doc["inflight"]["block_stop"] == 7
        assert "since" in doc["inflight"]
        assert any(e["kind"] == "inflight" for e in doc["events"])

    def test_clear_inflight_shows_in_next_dump(self, tmp_path):
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=0)
        rec.mark_inflight(what="block")
        rec.clear_inflight(what="block", ok=True)
        rec.dump()
        doc = read_flight_dump(str(path))
        assert doc["inflight"] is None
        assert doc["events"][-1]["kind"] == "completed"
        assert doc["events"][-1]["ok"] is True

    def test_clear_inflight_dumps_at_once(self, tmp_path):
        """A clean finish rewrites the dump: a post-mortem can tell a
        finished worker from one killed mid-block."""
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=0)
        rec.mark_inflight(what="block", block=[9, 12, 1])
        assert read_flight_dump(str(path))["inflight"]["block"] == [9, 12, 1]
        rec.clear_inflight(what="block", block=[9, 12, 1])
        doc = read_flight_dump(str(path))
        assert doc["inflight"] is None
        assert doc["events"][-1]["kind"] == "completed"

    def test_autodump_every_n_events(self, tmp_path):
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=3)
        rec.append(_record("a"))
        rec.append(_record("b"))
        assert not path.exists()
        rec.append(_record("c"))
        assert len(read_flight_dump(str(path))["events"]) == 3

    def test_span_ends_do_not_autodump(self, tmp_path):
        """Only event records count toward a re-dump: a span end costs
        the ring an append, never a file write."""
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=2)
        for i in range(5):
            rec.record_event(SpanEvent("tree_sample", i, i + 0.5, 1))
        rec.append(_record("a"))
        assert not path.exists()
        rec.append(_record("b"))
        assert len(read_flight_dump(str(path))["events"]) == 7

    def test_dump_swallows_unwritable_path(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "gone" / "f.json"))
        rec.append(_record("tick"))
        assert rec.dump() is None  # never takes the process down

    def test_dump_leaves_no_tmp_litter(self, tmp_path):
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=0)
        for _ in range(5):
            rec.append(_record("tick"))
            rec.dump()
        assert sorted(os.listdir(tmp_path)) == ["f.json"]


class TestGlobalRecorder:
    def test_helpers_are_noops_without_recorder(self):
        assert get_sinks() == ()
        assert not events_enabled()
        journal_event("tick")
        flight_mark_inflight(what="x")
        flight_clear_inflight(what="x")

    def test_install_creates_per_pid_file(self, tmp_path):
        with flight_recording(str(tmp_path), role="test-proc") as rec:
            assert get_sinks() == (rec,)
            journal_event("tick")
        assert get_sinks() == ()
        path = str(tmp_path / f"flight-{os.getpid()}.json")
        assert rec.path == path
        doc = read_flight_dump(path)  # the scope dumped on exit
        assert doc["pid"] == os.getpid()
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds[0] == "started"
        assert doc["events"][0]["role"] == "test-proc"
        assert "tick" in kinds
        journal_event("after")  # out of the stream now
        assert "after" not in [e["kind"] for e in rec.snapshot()["events"]]

    def test_scope_restores_crash_hooks(self, tmp_path):
        hooks = (sys.excepthook, threading.excepthook)
        for _ in range(3):
            with flight_recording(str(tmp_path)):
                assert sys.excepthook is not hooks[0]
                assert threading.excepthook is not hooks[1]
            assert (sys.excepthook, threading.excepthook) == hooks

    def test_hook_out_of_the_stream_only_chains(self, tmp_path):
        """A crash hook that could not be taken back (another hook was
        stacked on it), or one a forked child inherited, must not
        rewrite its finished recorder's dump."""
        seen = []
        original = sys.excepthook
        sys.excepthook = lambda *exc: seen.append(exc[0])
        try:
            with flight_recording(str(tmp_path)) as rec:
                ours = sys.excepthook
                sys.excepthook = lambda *exc: ours(*exc)  # stacked on top
            assert sys.excepthook is not ours  # ours stays in the chain
            before = read_flight_dump(rec.path)
            ours(RuntimeError, RuntimeError("late"), None)
            assert seen == [RuntimeError]  # chained on
            assert read_flight_dump(rec.path)["events"] == before["events"]
            with flight_recording(str(tmp_path / "live")) as live:
                sys.excepthook(KeyError, KeyError("now"), None)
                assert live.snapshot()["events"][-1]["kind"] == (
                    "unhandled_exception")
        finally:
            sys.excepthook = original

    def test_scope_records_the_exception_that_ends_it(self, tmp_path):
        with pytest.raises(RuntimeError):
            with flight_recording(str(tmp_path)) as rec:
                rec.mark_inflight(what="block", block=[0, 4, 1])
                raise RuntimeError("boom")
        doc = read_flight_dump(rec.path)
        assert doc["events"][-1]["kind"] == "unhandled_exception"
        assert "boom" in doc["events"][-1]["error"]
        assert doc["inflight"]["block"] == [0, 4, 1]


class TestOneStream:
    def test_journal_and_dump_end_on_the_same_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with journaling(path), flight_recording(str(tmp_path)) as rec:
            journal_event("block_completed", block=np.int64(3), stop=7,
                          states=[1, 2])
        line = read_journal(path)[-1]
        last = read_flight_dump(rec.path)["events"][-1]
        assert line.pop("seq") == 0
        assert line == last
        assert last["kind"] == "block_completed" and last["block"] == 3

    def test_inflight_marks_stay_out_of_the_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with journaling(path), flight_recording(str(tmp_path)) as rec:
            flight_mark_inflight(what="block", block=[0, 2, 1])
            journal_event("block_completed", block=0)
            flight_clear_inflight(what="block", block=[0, 2, 1])
        assert [e["kind"] for e in read_journal(path)] == ["block_completed"]
        kinds = [e["kind"] for e in read_flight_dump(rec.path)["events"]]
        assert kinds == ["started", "inflight", "block_completed",
                         "completed"]

    def test_dump_lists_span_ends_between_events(self, tmp_path):
        """A dump says which phase closed before the in-flight mark:
        span ends share the ring with the event records, in order."""
        with flight_recording(str(tmp_path)) as rec:
            journal_event("block_started")
            with span("tree_sample"):
                pass
            flight_mark_inflight(what="block", block=[0, 2, 1])
            doc = read_flight_dump(rec.path)
            flight_clear_inflight(what="block", block=[0, 2, 1])
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds == ["started", "block_started", "span", "inflight"]
        row = doc["events"][2]
        assert row["path"] == "tree_sample"
        assert row["pid"] == os.getpid() == doc["pid"]
        # A flight recorder alone mints no trace identity.
        assert row["trace_id"] == row["span_id"] == ""
        assert doc["events"][1]["ts"] <= row["start"] <= row["end"]
        assert row["end"] <= doc["events"][3]["ts"]

    def test_span_ends_carry_trace_identity_beside_a_collector(
            self, tmp_path):
        with flight_recording(str(tmp_path)) as rec, \
                collecting_trace() as trace:
            with span("tree_sample"):
                pass
            doc = rec.snapshot()
        (row,) = [e for e in doc["events"] if e["kind"] == "span"]
        (event,) = trace.events()
        assert row["trace_id"] == event.trace_id != ""
        assert row["span_id"] == event.span_id != ""

    def test_flight_only_runs_turn_events_on(self, tmp_path):
        with flight_recording(str(tmp_path)):
            assert events_enabled()
        assert not events_enabled()


class TestReadDumps:
    def test_read_rejects_torn_file(self, tmp_path):
        path = tmp_path / "flight-1.json"
        path.write_text('{"version": 1, "pid": 1, "wall"')
        with pytest.raises(ReproError, match="unreadable"):
            read_flight_dump(str(path))

    def test_read_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "flight-1.json"
        path.write_text(json.dumps({
            "version": DUMP_VERSION + 1, "pid": 1, "wall": 0.0, "events": []
        }))
        with pytest.raises(ReproError, match="version"):
            read_flight_dump(str(path))

    @pytest.mark.parametrize("missing", ["pid", "wall", "events"])
    def test_read_rejects_missing_keys(self, tmp_path, missing):
        doc = {"version": DUMP_VERSION, "pid": 1, "wall": 0.0, "events": []}
        del doc[missing]
        path = tmp_path / "flight-1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match=missing):
            read_flight_dump(str(path))

    def test_find_filters_and_sorts(self, tmp_path):
        (tmp_path / "flight-20.json").write_text("{}")
        (tmp_path / "flight-10.json").write_text("{}")
        (tmp_path / "other.json").write_text("{}")
        (tmp_path / "flight-5.txt").write_text("")
        found = find_flight_dumps(str(tmp_path))
        assert [os.path.basename(p) for p in found] == [
            "flight-10.json", "flight-20.json"
        ]

    def test_find_missing_directory_is_empty(self, tmp_path):
        assert find_flight_dumps(str(tmp_path / "nope")) == []

    def test_iter_skips_torn_dumps(self, tmp_path):
        good = FlightRecorder(str(tmp_path / "flight-1.json"))
        good.append(_record("tick"))
        good.dump()
        (tmp_path / "flight-2.json").write_text("{ torn")
        docs = list(iter_flight_dumps(str(tmp_path)))
        assert len(docs) == 1
        assert docs[0]["events"][-1]["kind"] == "tick"


class TestFlightCli:
    def _dump(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "flight-99.json"),
                             autodump_every=0)
        rec.mark_inflight(what="growth_round", block_start=0, block_stop=8)
        return rec

    def test_dump_directory_human(self, tmp_path, capsys):
        self._dump(tmp_path)
        assert main(["flight", "dump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pid 99" not in out  # pid comes from the dump, not the name
        assert "IN FLIGHT at last dump" in out
        assert "growth_round" in out

    def test_dump_single_file_json(self, tmp_path, capsys):
        self._dump(tmp_path)
        path = tmp_path / "flight-99.json"
        assert main(["flight", "dump", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inflight"]["what"] == "growth_round"

    def test_dump_empty_directory_fails(self, tmp_path, capsys):
        assert main(["flight", "dump", str(tmp_path)]) == 1
        assert "no flight dumps" in capsys.readouterr().err

    def test_dump_hides_timestamps(self, tmp_path, capsys):
        rec = FlightRecorder(str(tmp_path / "flight-7.json"))
        rec.append({"ts": 1.5, "seq": 4, "kind": "tick", "n": 2})
        rec.dump()
        assert main(["flight", "dump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tick: {'n': 2}" in out
        assert "'ts'" not in out and "'seq'" not in out

    def test_dump_prints_span_on_one_line(self, tmp_path, capsys):
        rec = FlightRecorder(str(tmp_path / "flight-8.json"))
        rec.record_event(SpanEvent("campaign/block/tree_sample",
                                   1.0, 1.0025, 1))
        rec.dump()
        assert main(["flight", "dump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (f"    span campaign/block/tree_sample: 2.500 ms "
                f"(pid {os.getpid()})\n") in out

    def test_dump_reads_pre_stream_dumps(self, tmp_path, capsys):
        """Dumps whose ring events carry ``wall`` (written before the
        ring held journal records) still read and render."""
        path = tmp_path / "flight-3.json"
        path.write_text(json.dumps({
            "version": DUMP_VERSION, "pid": 3, "wall": 10.0,
            "inflight": None,
            "events": [{"kind": "started", "wall": 9.0, "role": "old"}],
        }))
        assert read_flight_dump(str(path))["events"][0]["role"] == "old"
        assert main(["flight", "dump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "started: {'role': 'old'}" in out

    def test_cloud_flight_dir_alone_records_the_campaign(self, tmp_path):
        """``repro cloud --flight-dir`` without ``--journal``: the
        driver's dump holds the campaign's journal events, and the run
        gives the crash hooks back."""
        from repro.graph.io import write_edgelist

        from tests.conftest import make_connected_signed

        graph = tmp_path / "g.txt"
        write_edgelist(make_connected_signed(30, 60, seed=4), str(graph))
        hooks = (sys.excepthook, threading.excepthook)
        flight = tmp_path / "flight"
        for _ in range(3):
            assert main(["cloud", str(graph), "--states", "4",
                         "--flight-dir", str(flight)]) == 0
        assert (sys.excepthook, threading.excepthook) == hooks
        doc = read_flight_dump(str(flight / f"flight-{os.getpid()}.json"))
        kinds = [e["kind"] for e in doc["events"]]
        assert {"campaign_started", "campaign_completed"} <= set(kinds)
        assert kinds[-1] == "campaign_completed"
        assert doc["inflight"] is None

    def test_dump_unreadable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "flight-1.json"
        path.write_text("{ torn")
        assert main(["flight", "dump", str(path)]) == 1
        assert "unreadable" in capsys.readouterr().err
