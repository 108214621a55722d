"""Tests for the crash flight recorder: ring bounds, the
dump-before-compute discipline of ``mark_inflight``, atomic dump
reading/validation, and the ``repro flight dump`` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf.flight import (
    DUMP_VERSION,
    FlightRecorder,
    find_flight_dumps,
    flight_dump,
    flight_event,
    flight_mark_inflight,
    get_flight_recorder,
    install_flight_recorder,
    iter_flight_dumps,
    read_flight_dump,
    set_flight_recorder,
)


@pytest.fixture(autouse=True)
def _no_global_recorder():
    """Tests must not leak a recorder into the rest of the suite."""
    previous = get_flight_recorder()
    set_flight_recorder(None)
    yield
    set_flight_recorder(previous)


class TestRecorder:
    def test_ring_is_bounded(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "f.json"), capacity=4,
                             autodump_every=0)
        for i in range(10):
            rec.record("tick", i=i)
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
        rec.record("a")
        rec.record("b")
        assert not path.exists()
        rec.record("c")
        assert len(read_flight_dump(str(path))["events"]) == 3

    def test_dump_swallows_unwritable_path(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "gone" / "f.json"))
        rec.record("tick")
        assert rec.dump() is None  # never takes the process down

    def test_dump_leaves_no_tmp_litter(self, tmp_path):
        path = tmp_path / "f.json"
        rec = FlightRecorder(str(path), autodump_every=0)
        for _ in range(5):
            rec.record("tick")
            rec.dump()
        assert sorted(os.listdir(tmp_path)) == ["f.json"]


class TestGlobalRecorder:
    def test_helpers_are_noops_without_recorder(self):
        flight_event("tick")
        flight_mark_inflight(what="x")
        assert flight_dump() is None

    def test_install_creates_per_pid_file(self, tmp_path):
        rec = install_flight_recorder(str(tmp_path), role="test-proc")
        assert get_flight_recorder() is rec
        flight_event("tick")
        path = flight_dump()
        assert path == str(tmp_path / f"flight-{os.getpid()}.json")
        doc = read_flight_dump(path)
        assert doc["pid"] == os.getpid()
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds[0] == "started"
        assert doc["events"][0]["role"] == "test-proc"
        assert "tick" in kinds


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
        good.record("tick")
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

    def test_dump_unreadable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "flight-1.json"
        path.write_text("{ torn")
        assert main(["flight", "dump", str(path)]) == 1
        assert "unreadable" in capsys.readouterr().err
