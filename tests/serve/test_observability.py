"""Serve-layer observability: request identity headers, the gated
debug endpoints, cross-process trace stitching through ``/debug/grow``
→ ``/debug/trace``, the structured access log, flight-recorder dumps,
and the ``/metrics`` exposition grammar.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import sys
import threading
import time

import pytest

from repro.perf.flight import find_flight_dumps, read_flight_dump
from repro.perf.tracectx import TraceContext
from repro.perf.trace_export import validate_chrome_trace

from tests.serve.conftest import daemon

_TRACEPARENT = re.compile(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-01$")


class TestRequestIdentity:
    def test_response_carries_minted_identity(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            _status, headers, _body = handle.request("/frustration")
            assert _TRACEPARENT.match(headers["traceparent"])
            # No inbound X-Request-Id: the trace id doubles as one.
            ctx = TraceContext.from_traceparent(headers["traceparent"])
            assert headers["X-Request-Id"] == ctx.trace_id

    def test_inbound_identity_echoed(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            inbound = TraceContext.mint()
            _status, headers, _body = handle.request(
                "/snapshot",
                headers={
                    "X-Request-Id": "req-42",
                    "traceparent": inbound.to_traceparent(),
                },
            )
            assert headers["X-Request-Id"] == "req-42"
            ctx = TraceContext.from_traceparent(headers["traceparent"])
            assert ctx.trace_id == inbound.trace_id
            assert ctx.span_id != inbound.span_id  # a child, not an echo

    def test_malformed_traceparent_gets_fresh_trace(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            _status, headers, _body = handle.request(
                "/snapshot", headers={"traceparent": "junk"}
            )
            assert _TRACEPARENT.match(headers["traceparent"])


class TestDebugGating:
    def test_debug_endpoints_404_when_disabled(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            status, _, _ = handle.request("/debug/trace?trace_id=abc")
            assert status == 404
            status, _, _ = handle.request("/debug/grow")
            assert status == 404


class TestStitchedServeTrace:
    def test_grow_request_yields_one_cross_process_trace(self, tmp_path):
        """The PR's acceptance flow: one query triggers growth over a
        worker pool; ``/debug/trace`` returns ONE Perfetto-loadable
        document holding the HTTP request span, the growth-round span,
        and worker-side spans from other processes, all under a single
        trace id."""
        with daemon(
            grow=False, target_states=24, grow_step=8, grow_workers=2,
            debug_trace=True,
            flight_dir=tmp_path / "flight",
            access_log=tmp_path / "access.jsonl",
        ) as handle:
            status, headers, body = handle.request(
                "/debug/grow", headers={"X-Request-Id": "req-1"},
                timeout=120.0,
            )
            assert status == 200
            grew = json.loads(body)
            assert grew["grew"] is True
            assert headers["X-Request-Id"] == "req-1"

            status, _, body = handle.request("/debug/trace?request_id=req-1")
            assert status == 200
            doc = json.loads(body)
            validate_chrome_trace(doc)
            assert doc["otherData"]["request_id"] == "req-1"
            assert doc["otherData"]["trace_id"] == grew["trace_id"]

            events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
            names = {e["name"] for e in events}
            assert "serve_request" in names
            assert "serve_growth_round" in names
            assert "block" in names
            trace_ids = {e["args"]["trace_id"] for e in events}
            assert trace_ids == {grew["trace_id"]}
            pids = {e["pid"] for e in events}
            # The daemon plus at least one pool worker.  Which worker
            # runs which block is the scheduler's choice: one worker
            # may drain both blocks before the other starts.
            assert len(pids) >= 2

    def test_query_request_id_resolves(self):
        with daemon(
            grow=False, target_states=4, grow_step=4, debug_trace=True,
        ) as handle:
            handle.request("/debug/grow", timeout=60.0)
            status, headers, _ = handle.request(
                "/vertex/1", headers={"X-Request-Id": "q-1"})
            assert status == 200
            status, _, body = handle.request("/debug/trace?request_id=q-1")
            assert status == 200
            doc = json.loads(body)
            ctx = TraceContext.from_traceparent(headers["traceparent"])
            assert doc["otherData"]["trace_id"] == ctx.trace_id
            names = {e["name"] for e in doc["traceEvents"]
                     if e.get("ph") == "X"}
            assert "serve_request" in names

    def test_unknown_ids_404(self, tmp_path):
        with daemon(
            grow=False, target_states=4, grow_step=4, debug_trace=True,
        ) as handle:
            handle.request("/debug/grow", timeout=60.0)
            status, _, _ = handle.request("/debug/trace?request_id=nope")
            assert status == 404
            status, _, _ = handle.request("/debug/trace?trace_id=" + "0" * 32)
            assert status == 404


    def test_wrapped_ring_keeps_the_newest_requests(self):
        """``--trace-max-events`` bounds the daemon's ring and the
        oldest records drop first: once growth and traffic have wrapped
        it, a new request's trace is there and the first one's is
        gone."""
        bound = 64
        with daemon(
            target_states=4000, grow_step=4, grow_delay_ms=20.0,
            debug_trace=True, trace_max_events=bound,
        ) as handle:
            handle.wait_states(8)
            status, _, _ = handle.request(
                "/frustration", headers={"X-Request-Id": "early"})
            assert status == 200
            for _ in range(2 * bound):  # one serve_request span each
                handle.request("/frustration")
            status, _, _ = handle.request(
                "/frustration", headers={"X-Request-Id": "late"})
            assert status == 200
            status, _, body = handle.request("/debug/trace?request_id=late")
            assert status == 200
            doc = json.loads(body)
            names = {e["name"] for e in doc["traceEvents"]
                     if e.get("ph") == "X"}
            assert "serve_request" in names
            assert doc["otherData"]["dropped"] > 0
            status, _, _ = handle.request("/debug/trace?request_id=early")
            assert status == 404


class TestReadBookkeeping:
    """What each point read leaves behind: one count in each request
    series and one ``serve_request`` span, and its own identity on the
    answer."""

    READS = 40

    @staticmethod
    def _series(conn) -> dict:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        assert response.status == 200
        return {name: float(value) for name, value
                in re.findall(r"^(repro_\S+) (\S+)$", text, re.M)}

    def test_reads_count_once_each_and_carry_their_own_ids(self):
        names = ("repro_serve_requests_total", "repro_serve_http_200_total",
                 "repro_serve_request_seconds_count",
                 "repro_span_serve_request_calls")
        with daemon(target_states=6, grow_step=6) as handle:
            polls = handle.wait_states(6)
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10)
            try:
                # A query is counted after its answer is sent, so the
                # last poll's counts may land after wait_states returns:
                # scrape until every poll is in.
                limit = time.monotonic() + 10
                before = self._series(conn)
                while before.get("repro_serve_requests_total", 0) < polls:
                    assert time.monotonic() < limit, "polls never counted"
                    time.sleep(0.01)
                    before = self._series(conn)
                trace_ids = set()
                for k in range(self.READS):
                    path = f"/vertex/{k % 20}" if k % 2 else f"/edge/{k % 25}"
                    conn.request("GET", path,
                                 headers={"X-Request-Id": f"read-{k}"})
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                    assert response.getheader("X-Request-Id") == f"read-{k}"
                    ctx = TraceContext.from_traceparent(
                        response.getheader("traceparent"))
                    assert ctx is not None
                    trace_ids.add(ctx.trace_id)
                after = self._series(conn)
            finally:
                conn.close()
        assert len(trace_ids) == self.READS
        grown = {name: after.get(name, 0) - before.get(name, 0)
                 for name in names}
        # The first scrape is itself a 200, counted once its body is
        # rendered; probes are not requests and open no span.
        assert grown == {
            "repro_serve_requests_total": self.READS,
            "repro_serve_http_200_total": self.READS + 1,
            "repro_serve_request_seconds_count": self.READS,
            "repro_span_serve_request_calls": self.READS,
        }


class TestAccessLog:
    def test_one_line_per_request_with_outcomes(self, tmp_path):
        log = tmp_path / "access.jsonl"
        with daemon(
            target_states=6, grow_step=6, access_log=log,
        ) as handle:
            handle.wait_ready()
            handle.request("/frustration",
                           headers={"X-Request-Id": "req-a"})
            handle.request("/frustration",
                           headers={"X-Request-Id": "req-b"})
            handle.request("/nope", headers={"X-Request-Id": "req-c"})
        lines = [json.loads(line)
                 for line in log.read_text().splitlines() if line]
        by_id = {e["request_id"]: e for e in lines
                 if e["kind"] == "serve_access"}
        assert {"req-a", "req-b", "req-c"} <= set(by_id)
        first, second = by_id["req-a"], by_id["req-b"]
        assert first["path"] == "/frustration"
        assert first["status"] == 200
        assert first["latency_ms"] >= 0
        assert first["outcome"] == second["outcome"] == "ok"
        assert by_id["req-c"]["status"] == 404
        assert TraceContext.from_dict(
            {"trace_id": first["trace_id"], "span_id": "f" * 16}
        ) is not None  # trace id present and well-formed

    def test_no_log_file_when_disabled(self, tmp_path):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            handle.request("/frustration")
        assert not (tmp_path / "access.jsonl").exists()


class TestServeFlight:
    def test_clean_run_leaves_dump_with_cleared_inflight(self, tmp_path):
        flight = tmp_path / "flight"
        with daemon(
            grow=False, target_states=8, grow_step=8, debug_trace=True,
            flight_dir=flight,
        ) as handle:
            status, _, body = handle.request("/debug/grow", timeout=120.0)
            assert status == 200 and json.loads(body)["grew"]
        assert handle.exit_code == 0
        dumps = find_flight_dumps(str(flight))
        assert dumps
        docs = [read_flight_dump(p) for p in dumps]
        daemon_docs = [
            d for d in docs
            if any(e["kind"] == "inflight"
                   and e.get("what") == "growth_round"
                   for e in d["events"])
        ]
        assert daemon_docs, "daemon dump must record the growth round"
        # Clean shutdown: the final dump shows nothing in flight.
        assert daemon_docs[0]["inflight"] is None

    def test_final_dump_holds_server_stopped(self, tmp_path):
        """The daemon's last dump is the scope's exit dump: it ends on
        the journal's ``server_stopped`` (no ``--journal`` needed), with
        nothing in flight, and the crash hooks are the host's again."""
        flight = tmp_path / "flight"
        hooks = (sys.excepthook, threading.excepthook)
        with daemon(target_states=8, grow_step=4, flight_dir=flight) as handle:
            handle.wait_states(8)
        assert handle.exit_code == 0
        assert (sys.excepthook, threading.excepthook) == hooks
        doc = read_flight_dump(str(flight / f"flight-{os.getpid()}.json"))
        kinds = [e["kind"] for e in doc["events"]]
        assert {"server_started", "server_draining"} <= set(kinds)
        assert kinds[-1] == "server_stopped"
        assert doc["inflight"] is None


class TestMetricsEndpoint:
    def test_scrape_matches_exposition_grammar(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            handle.request("/frustration")
            status, headers, body = handle.request("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        typed = {}
        sample_re = re.compile(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? [^ ]+$"
        )
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, metric, kind = line.split()
                assert kind in ("counter", "gauge", "histogram")
                typed[metric] = kind
                continue
            if line.startswith("# HELP "):
                continue
            assert not line.startswith("#")
            m = sample_re.match(line)
            assert m, f"malformed sample line: {line!r}"
            base = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
            assert base in typed or m.group(1) in typed
        assert typed.get("repro_serve_requests_total") == "counter"

    def test_inf_bucket_equals_count_on_scrape(self):
        with daemon(target_states=6, grow_step=6) as handle:
            handle.wait_ready()
            for _ in range(3):
                handle.request("/frustration")
            _, _, body = handle.request("/metrics")
        text = body.decode("utf-8")
        infs = dict(re.findall(r'(\S+)_bucket\{le="\+Inf"\} (\d+)', text))
        counts = dict(re.findall(r"(\S+)_count (\d+)", text))
        assert infs  # at least one histogram scraped
        for metric, total in infs.items():
            assert counts[metric] == total
