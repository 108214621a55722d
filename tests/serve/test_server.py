"""In-process daemon tests: probes, admission, deadlines, same bytes
within an epoch, drain, one send per answer, the request ring and the
``Date`` memo."""

from __future__ import annotations

import io
import json

import pytest

from repro.cloud.cloud import sample_cloud
from repro.perf.registry import get_registry
from repro.serve.admission import TokenBucket
from repro.serve.server import FrustrationServer, ServeConfig, _RequestHandler
from repro.serve.state import SnapshotStore

from tests.conftest import make_connected_signed
from tests.serve.conftest import daemon


def test_queries_and_probes_end_to_end(tmp_path):
    with daemon(
        target_states=24,
        grow_step=8,
        checkpoint=tmp_path / "ck.npz",
        journal=tmp_path / "j.jsonl",
    ) as d:
        d.wait_ready()
        assert d.request("/healthz")[0] == 200
        status, _, body = d.request("/vertex/0")
        assert status == 200
        payload = json.loads(body)
        assert {"status", "influence", "side", "epoch"} <= set(payload)
        status, _, body = d.request("/edge/0")
        assert json.loads(body)["frustration"] == pytest.approx(
            1.0 - json.loads(body)["agreement"]
        )
        assert d.request("/nope")[0] == 404
        assert d.request("/vertex/not-a-number")[0] == 400
        status, _, body = d.request("/metrics")
        assert status == 200 and b"repro_serve_requests_total" in body
        d.wait_states(24)
    assert d.exit_code == 0
    # Drain wrote a final checkpoint and journaled the lifecycle.
    assert (tmp_path / "ck.npz").exists()
    kinds = [
        json.loads(line)["kind"]
        for line in (tmp_path / "j.jsonl").read_text().splitlines()
    ]
    assert "server_started" in kinds
    assert "serve_snapshot_published" in kinds
    assert "server_draining" in kinds
    assert kinds[-1] == "server_stopped"


def test_readyz_is_503_before_first_snapshot():
    with daemon(grow=False, target_states=0) as d:
        status, headers, _ = d.request("/readyz")
        assert status == 503
        assert d.request("/healthz")[0] == 200  # alive, just not ready
        status, headers, body = d.request("/vertex/0")
        assert status == 503
        assert "Retry-After" in headers
        assert "warming up" in json.loads(body)["error"]
    assert d.exit_code == 0


def test_admission_refuses_with_retry_after():
    with daemon(target_states=8, grow_step=8, qps=0.5, burst=2) as d:
        d.wait_ready()
        statuses = [d.request("/snapshot")[0] for _ in range(6)]
        assert 200 in statuses and 503 in statuses
        # Refusals carry an honest Retry-After and never hang.
        status, headers, body = d.request("/snapshot")
        if status == 503:
            assert int(headers["Retry-After"]) >= 1
            assert json.loads(body)["error"] == "overloaded"
        assert get_registry().counter("serve.throttled_total") >= 1
    assert d.exit_code == 0


def test_expired_deadline_is_504_within_budget():
    import time

    with daemon(target_states=8, grow_step=8) as d:
        d.wait_ready()
        start = time.monotonic()
        status, _, body = d.request(
            "/bipartition?members=1", headers={"X-Deadline-Ms": "0.001"}
        )
        elapsed = time.monotonic() - start
        assert status == 504
        assert "deadline" in json.loads(body)["error"]
        assert elapsed < 0.001 + 0.5  # bounded: deadline + small slop
        assert get_registry().counter("serve.deadline_exceeded_total") >= 1
        # Malformed or non-finite deadlines are a 400, immediately.
        for value in ("x", "nan", "inf", "1e400"):
            assert d.request(
                "/vertex/0", headers={"X-Deadline-Ms": value})[0] == 400
    assert d.exit_code == 0


def test_cache_hits_within_an_epoch():
    with daemon(target_states=8, grow_step=8) as d:
        d.wait_states(8)  # campaign done: epoch stops moving
        first = d.request("/vertex/1")
        second = d.request("/vertex/1")
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
    assert d.exit_code == 0


def test_responses_identical_across_cache_and_epochs(tmp_path):
    """The same (fingerprint, states) must render identical bytes no
    matter whether the answer was rendered on this read or kept."""
    with daemon(
        target_states=16, grow_step=4, checkpoint=tmp_path / "ck.npz"
    ) as d:
        d.wait_states(16)
        bodies = {d.request("/frustration")[2] for _ in range(5)}
        assert len(bodies) == 1


def test_drain_rejects_new_queries_and_exits_zero(tmp_path):
    with daemon(
        target_states=4000,  # long campaign: drain interrupts it
        grow_step=4,
        grow_delay_ms=10.0,
        checkpoint=tmp_path / "ck.npz",
        journal=tmp_path / "j.jsonl",
    ) as d:
        d.wait_ready()
        d.stop.set()  # begin drain while growth is mid-campaign
        d.thread.join(30)
        assert not d.thread.is_alive()
    assert d.exit_code == 0
    assert (tmp_path / "ck.npz").exists()
    events = [
        json.loads(line)
        for line in (tmp_path / "j.jsonl").read_text().splitlines()
    ]
    stopped = [e for e in events if e["kind"] == "server_stopped"]
    assert stopped and stopped[-1]["drained"] is True


def test_slow_client_cannot_pin_a_handler_thread():
    from repro.util.faults import SlowClient

    with daemon(target_states=8, grow_step=8, request_timeout=0.3) as d:
        d.wait_ready()
        with SlowClient(
            "127.0.0.1", d.port, byte_delay=0.0, stall_after=10
        ) as slow:
            sent = slow.trickle(b"GET /vertex/0 HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sent == 10  # stalled mid-request-line
            import time

            time.sleep(0.6)  # > request_timeout: server reaps the conn
            # The daemon still answers healthy clients promptly.
            assert d.request("/vertex/0", timeout=3.0)[0] == 200
    assert d.exit_code == 0


class _RecordingSocket:
    """A connected socket stand-in: the client sent *requests*, and each
    ``sendall`` of the daemon is kept in ``sent``."""

    def __init__(self, requests: bytes) -> None:
        self._requests = requests
        self.sent: list = []

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self._requests)

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))

    def settimeout(self, timeout) -> None:
        pass

    def setsockopt(self, *args) -> None:
        pass


def _recording(debug_trace: bool = False) -> FrustrationServer:
    snapshots = SnapshotStore()
    snapshots.publish(
        sample_cloud(make_connected_signed(20, 25, seed=11), 8, seed=3), "fp")
    return FrustrationServer(
        ("127.0.0.1", 0), ServeConfig(debug_trace=debug_trace), snapshots,
        TokenBucket(0.0, 32), None,
    )


@pytest.fixture
def recording_server():
    server = _recording()
    try:
        yield server
    finally:
        server.server_close()


def _serve(server, *paths: str) -> list:
    """Answer *paths* on one keep-alive connection; the sends made."""
    sock = _RecordingSocket(b"".join(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        for path in paths))
    _RequestHandler(sock, ("127.0.0.1", 1), server)
    return sock.sent


def _split(send: bytes):
    head, _, body = send.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in lines[1:])
    return lines[0], fields, body


def test_each_answer_is_one_send(recording_server):
    paths = ("/vertex/0", "/edge/1", "/vertex/0", "/nope", "/vertex/x",
             "/healthz")
    sent = _serve(recording_server, *paths)
    assert len(sent) == len(paths)
    statuses = []
    for send in sent:
        status_line, fields, body = _split(send)
        statuses.append(status_line)
        assert int(fields["Content-Length"]) == len(body) > 0
        assert "Connection" not in fields
    assert statuses == ["HTTP/1.1 200 OK"] * 3 + [
        "HTTP/1.1 404 Not Found", "HTTP/1.1 400 Bad Request",
        "HTTP/1.1 200 OK"]
    assert json.loads(_split(sent[0])[2])["vertex"] == 0
    assert json.loads(_split(sent[1])[2])["edge"] == 1
    assert _split(sent[0])[2] == _split(sent[2])[2]  # same bytes


def test_a_draining_answer_closes_the_connection(recording_server):
    recording_server.start_draining()
    sent = _serve(recording_server, "/vertex/0", "/vertex/1")
    assert len(sent) == 1  # the second request is never read
    status_line, fields, body = _split(sent[0])
    assert status_line == "HTTP/1.1 503 Service Unavailable"
    assert fields["Connection"] == "close"
    assert fields["Retry-After"] == "1"
    assert json.loads(body) == {"error": "draining"}
    assert int(fields["Content-Length"]) == len(body)


def _ids_and_traces(sent: list) -> list:
    fields = [_split(send)[1] for send in sent]
    return [(f["X-Request-Id"], f["traceparent"].split("-")[1])
            for f in fields]


def test_request_ring_stays_empty_without_debug_trace(recording_server):
    sent = _serve(recording_server, "/vertex/0", "/edge/1", "/frustration")
    assert len(sent) == 3
    assert len(recording_server._recent) == 0
    for request_id, _trace in _ids_and_traces(sent):
        assert recording_server.lookup_request(request_id) is None


def test_request_ring_records_queries_with_debug_trace():
    server = _recording(debug_trace=True)
    try:
        sent = _serve(server, "/vertex/0", "/edge/1", "/nope")
        for request_id, trace in _ids_and_traces(sent):
            assert server.lookup_request(request_id) == trace
    finally:
        server.server_close()


def test_date_header_is_formatdate_of_the_current_second(
        recording_server, monkeypatch):
    import time
    from email.utils import formatdate

    dates = []
    for now in (1_700_000_000.25, 1_700_000_000.75, 1_700_000_001.5,
                1_700_000_001.0, 1_700_003_600.0):
        monkeypatch.setattr(time, "time", lambda: now)
        (send,) = _serve(recording_server, "/vertex/0")
        dates.append(_split(send)[1]["Date"])
        assert dates[-1] == formatdate(now, usegmt=True)
    assert dates[0] == dates[1] != dates[2] == dates[3] != dates[4]
