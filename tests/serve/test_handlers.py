"""Deadline parsing/enforcement and pure endpoint rendering."""

from __future__ import annotations

import json
import time

import pytest

from repro.cloud.cloud import sample_cloud
from repro.errors import ServeError
from repro.perf.registry import collecting
from repro.serve.handlers import (
    Deadline,
    DeadlineExceeded,
    render_metrics,
    route_query,
)
from repro.serve.state import QuerySnapshot

from tests.conftest import make_connected_signed


@pytest.fixture(scope="module")
def snapshot():
    graph = make_connected_signed(16, 20, seed=5)
    cloud = sample_cloud(graph, 8, seed=5)
    return QuerySnapshot(cloud, epoch=1, fingerprint="fp")


class TestDeadline:
    def test_absent_header_is_unbounded(self):
        deadline = Deadline.from_header(None)
        assert deadline.remaining is None
        deadline.check()  # never raises

    def test_malformed_header_raises_serve_error(self):
        with pytest.raises(ServeError, match="X-Deadline-Ms"):
            Deadline.from_header("soon")
        with pytest.raises(ServeError):
            Deadline.from_header("-5")
        with pytest.raises(ServeError):
            Deadline.from_header("0")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_header_raises_serve_error(self, value):
        with pytest.raises(ServeError, match="finite"):
            Deadline.from_header(value)

    def test_expiry_raises_mid_query(self):
        deadline = Deadline(1.0)  # 1 ms
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_live_deadline_passes(self):
        deadline = Deadline.from_header("60000")
        deadline.check()
        assert 0 < deadline.remaining <= 60.0


class TestRouting:
    def _body(self, response):
        return json.loads(response[2])

    def test_vertex_and_edge(self, snapshot):
        unbounded = Deadline(None)
        status, ctype, body = route_query("/vertex/0", snapshot, unbounded)
        assert status == 200 and ctype == "application/json"
        assert self._body((status, ctype, body))["vertex"] == 0
        status, _, body = route_query("/edge/1", snapshot, unbounded)
        assert json.loads(body)["edge"] == 1
        assert json.loads(body)["frustration"] == pytest.approx(
            1.0 - json.loads(body)["agreement"]
        )

    def test_info_frustration_bipartition(self, snapshot):
        unbounded = Deadline(None)
        for path, key in [
            ("/snapshot", "fingerprint"),
            ("/frustration", "contested_edges"),
            ("/bipartition", "sizes"),
        ]:
            status, _, body = route_query(path, snapshot, unbounded)
            assert status == 200
            assert key in json.loads(body)
        status, _, body = route_query(
            "/bipartition?members=1", snapshot, unbounded
        )
        assert len(json.loads(body)["members"]) == snapshot.num_vertices

    def test_unknown_path_404(self, snapshot):
        status, _, body = route_query("/nope", snapshot, Deadline(None))
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_bad_id_raises_serve_error(self, snapshot):
        with pytest.raises(ServeError, match="integer"):
            route_query("/vertex/zero", snapshot, Deadline(None))
        with pytest.raises(ServeError, match="out of range"):
            route_query("/edge/100000", snapshot, Deadline(None))

    def test_expired_deadline_stops_rendering(self, snapshot):
        deadline = Deadline(1.0)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            route_query("/bipartition?members=1", snapshot, deadline)


def test_metrics_render_prometheus_text():
    with collecting(merge=False) as metrics:
        metrics.count("serve.requests_total", 3)
        metrics.gauge("serve.degraded", 0.0)
        metrics.observe("serve.request_seconds", 0.01)
        status, ctype, body = render_metrics()
    assert status == 200
    assert ctype.startswith("text/plain")
    text = body.decode()
    assert "repro_serve_requests_total 3" in text
    assert "repro_serve_degraded 0" in text
    assert 'repro_serve_request_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_serve_request_seconds_count 1" in text
