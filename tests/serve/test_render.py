"""Rendered answers are canonical JSON of the payloads, byte for byte.

``QuerySnapshot`` writes ``/vertex/<id>`` and ``/edge/<id>`` answers
straight to bytes and keeps each whole-snapshot answer once rendered;
``route_query`` hands those bytes out.  The reference is the payload
dict through :func:`~repro.serve.state.canonical_json`, and for odd
request targets the routing rule it replaced: ``urlsplit``, then
``parse_qs``, then a payload dict.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlsplit

import pytest

from repro.cloud.cloud import sample_cloud
from repro.errors import ServeError
from repro.serve.handlers import Deadline, route_query
from repro.serve.state import QuerySnapshot, SnapshotStore, canonical_json

from tests.conftest import make_connected_signed

_GRAPH = make_connected_signed(40, 90, seed=13)


def _published(states: int) -> QuerySnapshot:
    return SnapshotStore().publish(
        sample_cloud(_GRAPH, states, seed=states), "fp")


@pytest.fixture(scope="module", params=[1, 2, 3, 1024])
def snapshot(request):
    return _published(request.param)


@pytest.fixture(scope="module", params=[1, 1024])
def routing_snapshot(request):
    return _published(request.param)


def test_every_vertex_and_edge_renders_its_payload(snapshot):
    for v in range(snapshot.num_vertices):
        assert snapshot.vertex_json(v) == canonical_json(
            snapshot.vertex_payload(v))
    for e in range(snapshot.num_edges):
        assert snapshot.edge_json(e) == canonical_json(
            snapshot.edge_payload(e))


@pytest.mark.parametrize("path, payload", [
    ("/", lambda s: s.info_payload()),
    ("/snapshot", lambda s: s.info_payload()),
    ("/frustration", lambda s: s.frustration_payload()),
    ("/bipartition", lambda s: s.bipartition_payload()),
    ("/bipartition?members=1", lambda s: s.bipartition_payload(True)),
])
def test_whole_snapshot_routes_render_their_payload(snapshot, path, payload):
    status, ctype, body = route_query(path, snapshot, Deadline(None))
    assert (status, ctype) == (200, "application/json")
    assert body == canonical_json(payload(snapshot))
    # Rendered once: a second read hands out the same object.
    assert route_query(path, snapshot, Deadline(None))[2] is body


def test_aggregates_match_the_arrays(snapshot):
    side1 = int(snapshot.sides.sum())
    assert snapshot.side_sizes == (snapshot.num_vertices - side1, side1)
    assert snapshot.contested_edges == int(
        (snapshot.edge_agreement < 1.0).sum())


def test_each_snapshot_renders_its_own_epoch():
    store = SnapshotStore()
    cloud = sample_cloud(_GRAPH, 4, seed=1)
    first = store.publish(cloud, "fp").info_json()
    second = store.publish(cloud, "fp").info_json()
    assert first != second
    assert second == canonical_json(store.require().info_payload())


def _reference_route(path: str, snapshot: QuerySnapshot):
    """The routing rule before answers were rendered by the snapshot:
    ``urlsplit`` and ``parse_qs`` of every target, a payload dict, and
    ``canonical_json`` of it."""
    parts = urlsplit(path)
    segments = [s for s in parts.path.split("/") if s]
    params = parse_qs(parts.query)

    def ident(text, kind):
        try:
            return int(text)
        except ValueError:
            raise ServeError(
                f"{kind} id must be an integer, got {text!r}") from None

    if not segments or (segments[0] == "snapshot" and len(segments) == 1):
        payload = snapshot.info_payload()
    elif segments[0] == "vertex" and len(segments) == 2:
        payload = snapshot.vertex_payload(ident(segments[1], "vertex"))
    elif segments[0] == "edge" and len(segments) == 2:
        payload = snapshot.edge_payload(ident(segments[1], "edge"))
    elif segments[0] == "frustration" and len(segments) == 1:
        payload = snapshot.frustration_payload()
    elif segments[0] == "bipartition" and len(segments) == 1:
        values = params.get("members")
        members = bool(values) and values[-1].lower() in ("1", "true", "yes")
        payload = snapshot.bipartition_payload(members)
    else:
        return 404, canonical_json(
            {"error": f"unknown path {parts.path!r}"})
    return 200, canonical_json(payload)


def _outcome(route, path, snapshot):
    """``(status, body)`` as the daemon answers it: a ServeError is a
    400 carrying its message, any other error a 500."""
    try:
        return route(path, snapshot)
    except ServeError as exc:
        return 400, canonical_json({"error": str(exc)})
    except Exception as exc:  # the daemon answers 500, by type
        return 500, type(exc).__name__


_ODD_TARGETS = [
    "", "/", "//", "///", "/?x=1", "#f", "/snapshot/", "/snapshot?x=1",
    "/vertex/5", "/vertex/5?x=1", "/vertex/5#f", "/vertex/5/",
    "//vertex/5", "/vertex//5", "/vertex/+5", "/vertex/1_0", "/vertex/-1",
    "/vertex/-0", "/vertex/05", "/vertex/ 5", "/vertex/٥",
    "/vertex/%35", "/vertex/5.0", "/vertex/x", "/vertex/40",
    "/vertex/99999999999999999999", "/vertex", "/vertex/1/2",
    "/Vertex/1", "/edge/7?members=1", "/edge/+7", "/edge/1_0",
    "/edge/-1", "/edge/130", "/edge/7#f", "/edge/7/",
    "http://h/vertex/5", "http://h/edge/7?x=1", "http://h",
    "http://h/", "http://[/vertex/1", "/frustration#f",
    "/frustration/", "/frustration?members=1", "/bipartition/",
    "/bipartition?members=1#f", "/bipartition?members=TRUE",
    "/bipartition?members=yes", "/bipartition?members=0",
    "/bipartition?members=1&members=0", "/bipartition?members",
    "/bipartition?x=1;members=1", "/bipartition?members=%31",
    "/bipartition#members=1", "/nope", "/vertex/5/x", "?members=1",
]


@pytest.mark.parametrize("path", _ODD_TARGETS)
def test_odd_targets_answer_as_under_the_reference_rule(
        routing_snapshot, path):
    rendered = _outcome(lambda p, s: route_query(p, s, Deadline(None))[::2],
                        path, routing_snapshot)
    assert rendered == _outcome(_reference_route, path, routing_snapshot)


def test_threads_racing_on_first_reads_get_the_reference_bytes():
    """The whole-snapshot memo takes no lock: threads that race on a
    fresh snapshot's first reads, with the interpreter switching every
    microsecond, must each get the reference bytes, and every later
    read the one kept object."""
    import sys
    import threading

    paths = ["/", "/snapshot", "/frustration", "/bipartition",
             "/bipartition?members=1", "/vertex/3", "/edge/5"]
    cloud = sample_cloud(_GRAPH, 5, seed=5)
    store = SnapshotStore()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            snap = store.publish(cloud, "fp")
            expected = [_reference_route(p, snap)[1] for p in paths]
            start = threading.Barrier(6)
            results = []

            def read():
                start.wait(timeout=10)
                results.append([route_query(p, snap, Deadline(None))[2]
                                for p in paths])

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(results) == 6
            assert all(bodies == expected for bodies in results)
            kept = [route_query(p, snap, Deadline(None))[2] for p in paths[:5]]
            again = [route_query(p, snap, Deadline(None))[2] for p in paths[:5]]
            assert all(a is b for a, b in zip(kept, again))
    finally:
        sys.setswitchinterval(interval)
