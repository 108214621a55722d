"""Cooperative stop: an external event drains a supervised campaign."""

from __future__ import annotations

import threading

import numpy as np

from repro.cloud.cloud import sample_cloud
from repro.parallel.supervisor import RetryPolicy, run_supervised

from tests.conftest import make_connected_signed


def _blocks(total: int, step: int):
    return [(s, min(s + step, total), 1) for s in range(0, total, step)]


def test_pre_set_stop_event_abandons_everything():
    graph = make_connected_signed(12, 10, seed=2)
    stop = threading.Event()
    stop.set()
    completed, report = run_supervised(
        graph, _blocks(40, 4), method="bfs", seed=2,
        store_states=False, workers=1,
        policy=RetryPolicy(), stop_event=stop,
    )
    assert completed == []
    assert report.stopped
    assert not report.ok
    assert "stopped on request" in report.summary()
    assert any(e.kind == "stop" for e in report.events)
    assert report.to_dict()["stopped"] is True


def test_stop_mid_campaign_keeps_completed_prefix_valid():
    graph = make_connected_signed(12, 10, seed=2)
    stop = threading.Event()
    done = 0

    # Stop after the first block by setting the event from a timer the
    # first block's completion effectively races; to stay deterministic
    # we instead run block-at-a-time like the serve growth worker does.
    completed_all = []
    for block in _blocks(12, 4):
        completed, report = run_supervised(
            graph, [block], method="bfs", seed=2,
            store_states=False, workers=1,
            policy=RetryPolicy(), stop_event=stop,
        )
        if report.stopped:
            break
        assert report.ok
        completed_all.extend(completed)
        done += 1
        if done == 2:
            stop.set()  # request stop; next call must refuse to run
    assert done == 2
    merged = None
    for _start, local in sorted(completed_all, key=lambda kv: kv[0]):
        if merged is None:
            merged = local
        else:
            merged.merge(local)
    assert merged.num_states == 8
    expected = sample_cloud(graph, 8, seed=2)
    np.testing.assert_array_equal(merged.status(), expected.status())


def test_no_stop_event_behaves_as_before():
    graph = make_connected_signed(12, 10, seed=2)
    completed, report = run_supervised(
        graph, _blocks(8, 4), method="bfs", seed=2,
        store_states=False, workers=1, policy=RetryPolicy(),
    )
    assert report.ok and not report.stopped
    assert len(completed) == 2
