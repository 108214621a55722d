"""The background growth worker: determinism, shedding, degrade paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.checkpoint import recover_cloud
from repro.cloud.cloud import FrustrationCloud, sample_cloud
from repro.errors import ServeError
from repro.perf.registry import get_registry, reset_global_registry
from repro.serve.breaker import CircuitBreaker
from repro.serve.growth import GrowthWorker
from repro.serve.state import SnapshotStore

from tests.conftest import make_connected_signed


@pytest.fixture()
def graph():
    return make_connected_signed(18, 22, seed=4)


def _worker(graph, cloud=None, **kwargs):
    reset_global_registry()
    cloud = cloud if cloud is not None else FrustrationCloud(graph)
    store = SnapshotStore()
    defaults = dict(target_states=20, grow_step=6, seed=4)
    defaults.update(kwargs)
    return GrowthWorker(graph, cloud, store, "fp", **defaults), store


def test_grown_cloud_matches_sequential_campaign(graph):
    """Round-by-round supervised growth is bit-identical to one
    uninterrupted sequential campaign — the determinism the serve
    layer's byte-identical recovery contract stands on."""
    worker, store = _worker(graph)
    worker.start()
    assert worker.join(timeout=60)  # runs to target; no stop requested
    assert worker.cloud.num_states == 20
    expected = sample_cloud(graph, 20, seed=4)
    np.testing.assert_array_equal(worker.cloud.status(), expected.status())
    np.testing.assert_array_equal(
        worker.cloud.edge_agreement(), expected.edge_agreement()
    )
    snap = store.get()
    assert snap is not None and snap.num_states == 20


def test_checkpoints_every_round(graph, tmp_path):
    path = tmp_path / "ck.npz"
    worker, _ = _worker(graph, checkpoint_path=path, target_states=12,
                        grow_step=4)
    worker.start()
    assert worker.join(timeout=60)
    recovered, meta, _ = recover_cloud(path, graph)
    assert recovered.num_states == 12
    assert meta is not None and meta.seed == 4
    np.testing.assert_array_equal(
        recovered.status(), worker.cloud.status()
    )


def test_stop_interrupts_between_blocks(graph):
    worker, _ = _worker(graph, target_states=10_000, grow_step=2)
    worker.start()
    # Ask for a stop long before the campaign could finish.
    assert worker.stop(timeout=60)
    assert worker.cloud.num_states < 10_000


def test_final_checkpoint_waits_for_a_round_still_merging(graph):
    """A drain whose ``stop()`` times out mid-round must not checkpoint
    until the round (which holds the round lock) has finished."""
    import threading

    worker, _ = _worker(graph, target_states=10_000)
    entered, release = threading.Event(), threading.Event()
    order = []

    def blocking_round():
        entered.set()
        release.wait(30)
        order.append("round")
        return False

    worker._grow_round = blocking_round
    worker.checkpoint = lambda: order.append("checkpoint")
    worker.start()
    assert entered.wait(30)
    assert not worker.stop(timeout=0.1)  # the round is still running
    drain = threading.Thread(target=worker.final_checkpoint)
    drain.start()
    drain.join(0.2)
    assert drain.is_alive() and order == []
    release.set()
    drain.join(30)
    assert not drain.is_alive()
    assert order == ["round", "checkpoint"]
    assert worker.join(timeout=30)


def test_open_breaker_sheds_growth(graph):
    breaker = CircuitBreaker(p99_threshold=0.01, min_samples=1, cooldown=60)
    breaker.record(1.0)  # trip it
    assert breaker.is_open
    worker, store = _worker(graph, breaker=breaker)
    worker.start()
    import time

    time.sleep(0.3)
    assert worker.cloud.num_states == 0  # shed, not sampling
    assert store.get() is None
    assert get_registry().counter("serve.growth_shed_total") >= 1
    assert worker.stop(timeout=10)


def test_disk_full_checkpoint_degrades_but_growth_continues(graph, tmp_path):
    from repro.util.faults import disk_full_checkpoints

    worker, store = _worker(
        graph, checkpoint_path=tmp_path / "ck.npz", target_states=8,
        grow_step=4,
    )
    with disk_full_checkpoints():
        worker.start()
        assert worker.join(timeout=60)
    # The disk was "full" the whole time: no checkpoint, but the cloud
    # still grew and snapshots still published.
    assert worker.cloud.num_states == 8
    assert store.get() is not None
    assert get_registry().counter("serve.checkpoint_errors_total") >= 1
    assert not (tmp_path / "ck.npz").exists()


def test_resume_from_recovered_cloud_is_prefix_stable(graph, tmp_path):
    """Grow 8, 'crash', recover, grow to 20: identical to growing 20."""
    path = tmp_path / "ck.npz"
    first, _ = _worker(graph, checkpoint_path=path, target_states=8,
                       grow_step=4)
    first.start()
    assert first.join(timeout=60)
    recovered, meta, _ = recover_cloud(path, graph)
    second, _ = _worker(graph, cloud=recovered, checkpoint_path=path,
                        target_states=20, grow_step=6)
    second.start()
    assert second.join(timeout=60)
    expected = sample_cloud(graph, 20, seed=4)
    np.testing.assert_array_equal(second.cloud.status(), expected.status())


def test_bad_parameters(graph):
    with pytest.raises(ServeError):
        _worker(graph, grow_step=0)
    with pytest.raises(ServeError):
        _worker(graph, target_states=-1)


def test_pooled_rounds_reuse_one_pool(graph, tmp_path):
    """With two workers every round runs on one process pool, built
    once, and the grown checkpoint equals the one-worker daemon's,
    array for array."""
    from repro.perf.journal import journaling, read_journal

    grown = {}
    for workers in (1, 2):
        path = tmp_path / f"ck{workers}.npz"
        journal = tmp_path / f"j{workers}.jsonl"
        worker, _ = _worker(graph, checkpoint_path=path, target_states=20,
                            grow_step=6, workers=workers)
        with journaling(journal):
            worker.start()
            assert worker.join(timeout=60)
            assert worker.stop(timeout=10)
        assert worker._pool is None
        kinds = [e["kind"] for e in read_journal(journal)]
        assert kinds.count("pool_initialized") == (workers > 1)
        with np.load(path) as data:
            grown[workers] = {key: (data[key].dtype.str, data[key].shape,
                                    data[key].tobytes())
                              for key in data.files}
    assert grown[2] == grown[1]


def test_stop_shuts_the_rounds_pool_down(graph):
    worker, _ = _worker(graph, workers=2)
    assert worker.grow_once() and worker.grow_once()
    pool = worker._pool
    assert pool is not None
    assert worker.stop(timeout=10)
    assert worker._pool is None
    with pytest.raises(RuntimeError):
        pool.submit(int)
