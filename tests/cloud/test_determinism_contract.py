"""The determinism contract: a campaign is a function of (graph, seed,
config), byte for byte.

The cloud's accumulators are exact integer sums (the flip counts a
histogram), so however a campaign's index range is cut into blocks, in
whatever order and grouping the block clouds merge, at whatever engine
chunk and block boundary it resumes (from a sequential checkpoint or a
pool's salvage) and over however many workers it runs, the result is
one ``sample_cloud``: the same v4 checkpoint payload and the same serve
snapshot answers, byte for byte.  Holds for independent BFS trees and
for the swap chain alike.  The payload's size does not grow with the
number of states.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.checkpoint import load_checkpoint, resume_cloud, save_cloud
from repro.cloud import cloud as cloud_module
from repro.cloud.cloud import FrustrationCloud, ingest_states, sample_cloud
from repro.graph.store import graph_fingerprint
from repro.errors import EngineError
from repro.parallel.pool import (
    CampaignTask,
    _contiguous_blocks,
    sample_cloud_pool,
)
from repro.serve.state import QuerySnapshot, canonical_json
from repro.trees.sampler import TreeSampler
from repro.util.faults import WorkerCrash

from tests.conftest import make_connected_signed

GRAPH = make_connected_signed(36, 100, seed=21)
SEED = 13


def payload(cloud: FrustrationCloud, path) -> dict:
    """The v4 checkpoint arrays of *cloud*, minus the run's timings."""
    save_cloud(cloud, path)
    with np.load(path) as data:
        return {
            key: (data[key].dtype.str, data[key].shape, data[key].tobytes())
            for key in data.files
            if key != "metrics_json"
        }


@contextlib.contextmanager
def engine_chunks(chunk: int):
    """Campaigns in this block fold *chunk* states per engine chunk,
    whatever the method (pool workers fork under the patch)."""
    with mock.patch.object(cloud_module, "_chunk_size",
                           lambda method, graph: chunk):
        yield


def block_cloud(method: str, lo: int, hi: int, chunk: int):
    """One contiguous block's cloud, folded *chunk* states at a time."""
    cloud = FrustrationCloud(GRAPH)
    sampler = TreeSampler(GRAPH, method=method, seed=SEED)
    for _folded in ingest_states(cloud, sampler, range(lo, hi), _chunk=chunk):
        pass
    return cloud


def answers(cloud: FrustrationCloud) -> list[bytes]:
    """Every body the serve daemon would answer from *cloud*."""
    snap = QuerySnapshot(cloud, epoch=1, fingerprint=graph_fingerprint(GRAPH))
    bodies = [snap.info_payload(), snap.frustration_payload(),
              snap.bipartition_payload(include_members=True)]
    bodies += [snap.vertex_payload(v) for v in range(snap.num_vertices)]
    bodies += [snap.edge_payload(e) for e in range(snap.num_edges)]
    return [canonical_json(body) for body in bodies]


def merge_tree(clouds: list, data) -> FrustrationCloud:
    """Merge *clouds*, in their order, along a random binary tree."""
    if len(clouds) == 1:
        return clouds[0]
    split = data.draw(st.integers(1, len(clouds) - 1), label="split")
    left = merge_tree(clouds[:split], data)
    left.merge(merge_tree(clouds[split:], data))
    return left


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(["bfs", "swap"]),
    total=st.integers(2, 40),
    chunk=st.integers(1, 8),
    data=st.data(),
)
def test_partition_merge_and_resume_match_one_campaign(
    tmp_path_factory, method, total, chunk, data
):
    work = tmp_path_factory.mktemp("contract")
    reference = sample_cloud(GRAPH, total, method=method, seed=SEED)
    want_payload, want_answers = (payload(reference, work / "ref.npz"),
                                  answers(reference))

    # A random contiguous block partition, each block the pool's own
    # task, merged in a random order along a random tree.
    cuts = data.draw(
        st.lists(st.integers(1, total - 1), unique=True, max_size=6),
        label="cuts",
    )
    bounds = [0, *sorted(cuts), total]
    blocks = [block_cloud(method, lo, hi, chunk)
              for lo, hi in zip(bounds, bounds[1:])]
    merged = merge_tree(data.draw(st.permutations(blocks), label="order"),
                        data)
    assert payload(merged, work / "merged.npz") == want_payload
    assert answers(merged) == want_answers

    # Stop at a random state, reload the checkpoint, and resume.
    stop = data.draw(st.integers(1, total), label="stop")
    path = work / "mid.npz"
    with engine_chunks(chunk):
        sample_cloud(GRAPH, stop, method=method, seed=SEED,
                     checkpoint_path=path)
    cloud, _meta = load_checkpoint(path, GRAPH)
    resumed = resume_cloud(cloud, total)
    assert payload(resumed, work / "resumed.npz") == want_payload
    assert answers(resumed) == want_answers


@settings(max_examples=16, deadline=None)
@given(
    method=st.sampled_from(["bfs", "swap"]),
    workers=st.sampled_from([1, 2]),
    steal_chunks=st.none() | st.integers(1, 6),
    chunk=st.integers(1, 8),
)
def test_pool_matches_one_campaign(tmp_path_factory, method, workers,
                                   steal_chunks, chunk):
    work = tmp_path_factory.mktemp("pool")
    total = 30
    reference = sample_cloud(GRAPH, total, method=method, seed=SEED)
    with engine_chunks(chunk):
        pooled = sample_cloud_pool(
            GRAPH, total, workers=workers, method=method, seed=SEED,
            steal_chunks=steal_chunks,
        )
    assert (payload(pooled, work / "pool.npz")
            == payload(reference, work / "ref.npz"))
    assert answers(pooled) == answers(reference)


@settings(max_examples=12, deadline=None)
@given(
    method=st.sampled_from(["bfs", "swap"]),
    stop=st.integers(1, 29),
    chunk=st.integers(1, 8),
)
def test_pool_resume_of_a_sequential_checkpoint_matches_one_campaign(
    tmp_path_factory, method, stop, chunk
):
    work = tmp_path_factory.mktemp("pool-resume")
    total = 30
    reference = sample_cloud(GRAPH, total, method=method, seed=SEED)
    path = work / "mid.npz"
    with engine_chunks(chunk):
        sample_cloud(GRAPH, stop, method=method, seed=SEED,
                     checkpoint_path=path)
        resumed = sample_cloud_pool(
            GRAPH, total, workers=2, method=method, seed=SEED,
            resume_from=path,
        )
    assert (payload(resumed, work / "resumed.npz")
            == payload(reference, work / "ref.npz"))
    assert answers(resumed) == answers(reference)


@pytest.mark.parametrize("method", ["bfs", "wilson", "swap"])
@pytest.mark.parametrize("total", [2, 11, 30])
@pytest.mark.parametrize("order", ["even-odd", "odd-even"])
def test_strided_halves_match_one_campaign(tmp_path, method, total, order):
    """§3.3's MPI pattern: two ranks take the even and the odd tree
    indices, and one reduce of their counters, in either order, is the
    serial campaign."""
    reference = sample_cloud(GRAPH, total, method=method, seed=SEED)
    task = CampaignTask(method=method, seed=SEED, store_states=False)
    halves = [task(GRAPH, (start, total, 2)) for start in (0, 1)]
    first, second = halves if order == "even-odd" else halves[::-1]
    first.merge(second)
    assert (payload(first, tmp_path / "halves.npz")
            == payload(reference, tmp_path / "ref.npz"))
    assert answers(first) == answers(reference)


@pytest.mark.parametrize("method, store_states", [
    pytest.param("bfs", False, id="bfs"),
    pytest.param("swap", False, id="swap"),
    pytest.param("bfs", True, id="bfs-store_states"),
    pytest.param("swap", True, id="swap-store_states"),
])
def test_pool_salvage_resume_matches_one_campaign(tmp_path, method,
                                                  store_states):
    # The middle block crashes, so the salvage checkpoint has a hole
    # that the resume fills after the blocks on either side of it.
    total = 30
    reference = sample_cloud(GRAPH, total, method=method, seed=SEED,
                             store_states=store_states)
    path = tmp_path / "salvage.npz"
    with pytest.raises(EngineError, match="salvaged"):
        sample_cloud_pool(
            GRAPH, total, workers=3, method=method, seed=SEED,
            store_states=store_states, checkpoint_path=path,
            fault=WorkerCrash(_contiguous_blocks(total, 3)[1][0]),
        )
    resumed = sample_cloud_pool(
        GRAPH, total, workers=2, method=method, seed=SEED,
        store_states=store_states, resume_from=path,
    )
    assert (payload(resumed, tmp_path / "resumed.npz")
            == payload(reference, tmp_path / "ref.npz"))
    assert answers(resumed) == answers(reference)


def test_payload_size_does_not_grow_with_the_states(tmp_path):
    """A 64-state and a 2,048-state cloud of one graph write the same
    arrays, of the same shapes, apart from the flip histogram, which
    spans at most the m + 1 possible flip counts."""
    small, large = (
        payload(sample_cloud(GRAPH, states, seed=SEED),
                tmp_path / f"{states}.npz")
        for states in (64, 2048)
    )
    histogram = ("flip_offset", "flip_histogram")
    assert small.keys() == large.keys()
    for key in small:
        dtype, shape, _bytes = small[key]
        if key not in histogram:
            assert (dtype, shape) == large[key][:2], key
    for arrays in (small, large):
        assert arrays["flip_offset"][1] == (1,)
        (length,) = arrays["flip_histogram"][1]
        assert 1 <= length <= GRAPH.num_edges + 1
