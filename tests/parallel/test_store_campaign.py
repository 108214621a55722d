"""Equivalence suite: campaigns over a packed mmap graph store must be
bit-identical to campaigns over the in-memory graph.

The store changes *where* worker processes get their graph (a shared
read-only mapping instead of a pickle), never *what* they compute — so
every execution path (sequential, plain pool, supervised pool with
injected crashes, checkpoint salvage + resume) is asserted
byte-for-byte against the in-memory baseline for both tree methods.
Also home to the worker-slot lifecycle unit tests: the fingerprint
check that keeps a rebuilt pool from silently serving a stale graph.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import sample_cloud
from repro.cloud.checkpoint import recover_cloud
from repro.errors import CheckpointError, EngineError
from repro.graph.store import GraphStore
from repro.parallel.pool import (
    _contiguous_blocks,
    _init_worker,
    _init_worker_store,
    _reset_worker_slot,
    _worker_graph,
    plan_blocks,
    sample_cloud_pool,
)
from repro.parallel.supervisor import RetryPolicy
from repro.util.faults import WorkerCrash

from tests.conftest import make_connected_signed

FAST = dict(backoff_base=0.0, jitter=0.0)

# The blocks a 12-state, 3-worker campaign runs; faults aim at MIDDLE.
FIRST, MIDDLE, LAST = _contiguous_blocks(12, 3)


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(18, 24, seed=3)


@pytest.fixture(scope="module")
def store(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "graph.rsgs"
    return GraphStore.pack(graph, path)


@pytest.fixture(scope="module")
def sequential(graph):
    return sample_cloud(graph, num_states=12, seed=7)


def assert_same_cloud(expected, got):
    # The accumulators are exact integers and contiguous blocks merge
    # in index order, so every attribute and the flip-count log match.
    np.testing.assert_array_equal(expected.status(), got.status())
    np.testing.assert_array_equal(expected.influence(), got.influence())
    np.testing.assert_array_equal(
        expected.edge_agreement(), got.edge_agreement()
    )
    assert got.num_states == expected.num_states
    np.testing.assert_array_equal(expected.flip_counts(), got.flip_counts())


class TestStoreEquivalence:
    @pytest.mark.parametrize("method", ["bfs", "swap"])
    def test_pool_matches_sequential(self, graph, store, method):
        seq = sample_cloud(graph, num_states=12, method=method, seed=7)
        mem = sample_cloud_pool(
            graph, 12, workers=3, method=method, seed=7
        )
        mapped = sample_cloud_pool(
            graph, 12, workers=3, method=method, seed=7, graph_store=store
        )
        assert_same_cloud(seq, mem)
        assert_same_cloud(seq, mapped)

    def test_sequential_off_the_mapping(self, store, sequential):
        """The sequential engine run directly over memmap arrays is
        bit-identical to the in-memory run."""
        got = sample_cloud(store.graph(), num_states=12, seed=7)
        assert_same_cloud(sequential, got)

    def test_batched_engine_off_the_mapping(self, store, sequential):
        """The tree-batched engine over read-only memmap arrays: any
        in-place write would raise, and the result is bit-identical to
        in-memory batch_size=1 (the batched contract)."""
        got = sample_cloud(store.graph(), num_states=12, seed=7,
                           batch_size=4)
        assert_same_cloud(sequential, got)

    def test_swap_engine_off_the_mapping(self, graph, store):
        seq = sample_cloud(graph, num_states=12, method="swap", seed=7)
        got = sample_cloud(store.graph(), num_states=12, method="swap",
                           seed=7)
        assert_same_cloud(seq, got)

    def test_store_accepts_path(self, graph, store, sequential):
        got = sample_cloud_pool(
            graph, 12, workers=2, seed=7, graph_store=str(store.path)
        )
        assert_same_cloud(sequential, got)

    def test_workers_one_store(self, graph, store, sequential):
        got = sample_cloud_pool(
            graph, 12, workers=1, seed=7, graph_store=store
        )
        assert_same_cloud(sequential, got)

    @pytest.mark.parametrize("steal_chunks", [1, 5, 12, 40])
    def test_steal_chunks_bit_identical(
        self, graph, store, sequential, steal_chunks
    ):
        """Work-stealing only re-chops the index space into finer
        contiguous blocks; the merged cloud must not change."""
        got = sample_cloud_pool(
            graph, 12, workers=3, seed=7,
            graph_store=store, steal_chunks=steal_chunks,
        )
        assert_same_cloud(sequential, got)

    def test_steal_without_store(self, graph, sequential):
        got = sample_cloud_pool(graph, 12, workers=3, seed=7, steal_chunks=6)
        assert_same_cloud(sequential, got)

    def test_steal_chunks_rejects_nonpositive(self, graph):
        with pytest.raises(EngineError, match="steal_chunks"):
            sample_cloud_pool(graph, 12, workers=2, seed=7, steal_chunks=0)

    def test_repacked_store_rejected(self, graph, tmp_path):
        """A store holding a different graph than the campaign's is a
        hard error, not a silent wrong answer."""
        other = make_connected_signed(18, 24, seed=4)
        path = tmp_path / "other.rsgs"
        GraphStore.pack(other, path)
        with pytest.raises(EngineError, match="fingerprint"):
            sample_cloud_pool(graph, 12, workers=2, seed=7, graph_store=path)


class _ExitOnce:
    """Picklable fault: hard-kill (``os._exit``) the worker on the
    first attempt at *block_start*, succeed afterwards.  Like
    :class:`WorkerCrash`'s flaky mode, the attempt count lives on disk
    so it survives the process boundary — but the death is a real
    process exit, so the executor reports ``BrokenProcessPool`` and
    the supervisor must rebuild the pool (re-running the store
    initializer in every fresh worker)."""

    def __init__(self, block_start, counter_dir):
        self.block_start = int(block_start)
        self.counter = str(
            Path(counter_dir) / f"exit-once-{self.block_start}"
        )

    def __call__(self, block):
        if int(block[0]) != self.block_start:
            return
        with open(self.counter, "ab") as fh:
            fh.write(b"x")
        if os.path.getsize(self.counter) <= 1:
            os._exit(1)


class TestCrashRebuild:
    """Satellite regression: kill a worker mid-campaign and prove the
    rebuilt pool re-maps the store and produces bit-identical blocks."""

    def test_rebuilt_pool_bit_identical(
        self, graph, store, sequential, tmp_path
    ):
        sup = sample_cloud_pool(
            graph, 12, workers=3, seed=7, graph_store=store,
            policy=RetryPolicy(max_retries=3, **FAST),
            fault=_ExitOnce(MIDDLE[0], tmp_path),
        )
        assert_same_cloud(sequential, sup)
        report = sup.run_report
        assert report.ok
        assert report.pool_rebuilds >= 1

    def test_flaky_store_campaign_heals(
        self, graph, store, sequential, tmp_path
    ):
        fault = WorkerCrash(
            MIDDLE[0], mode="flaky", fails=2, counter_dir=tmp_path
        )
        sup = sample_cloud_pool(
            graph, 12, workers=3, seed=7, graph_store=store,
            policy=RetryPolicy(max_retries=2, **FAST), fault=fault,
        )
        assert_same_cloud(sequential, sup)
        assert sup.run_report.ok
        assert sup.run_report.retries == 2


class TestStoreResume:
    def test_salvage_and_resume_with_store(
        self, graph, store, sequential, tmp_path
    ):
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                graph, 12, workers=3, seed=7, graph_store=store,
                checkpoint_path=ckpt, fault=WorkerCrash(MIDDLE[0]),
            )
        _cloud, meta, _src = recover_cloud(ckpt, graph)
        assert meta.graph_store == str(store.path)
        finished = sample_cloud_pool(
            graph, 12, workers=3, seed=7, graph_store=store,
            resume_from=ckpt,
        )
        assert_same_cloud(sequential, finished)

    def test_resume_without_store_still_works(
        self, graph, store, sequential, tmp_path
    ):
        """The recorded store path is advisory; the checkpoint
        fingerprint pins graph identity, so resuming in-memory from a
        store-backed salvage is fine."""
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                graph, 12, workers=3, seed=7, graph_store=store,
                checkpoint_path=ckpt, fault=WorkerCrash(MIDDLE[0]),
            )
        finished = sample_cloud_pool(
            graph, 12, workers=3, seed=7, resume_from=ckpt
        )
        assert_same_cloud(sequential, finished)

    def test_resume_rejects_repacked_store(self, graph, tmp_path):
        """If the store file recorded in the checkpoint was repacked
        with a different graph, resume must refuse up front."""
        spath = tmp_path / "graph.rsgs"
        GraphStore.pack(graph, spath)
        ckpt = tmp_path / "salvage.npz"
        with pytest.raises(EngineError, match="salvaged"):
            sample_cloud_pool(
                graph, 12, workers=3, seed=7, graph_store=spath,
                checkpoint_path=ckpt, fault=WorkerCrash(MIDDLE[0]),
            )
        other = make_connected_signed(18, 24, seed=4)
        GraphStore.pack(other, spath)
        with pytest.raises(CheckpointError, match="fingerprint|store"):
            sample_cloud_pool(
                graph, 12, workers=3, seed=7, resume_from=ckpt
            )


class TestWorkerSlot:
    """Unit tests for the per-process graph slot and its fingerprint
    check — the bugfix behind the rebuilt-pool regression test."""

    def teardown_method(self):
        _reset_worker_slot()

    def test_pickle_slot_round_trip(self, graph, store):
        _init_worker(graph)
        assert _worker_graph(store.fingerprint) is graph

    def test_no_initializer_raises(self):
        _reset_worker_slot()
        with pytest.raises(EngineError, match="no graph"):
            _worker_graph("deadbeef")

    def test_stale_pickle_slot_raises(self, graph):
        _init_worker(graph)
        with pytest.raises(EngineError, match="stale"):
            _worker_graph("0" * 64)

    def test_store_slot_serves_mapped_graph(self, store):
        _init_worker_store(str(store.path))
        got = _worker_graph(store.fingerprint)
        assert not got.indptr.flags.writeable

    def test_store_slot_self_heals_after_reset(self, store):
        """A store-backed worker whose slot was cleared (pool rebuild)
        reopens the mapping instead of failing the task."""
        _init_worker_store(str(store.path))
        first = _worker_graph(store.fingerprint)
        import repro.parallel.pool as pool_mod

        pool_mod._WORKER_GRAPH = None  # simulate a torn-down slot
        healed = _worker_graph(store.fingerprint)
        assert healed == first

    def test_store_initializer_rejects_mismatch(self, store):
        with pytest.raises(EngineError, match="repacked"):
            _init_worker_store(str(store.path), "f" * 64)

    def test_stale_store_slot_rejects_wrong_task(self, store):
        _init_worker_store(str(store.path))
        import repro.parallel.pool as pool_mod

        pool_mod._WORKER_GRAPH = None
        with pytest.raises(EngineError, match="expects"):
            _worker_graph("f" * 64)


def parent_contiguous_blocks(target, workers):
    """The contiguous split as the package cut it before the planner
    existed, kept as an oracle: the planner's no-done-blocks case must
    cut exactly these blocks."""
    workers = min(workers, target)
    blocks = []
    lo = 0
    for w in range(workers):
        hi = lo + (target - lo) // (workers - w)
        if hi > lo:
            blocks.append((lo, hi, 1))
        lo = hi
    return blocks


def assert_plan(done, target, pieces):
    """The planner's contract for one ``(done, target, pieces)``."""
    blocks = plan_blocks(done, target, pieces)
    covered = {i for b in done for i in range(*b)}
    assert all(step == 1 for _start, _stop, step in blocks)
    assert all(stop > start for start, stop, _step in blocks)
    assert all(
        not covered.intersection(range(*b)) for b in blocks
    ), "a block spans a covered index"
    got = [i for b in blocks for i in range(*b)]
    assert got == [i for i in range(target) if i not in covered]
    return blocks


class TestSplitBlocks:
    """:func:`plan_blocks` cutting a resume's missing indices into
    work-stealing pieces."""

    def test_splits_cover_exactly(self):
        blocks = assert_plan(((0, 30, 3),), 30, 12)
        assert len(blocks) == 12

    def test_no_empty_chunks(self):
        for num_chunks in (1, 2, 7, 50):
            assert_plan(((0, 3, 1),), 10, num_chunks)

    def test_single_chunk_identity(self):
        assert plan_blocks(((0, 2, 1),), 20, 1) == [(2, 20, 1)]

    def test_drops_empty_input_blocks(self):
        assert plan_blocks(((5, 5, 1), (0, 4, 1)), 8, 4) == [
            (4, 5, 1), (5, 6, 1), (6, 7, 1), (7, 8, 1)
        ]

    def test_blocks_have_step_one(self):
        # Older salvage checkpoints hold strided rows; the plan around
        # them is still step-1 blocks, split at every covered index.
        blocks = assert_plan(((1, 25, 3),), 25, 4)
        assert blocks[:3] == [(0, 1, 1), (2, 4, 1), (5, 6, 1)]


class TestBlockProperties:
    """No zero-length blocks, ever: the planner must not enqueue empty
    work items for the executor (or the journal) to count."""

    @given(
        target=st.integers(min_value=0, max_value=300),
        workers=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_contiguous_blocks_cover_without_empties(self, target, workers):
        blocks = _contiguous_blocks(target, workers)
        assert blocks == parent_contiguous_blocks(target, workers)
        assert blocks == plan_blocks((), target, workers)
        assert all(stop > start for start, stop, _step in blocks)
        assert len(blocks) <= workers
        got = sorted(i for b in blocks for i in range(*b))
        assert got == list(range(target))

    @given(
        target=st.integers(min_value=0, max_value=200),
        prefix=st.integers(min_value=0, max_value=200),
        chunks=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_blocks_cover_without_empties(
        self, target, prefix, chunks
    ):
        blocks = assert_plan(((0, min(prefix, target), 1),), target, chunks)
        assert len(blocks) <= chunks

    @given(
        starts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=0,
            max_size=6,
        ),
        target=st.integers(min_value=0, max_value=60),
        chunks=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_plan_covers_arbitrary_done_rows(self, starts, target, chunks):
        done = [(s, s + n * step, step) for s, n, step in starts]
        assert_plan(done, target, chunks)
