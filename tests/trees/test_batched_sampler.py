"""Batched tree sampling: each row is the sequential tree's root and
sign-to-root, bit for bit."""

import numpy as np
import pytest

from repro.core.cycles_vectorized import sign_to_root
from repro.errors import DisconnectedGraphError, EngineError
from repro.graph.build import from_edges
from repro.graph.generators import (
    chung_lu_signed,
    complete_signed,
    cycle_graph,
    ensure_connected,
    grid_graph,
)
from repro.perf.compat import Counters
from repro.rng import spawn
from repro.trees.batched import TreeBatch, sample_bfs_batch, spawn_batch
from repro.trees.bfs import bfs_tree
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed


def assert_rows_are_bfs_trees(g, batch, seed, indices, root=None):
    """Row b of *batch* holds the root and the sign-to-root row of
    ``bfs_tree(g, root, spawn(seed, indices[b]))``, for every row."""
    indices = list(indices)
    assert batch.num_trees == len(indices)
    assert batch.num_vertices == g.num_vertices
    assert batch.sign_to_root.dtype == np.int8
    for b, i in enumerate(indices):
        tree = bfs_tree(g, root=root, seed=spawn(seed, i))
        assert int(batch.roots[b]) == tree.root, (b, i)
        assert np.array_equal(
            batch.sign_to_root[b], sign_to_root(g, tree)
        ), (b, i)


class TestSpawnBatch:
    def test_matches_individual_spawn(self):
        from repro.rng import spawn

        rngs = spawn_batch(123, [0, 3, 7])
        for rng, i in zip(rngs, [0, 3, 7]):
            assert rng.integers(0, 1 << 30) == spawn(123, i).integers(0, 1 << 30)

    def test_rejects_negative_indices(self):
        with pytest.raises(EngineError):
            spawn_batch(0, [-1])

    def test_spawns_only_requested_children(self, monkeypatch):
        """A high-index batch must not spawn every predecessor stream:
        the children are built directly from their spawn keys, so
        ``SeedSequence.spawn`` is never called and only ``len(indices)``
        sequences are constructed."""
        indices = [9000, 9007, 9031]
        expected = [
            rng.integers(0, 1 << 30) for rng in spawn_batch(321, indices)
        ]

        constructed = []

        class Recorder(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

            def spawn(self, n):  # pragma: no cover - would fail the test
                raise AssertionError(
                    f"spawn_batch called SeedSequence.spawn({n})"
                )

        monkeypatch.setattr(np.random, "SeedSequence", Recorder)
        rngs = spawn_batch(321, indices)
        assert [rng.integers(0, 1 << 30) for rng in rngs] == expected
        assert constructed == [(9000,), (9007,), (9031,)]


class TestBatchedBfs:
    @pytest.mark.parametrize("seed", [0, 17, 99, 5, 123])
    def test_bit_identical_to_sequential(self, seed):
        g = make_connected_signed(60, 150, seed=seed)
        sampler = TreeSampler(g, seed=seed)
        batch = sampler.batch(12)
        assert_rows_are_bfs_trees(g, batch, seed, range(12))

    @pytest.mark.parametrize("budget", [1, 1000])
    def test_passes_stack_bit_identically(self, budget, monkeypatch):
        """A batch wider than the offer budget runs in passes of whole
        trees (one tree per pass at budget 1, two at 1000 here, so the
        last pass is short) and writes the same rows."""
        from repro.trees import batched

        monkeypatch.setattr(batched, "_OFFER_BUDGET", budget)
        g = make_connected_signed(60, 150, seed=4)
        batch = TreeSampler(g, seed=4).batch(range(3, 8))
        assert_rows_are_bfs_trees(g, batch, 4, range(3, 8))

    @pytest.mark.parametrize(
        "n,m,batch", [(12, 18, 3), (60, 150, 8), (60, 150, 32), (150, 600, 16)]
    )
    def test_bit_identical_across_shapes(self, n, m, batch):
        """The buffer-reuse winner selection stays bit-identical across
        batch sizes and graph shapes (B above, at, and below n)."""
        g = make_connected_signed(n, m, seed=n + batch)
        trees = TreeSampler(g, seed=31).batch(batch)
        assert_rows_are_bfs_trees(g, trees, 31, range(batch))

    def test_offset_batch_matches_tail_indices(self):
        g = make_connected_signed(40, 90, seed=2)
        batch = TreeSampler(g, seed=5).batch(4, start=10)
        assert_rows_are_bfs_trees(g, batch, 5, range(10, 14))

    def test_explicit_strided_indices(self):
        g = make_connected_signed(40, 90, seed=4)
        indices = [1, 4, 7, 12]
        batch = TreeSampler(g, seed=9).batch(indices)
        assert_rows_are_bfs_trees(g, batch, 9, indices)

    def test_pinned_root(self):
        g = make_connected_signed(30, 60, seed=1)
        batch = TreeSampler(g, seed=3, root=5).batch(6)
        assert np.all(batch.roots == 5)
        assert_rows_are_bfs_trees(g, batch, 3, range(6), root=5)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    @pytest.mark.parametrize("kind", ["cycle", "grid"])
    def test_deep_graphs_in_a_call_of_uneven_passes(
        self, kind, seed, monkeypatch
    ):
        """On the 60-level cycle and the 12 × 12 grid, a call of 7
        trees in passes of 3 (so the last pass holds one) writes every
        tree's row."""
        from repro.trees import batched

        g = _frontier_graph(kind)
        monkeypatch.setattr(batched, "_OFFER_BUDGET", 3 * len(g.adj_vertex))
        indices = range(seed, seed + 7)
        batch = sample_bfs_batch(g, seed, indices)
        assert_rows_are_bfs_trees(g, batch, seed, indices)

    def test_flat_csr_is_built_once_per_graph(self):
        """Calls on one graph share one flat CSR and one workspace;
        another graph replaces them, and they leave with their graph."""
        import gc
        import weakref

        from repro.trees import batched

        g = make_connected_signed(40, 90, seed=3)
        sample_bfs_batch(g, 1, range(5))
        (first,) = batched._FLAT_CACHE.values()
        workspace = first[2].workspace
        sample_bfs_batch(g, 2, range(9))
        assert batched._FLAT_CACHE == {id(g): first}
        assert first[2].workspace is workspace
        other = make_connected_signed(40, 90, seed=3)
        sample_bfs_batch(other, 2, [0])
        assert list(batched._FLAT_CACHE) == [id(other)]
        gone = weakref.ref(batched._FLAT_CACHE[id(other)][2].workspace)
        del workspace, first
        del other
        gc.collect()
        assert not batched._FLAT_CACHE
        assert gone() is None

    def test_positions_match_csr_positions(self):
        """The in-place position build equals ``csr_positions`` (rows in
        any order, repeats, zero-degree rows), growing the offer buffers
        only when a level needs more than they hold."""
        from repro.trees import batched
        from repro.util.arrays import csr_positions

        indptr = np.array([0, 3, 3, 5, 9, 9, 10], dtype=np.int64)
        ws = batched._Workspace(6)
        for vertices in ([5, 0, 1, 3, 3, 2], [1, 4], [3], [0, 2, 4, 5]):
            vertices = np.array(vertices, dtype=np.int64)
            expect = csr_positions(indptr, vertices)
            before = ws.offers
            got = batched._positions(indptr, vertices, ws)
            assert got.base is ws.one
            np.testing.assert_array_equal(got, expect)
            assert ws.offers == max(before, len(expect))

    def test_warm_call_allocates_no_offer_scratch(self):
        """A call on a graph sampled before works in the cached
        workspace: at cloud_pertree's scale it peaks below one offer
        array of a full pass (8 · width · 2m bytes) plus its (B, n)
        output rows, where a level that allocates its own offer arrays
        holds several at once."""
        import tracemalloc

        from repro.graph.generators import erdos_renyi_signed
        from repro.trees import batched

        g = ensure_connected(
            erdos_renyi_signed(4000, 20000, negative_fraction=0.3, seed=1),
            seed=1,
        )
        two_m = len(g.adj_vertex)
        width = batched._OFFER_BUDGET // two_m
        assert width > 1  # passes of several trees: the flat CSR is used
        sample_bfs_batch(g, 1, range(32))
        tracemalloc.start()
        try:
            batch = sample_bfs_batch(g, 1, range(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * width * two_m + batch.sign_to_root.nbytes, peak

    def test_threads_sample_one_graph_at_once(self):
        """Three threads (more than the cores CI runs on) sampling one
        graph at the same time, with different seeds and index ranges,
        each get the rows of a sequential run: no thread works in
        another's workspace."""
        import sys
        import threading

        g = make_connected_signed(600, 3000, seed=12)
        jobs = [(3, range(0, 24)), (8, range(40, 57)), (5, range(7, 9))]
        expected = [sample_bfs_batch(g, seed, indices)
                    for seed, indices in jobs]
        rounds = 8
        got: list[list] = [[] for _ in jobs]
        start = threading.Barrier(len(jobs), timeout=60)

        def run(j):
            seed, indices = jobs[j]
            start.wait()
            for _ in range(rounds):
                got[j].append(sample_bfs_batch(g, seed, indices))

        # Switch threads often, so the passes interleave level by level.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(j,))
                       for j in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, batches in zip(expected, got):
            assert len(batches) == rounds
            for batch in batches:
                np.testing.assert_array_equal(batch.roots, want.roots)
                np.testing.assert_array_equal(
                    batch.sign_to_root, want.sign_to_root
                )

    def test_disconnected_raises(self):
        g = from_edges([(0, 1, 1), (2, 3, -1)])
        with pytest.raises(DisconnectedGraphError):
            sample_bfs_batch(g, 0, [0, 1])

    def test_empty_batch_raises(self):
        g = make_connected_signed(10, 10, seed=0)
        with pytest.raises(EngineError):
            sample_bfs_batch(g, 0, [])

    def test_single_vertex_graph(self):
        g = from_edges([], num_vertices=1)
        batch = sample_bfs_batch(g, 0, [0, 1, 2])
        assert np.all(batch.roots == 0)
        assert np.all(batch.sign_to_root == 1)


def _frontier_graph(kind):
    if kind == "cycle":
        return cycle_graph([1, -1] * 60)
    if kind == "grid":
        return grid_graph(12, 12, seed=3)
    return ensure_connected(chung_lu_signed(300, 900, seed=5), seed=5)


class TestFrontierBranches:
    """The new frontier is read back two ways: a scan of the level
    array when a level's winners exceed size / 8, a sort of the winners
    otherwise.  Both must give the sequential frontier order."""

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("kind", ["cycle", "grid", "hubs"])
    def test_bit_identical_on_both_branches(self, kind, batch, pinned):
        g = _frontier_graph(kind)
        n = g.num_vertices
        root = int(np.argmax(g.degrees)) if pinned else None
        counters = Counters()
        trees = sample_bfs_batch(g, 11, range(batch), root=root,
                                 counters=counters)
        assert_rows_are_bfs_trees(g, trees, 11, range(batch), root=root)

        # One pass holds the whole batch here, so each round's winners
        # are compared with the pass size the kernel compares them with.
        rounds = [k for name, k in counters.regions
                  if name == "batch.bfs_round"]
        sampler = TreeSampler(g, seed=11, root=root)
        depth = max(sampler.tree(i).depth for i in range(batch))
        assert len(rounds) == depth
        scanned = [8 * k > batch * n for k in rounds]
        if kind == "hubs":
            # Hub levels scan; the thin first and last levels sort.
            assert any(scanned) and not all(scanned)
        else:
            # Deep, thin levels never pay a scan of the B·n level array.
            assert not any(scanned)

    def test_isolated_root_raises_naming_first_short_tree(self):
        """Every tree of a graph with an isolated vertex falls short;
        the error names the batch's first tree, as ``bfs_tree`` would,
        whether that tree is rooted at the isolated vertex or not."""
        edges = [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 0, 1)]
        g = from_edges(edges, num_vertices=5)
        isolated = next(
            i for i in range(100) if int(spawn(3, i).integers(0, 5)) == 4
        )
        other = next(
            i for i in range(100) if int(spawn(3, i).integers(0, 5)) != 4
        )
        for indices, reached in (([isolated, other], 1),
                                 ([other, isolated, other + 1], 4)):
            with pytest.raises(DisconnectedGraphError) as batched:
                sample_bfs_batch(g, 3, indices)
            with pytest.raises(DisconnectedGraphError) as sequential:
                bfs_tree(g, seed=spawn(3, indices[0]))
            assert str(batched.value) == str(sequential.value)
            assert f"reached {reached} of 5 vertices" in str(batched.value)


class TestNonBfsFallback:
    @pytest.mark.parametrize("method", ["dfs", "wilson", "bfs-low-degree"])
    def test_stacked_fallback_matches_sequential(self, method):
        g = make_connected_signed(25, 60, seed=3)
        sampler = TreeSampler(g, method=method, seed=7)
        batch = sampler.batch(4)
        assert isinstance(batch, TreeBatch)
        for i in range(4):
            tree = sampler.tree(i)
            assert int(batch.roots[i]) == tree.root
            assert np.array_equal(
                batch.sign_to_root[i], sign_to_root(g, tree)
            )

    def test_from_trees_rejects_empty(self):
        with pytest.raises(EngineError):
            TreeBatch.from_trees(make_connected_signed(5, 6, seed=1), [])


def _star(leaves):
    return from_edges(
        [(0, v, 1 if v % 3 else -1) for v in range(1, leaves + 1)]
    )


def _path(n):
    return from_edges(
        [(v, v + 1, -1 if v % 4 == 1 else 1) for v in range(n - 1)]
    )


class TestSignToRoot:
    """The BFS writes each vertex's sign-to-root as it discovers it; every
    row must equal the level pass over the sequential ``bfs_tree``."""

    @staticmethod
    def assert_rows_match(g, seed, indices, root=None):
        batch = sample_bfs_batch(g, seed, indices, root=root)
        assert_rows_are_bfs_trees(g, batch, seed, indices, root=root)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kind", ["path", "star", "complete"])
    def test_matches_sequential_sign_to_root(self, kind, batch):
        g = {
            "path": lambda: _path(40),
            "star": lambda: _star(30),
            "complete": lambda: complete_signed(
                12, negative_fraction=0.4, seed=2
            ),
        }[kind]()
        self.assert_rows_match(g, 7, list(range(batch)))

    def test_er_late_levels_gather_from_the_undiscovered_side(self):
        """On an ER graph the late frontiers outnumber the undiscovered
        vertices, so their offers come from the undiscovered side; the
        thin early levels gather from the frontier."""
        g = make_connected_signed(600, 3000, seed=12)
        self.assert_rows_match(g, 3, [0, 1, 2])
        level = bfs_tree(g, seed=spawn(3, 0)).level_of
        bottom_up = [
            np.count_nonzero(level > depth) < np.count_nonzero(level == depth)
            for depth in range(int(level.max()))
        ]
        assert any(bottom_up) and not all(bottom_up)

    def test_batch_wider_than_one_pass(self, monkeypatch):
        from repro.trees import batched

        g = make_connected_signed(80, 240, seed=5)
        monkeypatch.setattr(batched, "_OFFER_BUDGET", 3 * len(g.adj_vertex))
        self.assert_rows_match(g, 9, list(range(4, 15)))

    def test_pinned_root_and_fallback_rows(self):
        g = make_connected_signed(50, 120, seed=6)
        self.assert_rows_match(g, 2, [0, 5], root=3)
        sampler = TreeSampler(g, method="wilson", seed=2)
        batch = sampler.batch(3)
        for b in range(3):
            assert np.array_equal(
                batch.sign_to_root[b], sign_to_root(g, sampler.tree(b))
            )
