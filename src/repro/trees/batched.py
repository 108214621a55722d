"""Batched spanning-tree sampling: grow B trees per kernel invocation.

The paper's key performance observation (§3.3) is that cycle processing
is embarrassingly parallel *across trees* — Alg. 2 samples 1000
independent BFS trees.  In pure NumPy the analog of launching one GPU
grid per tree is stacking B trees into ``(B, n)`` arrays and advancing
all of their frontiers inside the same vectorized operations, so the
per-level interpreter overhead is paid once per *batch* instead of once
per tree.

By the §3 parity argument a tree's nearest balanced state depends only
on its sign-to-root vector, the switching that balances it (Zaslavsky,
arXiv 1701.07963), so that is all :func:`sample_bfs_batch` returns: row
``i`` of its :class:`TreeBatch` is the root and the sign-to-root row of
``bfs_tree(graph, root, spawn(seed, indices[i]))``, bit for bit.  Tree
``i`` draws from the ``i``-th spawned child stream, its root draw and
per-level tie-break draws happen in exactly the sequential order, and
the batched frontier keeps each tree's offers in the sequential
frontier order.  The identity is what lets every non-swap campaign
(:func:`repro.cloud.cloud.balanced_states`) stack its trees here in
any chunks and get the same cloud attribute for attribute.

The BFS writes each vertex's sign-to-root as it discovers it, and
finds a level's offers from the undiscovered side when those own fewer
half-edges than the frontier (direction-optimizing BFS).

A tree needs O(n + m) scratch (§2), and Alg. 2 samples many trees of
one graph, so the scratch is allocated once: each thread keeps one
workspace per graph and pass width, next to the graph's cached flat
CSR, holding the B·n per-vertex arrays and one buffer per kind of
per-level offer array (positions, targets, keys, flags).  The offer
buffers grow to the largest level seen, not to every half-edge of a
pass.  A level writes its offers into prefixes of those buffers —
``np.take(..., out=, mode="clip")``, ``Generator.random(out=)``,
positions built by an in-place cumsum (:func:`_positions`) — and
allocates only its index lists and per-vertex arrays, so the memory
the rest of the process holds no longer costs each level a fresh round
of page faults.  The workspace leaves with its graph, and no two
threads share one.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DisconnectedGraphError, EngineError
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.trees.tree import SpanningTree

__all__ = ["TreeBatch", "sample_bfs_batch", "spawn_batch"]

#: Half-edge offers one expansion pass may hold.  A level can offer
#: every half-edge of every tree in the pass, and the offer arrays are
#: the sampler's peak memory, so wider batches run in passes of
#: ``_OFFER_BUDGET // 2m`` trees (at least one).
_OFFER_BUDGET = 1 << 17


@dataclass(frozen=True)
class TreeBatch:
    """B rooted spanning trees of one graph, as what a campaign reads of
    them: ``roots[b]`` is tree b's root and ``sign_to_root[b, v]`` the
    ±1 product of the input edge signs on its tree path from the root
    to ``v`` (:func:`~repro.core.cycles_vectorized.sign_to_root`)."""

    roots: np.ndarray         # (B,) root vertex per tree
    sign_to_root: np.ndarray  # (B, n) int8

    @property
    def num_trees(self) -> int:
        return len(self.roots)

    @property
    def num_vertices(self) -> int:
        return self.sign_to_root.shape[1]

    @classmethod
    def from_trees(
        cls, graph: SignedGraph, trees: Sequence[SpanningTree]
    ) -> "TreeBatch":
        """Stack individually sampled trees of *graph* (the non-BFS
        fallback)."""
        from repro.core.cycles_vectorized import sign_to_root

        if not trees:
            raise EngineError("cannot build an empty TreeBatch")
        return cls(
            roots=np.asarray([t.root for t in trees], dtype=np.int64),
            sign_to_root=np.stack([sign_to_root(graph, t) for t in trees]),
        )


def spawn_batch(seed: int, indices: Sequence[int]) -> list[np.random.Generator]:
    """Child generators for the given tree indices, identical to
    ``[repro.rng.spawn(seed, i) for i in indices]``.

    ``SeedSequence(seed).spawn(k)[i]`` is by construction
    ``SeedSequence(seed, spawn_key=(i,))``, so only the requested
    children are built — a resumed block ``[9000, 9032)`` costs 32
    SeedSequence constructions, not 9032 spawns.
    """
    indices = list(indices)
    if not indices:
        return []
    if min(indices) < 0:
        raise EngineError("tree indices must be non-negative")
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in indices
    ]


def sample_bfs_batch(
    graph: SignedGraph,
    seed: int,
    indices: Sequence[int],
    root: int | None = None,
    counters: Counters | None = None,
) -> TreeBatch:
    """Sample the randomized BFS trees for the given indices in
    batched level-synchronous expansions, ``_OFFER_BUDGET // 2m`` trees
    per pass.

    Row ``b`` holds the root and the sign-to-root row of
    ``bfs_tree(graph, root=root, seed=spawn(seed, indices[b]))`` — same
    root draw, same parent tie-breaks — because every tree keeps its own
    child RNG stream and its offers stay in the sequential frontier
    order inside the stacked arrays.
    """
    rngs = spawn_batch(seed, indices)
    if not rngs:
        raise EngineError("need at least one tree index")
    # Trees are independent: sampling them a few at a time gives the
    # same rows with a cache-sized offer scratch.  Every pass writes its
    # rows in place, reads a prefix of the graph's flat CSR and works in
    # a prefix of this thread's workspace.  An edgeless graph (one
    # vertex, or the BFS fails) needs no offers and no wide pass.
    two_m = len(graph.adj_vertex)
    width = max(1, _OFFER_BUDGET // two_m) if two_m else 1
    csr, workspace = _flat_csr(graph, width)
    n = graph.num_vertices
    if root is None:
        roots = np.asarray([rng.integers(0, n) for rng in rngs], np.int64)
    else:
        roots = np.full(len(rngs), int(root), dtype=np.int64)
    sign_to_root = np.ones((len(rngs), n), dtype=np.int8)
    for lo in range(0, len(rngs), width):
        hi = lo + width
        _bfs_pass(graph, csr, workspace, rngs[lo:hi], roots[lo:hi],
                  sign_to_root[lo:hi], counters)
    return TreeBatch(roots, sign_to_root)


#: ``id(graph) -> (width, csr, workspaces)`` for the last graph
#: flattened: a campaign samples one graph, so it flattens once.
#: ``workspaces`` is a :class:`threading.local` holding each thread's
#: :class:`_Workspace`, so threads sampling one graph at once never
#: share scratch.  The entry, and with it every thread's workspace,
#: leaves with its graph.
_FLAT_CACHE: dict = {}


class _Workspace:
    """One thread's scratch for the passes over one flat CSR: the
    ``width·n`` per-vertex arrays of a full pass, and one buffer per
    kind of per-level offer array, grown to the largest level seen.
    Levels, passes and calls write into the same memory, so a
    campaign's trees allocate no scratch of their own."""

    def __init__(self, size: int) -> None:
        self.undiscovered = np.empty(size, dtype=bool)
        self.mark = np.empty(size, dtype=bool)
        self.best_key = np.empty(size)
        self.best_offer = np.empty(size, dtype=np.int64)
        self.offers = -1  # no offer buffers yet
        self.reserve(0)

    def reserve(self, offers: int) -> None:
        """Make every offer buffer hold at least *offers* entries."""
        if offers <= self.offers:
            return
        self.offers = offers
        # Two int64 offer buffers: every gather reads one and writes
        # the other, so none writes over an array it reads.
        self.one = np.empty(offers, dtype=np.int64)
        self.two = np.empty(offers, dtype=np.int64)
        self.key = np.empty(offers)
        self.least = np.empty(offers)
        self.flag = np.empty(offers, dtype=bool)


def _flat_csr(graph: SignedGraph, width: int) -> tuple[tuple, _Workspace]:
    """``(indptr, target, twin, sign)`` of *width* stacked copies of
    *graph* over flat ids ``g = b * n + v``: copy b's half-edges sit at
    ``[b * 2m, (b + 1) * 2m)``, name their targets by flat id and their
    reverses by flat position, and carry their edge's sign; the first k
    copies of each array are a prefix of it.  Cached for the last graph
    flattened, and returned with the calling thread's workspace for
    passes over it."""
    cached = _FLAT_CACHE.get(id(graph))
    if cached is None or cached[0] != width:
        n, two_m = graph.num_vertices, len(graph.adj_vertex)
        sign = graph.edge_sign[graph.adj_edge]
        if width == 1:
            csr = graph.indptr, graph.adj_vertex, graph.half_twin, sign
        else:
            shift = np.arange(width, dtype=np.int64)[:, None]
            csr = (
                np.append(graph.indptr[:-1] + shift * two_m, width * two_m),
                (graph.adj_vertex + shift * n).ravel(),
                (graph.half_twin + shift * two_m).ravel(),
                np.tile(sign, width),
            )
        cached = width, csr, threading.local()
        _FLAT_CACHE.clear()
        _FLAT_CACHE[id(graph)] = cached
        weakref.finalize(graph, _FLAT_CACHE.pop, id(graph), None)
    _, csr, workspaces = cached
    if not hasattr(workspaces, "workspace"):
        workspaces.workspace = _Workspace(width * graph.num_vertices)
    return csr, workspaces.workspace


def _bfs_pass(
    graph: SignedGraph,
    csr: tuple,
    ws: _Workspace,
    rngs: list,
    roots: np.ndarray,
    rows: np.ndarray,
    counters: Counters | None,
) -> None:
    """One level-synchronous expansion from *roots* of the trees drawn
    by *rngs*, on the first ``len(rngs)`` copies of the flat *csr*:
    writes their sign-to-root into the all-ones *rows*.  Every array of
    a level's offers is a prefix of a buffer of *ws*, which the level's
    half-edge positions first grow to hold them all."""
    n = graph.num_vertices
    num_trees = len(rngs)
    size = num_trees * n
    indptr, adj, twin, half_sign = csr
    tree_bounds = np.arange(num_trees + 1) * len(graph.adj_vertex)
    sign_to_root = rows.reshape(size)  # a view: rows are contiguous
    undiscovered = ws.undiscovered[:size]
    undiscovered.fill(True)

    # The frontier stays sorted ascending, i.e. grouped by tree with
    # each tree's vertices in the same (ascending) order the sequential
    # BFS produces, so the gathered offer positions ascend too.
    frontier = np.arange(num_trees, dtype=np.int64) * n + roots
    undiscovered[frontier] = False
    left = size - num_trees  # undiscovered vertices

    # Winner-selection scratch, B·n but reset once per pass.  A vertex
    # is offered at one level only, the one that discovers it, so its
    # key slot starts at +inf and is not reset between levels; offer
    # slots are written before they are read, and marks are cleared as
    # they are read.
    best_key = ws.best_key[:size]
    best_key.fill(np.inf)
    best_offer = ws.best_offer[:size]
    mark = ws.mark[:size]
    mark.fill(False)

    while len(frontier):
        if left < len(frontier):
            # A frontier larger than the undiscovered vertices: its
            # offers are found from the other side.  A vertex
            # discovered before the previous level has no undiscovered
            # neighbour, so every discovered neighbour of an
            # undiscovered vertex is in the frontier, and the reverses
            # of those half-edges are exactly the frontier's fresh
            # offers, put in position order by one sort.
            back = _positions(indptr, np.flatnonzero(undiscovered), ws)
            open_end = _take(undiscovered, _take(adj, back, ws.two), ws.flag)
            to_frontier = np.logical_not(open_end, out=open_end).nonzero()[0]
            back = _take(back, to_frontier, ws.two)
            pos = _take(twin, back, ws.one)
            pos.sort()
            g_target = _take(adj, pos, ws.two)
        else:
            offers = _positions(indptr, frontier, ws)
            fresh = _take(undiscovered, _take(adj, offers, ws.two),
                          ws.flag).nonzero()[0]
            pos = _take(offers, fresh, ws.two)
            g_target = _take(adj, pos, ws.one)
        k = len(g_target)
        if k == 0:
            break

        # Per-tree tie-break keys, drawn from each tree's own stream in
        # one call per (tree, level) — exactly the sequential draw.
        # Offers ascend by flat position, so tree b's are one slice.
        keys = ws.key[:k]
        if num_trees == 1:
            rngs[0].random(out=keys)
        else:
            cuts = np.searchsorted(pos, tree_bounds).tolist()
            for t, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if hi > lo:
                    rngs[t].random(out=keys[lo:hi])

        # Uniform winner per (tree, target) without sorting the offers:
        # the minimum key per target, then a reversed scatter of the
        # minimum-key offers breaks ties toward the earliest offer —
        # the winner bfs_tree picks, first in a stable (target, key) sort.
        np.minimum.at(best_key, g_target, keys)
        least = _take(best_key, g_target, ws.least)
        cand = np.equal(keys, least, out=ws.flag[:k]).nonzero()[0]
        contested = g_target[cand]
        best_offer[contested[::-1]] = cand[::-1]
        won = contested[best_offer[contested] == cand]

        # The new frontier, ascending (the sequential offer order of
        # the next level).  A dense level is read back with one scan of
        # a bool mark; a sparse one sorts its winning targets, which
        # are distinct.  Only levels with more than size / 8 winners
        # scan, and the winners of all levels sum to at most size, so
        # the scans cost at most 8·B·n in total (deep sparse graphs
        # never pay O(n · depth)).
        if 8 * len(won) > size:
            mark[won] = True
            new_g = np.flatnonzero(mark)
            mark[new_g] = False
        else:
            new_g = np.sort(won)
        # Each winner's parent is the target of its winning half-edge's
        # twin, and its sign-to-root is its parent's (set a level ago)
        # times that half-edge's sign.
        half = pos[best_offer[new_g]]
        sign_to_root[new_g] = sign_to_root[adj[twin[half]]] * half_sign[half]
        undiscovered[new_g] = False
        frontier = new_g
        left -= len(new_g)
        if counters is not None:
            counters.parallel_region("batch.bfs_round", len(new_g))
            counters.parallel_region("parity.top_down", len(new_g))

    if left:
        reached = n - undiscovered.reshape(num_trees, n).sum(axis=1)
        b = int(np.nonzero(reached != n)[0][0])
        raise DisconnectedGraphError(
            f"BFS from root {int(roots[b])} reached {int(reached[b])} of "
            f"{n} vertices; extract the largest connected component first"
        )


def _take(source: np.ndarray, indices: np.ndarray, buffer: np.ndarray):
    """``source[indices]`` written into a prefix of *buffer*.  The
    indices are in range, so ``mode="clip"`` changes no value; it only
    keeps ``take`` from staging its output in a fresh copy, as it does
    under the default ``mode="raise"``."""
    return source.take(indices, out=buffer[: len(indices)], mode="clip")


def _positions(indptr: np.ndarray, vertices: np.ndarray, ws: _Workspace):
    """:func:`~repro.util.arrays.csr_positions` of *vertices* built in
    a prefix of ``ws.one``, after growing the offer buffers to hold
    them.  Consecutive slots of a row differ by one, and a row's first
    slot jumps from the previous row's last position to the row's
    start, so a fill, one scatter of the per-row jumps and one in-place
    cumsum build every row without a temporary of their size."""
    starts = indptr[vertices]
    ends = indptr[vertices + 1]
    counts = ends - starts
    bounds = counts.cumsum()
    total = int(bounds[-1]) if len(bounds) else 0
    ws.reserve(total)
    positions = ws.one[:total]
    if total:
        rows = counts > 0  # a zero-degree row owns no slot
        jumps = starts[rows]
        jumps[1:] -= ends[rows][:-1] - 1
        positions.fill(1)
        positions[(bounds - counts)[rows]] = jumps
        np.cumsum(positions, out=positions)
    return positions
