"""Batched spanning-tree sampling: grow B trees per kernel invocation.

The paper's key performance observation (§3.3) is that cycle processing
is embarrassingly parallel *across trees* — Alg. 2 samples 1000
independent BFS trees.  In pure NumPy the analog of launching one GPU
grid per tree is stacking B trees into ``(B, n)`` arrays and advancing
all of their frontiers inside the same vectorized operations, so the
per-level interpreter overhead is paid once per *batch* instead of once
per tree.

:func:`sample_bfs_batch` is bit-identical, tree index by tree index, to
:meth:`repro.trees.sampler.TreeSampler.tree` with the same seed: tree
``i`` draws from the ``i``-th spawned child stream, its root draw and
per-level tie-break draws happen in exactly the sequential order, and
the batched frontier keeps each tree's offers in the sequential
frontier order.  The equivalence is what lets every non-swap campaign
(:func:`repro.cloud.cloud.balanced_states`) stack its trees here in
any chunks and get the same cloud attribute for attribute.

The BFS also writes each tree's sign-to-root (the switching that
balances it; Zaslavsky, arXiv 1701.07963) as it discovers each vertex,
and finds a level's offers from the undiscovered side when those own
fewer half-edges than the frontier (direction-optimizing BFS).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.errors import DisconnectedGraphError, EngineError
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.trees.tree import SpanningTree
from repro.util.arrays import csr_positions

__all__ = ["TreeBatch", "sample_bfs_batch", "spawn_batch"]

#: Half-edge offers one expansion pass may hold.  A level can offer
#: every half-edge of every tree in the pass, and the offer arrays are
#: the sampler's peak memory, so wider batches run in passes of
#: ``_OFFER_BUDGET // 2m`` trees (at least one).
_OFFER_BUDGET = 1 << 17


@dataclass(frozen=True)
class TreeBatch:
    """B rooted spanning trees of one graph in stacked arrays.

    Row ``b`` of every array describes one spanning tree exactly as the
    corresponding fields of :class:`~repro.trees.tree.SpanningTree`
    would: ``parent[b, v]`` is the BFS parent of ``v`` (−1 at the
    root), ``parent_edge[b, v]`` the undirected edge id to that parent,
    ``level_of[b, v]`` the BFS depth, and ``sign_to_root[b, v]`` the
    ±1 product of the input edge signs on the tree path from the root
    (:func:`~repro.core.cycles_vectorized.sign_to_root`).
    """

    roots: np.ndarray        # (B,) root vertex per tree
    parent: np.ndarray       # (B, n)
    parent_edge: np.ndarray  # (B, n)
    level_of: np.ndarray     # (B, n)
    sign_to_root: np.ndarray  # (B, n) int8

    @property
    def num_trees(self) -> int:
        return len(self.roots)

    @property
    def num_vertices(self) -> int:
        return self.parent.shape[1]

    @property
    def num_levels(self) -> int:
        """Deepest level across the batch, plus one."""
        return int(self.level_of.max()) + 1 if self.level_of.size else 0

    def to_tree(self, graph: SignedGraph, b: int) -> SpanningTree:
        """Materialize tree *b* as a validated :class:`SpanningTree`."""
        return SpanningTree.from_parents(
            graph, int(self.roots[b]), self.parent[b], self.parent_edge[b]
        )

    @classmethod
    def from_trees(
        cls, graph: SignedGraph, trees: Sequence[SpanningTree]
    ) -> "TreeBatch":
        """Stack individually sampled trees of *graph* (the non-BFS
        fallback), with each tree's sign-to-root."""
        from repro.core.cycles_vectorized import sign_to_root

        if not trees:
            raise EngineError("cannot build an empty TreeBatch")
        return cls(
            roots=np.asarray([t.root for t in trees], dtype=np.int64),
            parent=np.stack([t.parent for t in trees]),
            parent_edge=np.stack([t.parent_edge for t in trees]),
            level_of=np.stack([t.level_of for t in trees]),
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

    Tree-by-tree the output is bit-identical to
    ``bfs_tree(graph, root=root, seed=spawn(seed, i))`` — same root
    draws, same parent tie-breaks — because every tree keeps its own
    child RNG stream and its offers stay in the sequential frontier
    order inside the stacked arrays; its ``sign_to_root`` row is
    :func:`~repro.core.cycles_vectorized.sign_to_root` of that tree.
    """
    rngs = spawn_batch(seed, indices)
    if not rngs:
        raise EngineError("need at least one tree index")
    # Trees are independent: sampling them a few at a time gives the
    # same stack with a cache-sized offer scratch.  Every pass reads a
    # prefix of one flattened CSR, built once for the widest pass.
    two_m = len(graph.adj_vertex)
    width = min(len(rngs), max(1, _OFFER_BUDGET // max(two_m, 1)))
    csr = _flat_csr(graph, width)
    parts = [
        _bfs_pass(graph, csr, rngs[i : i + width], root, counters)
        for i in range(0, len(rngs), width)
    ]
    if len(parts) == 1:
        return parts[0]
    return TreeBatch(*(
        np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(TreeBatch)
    ))


def _flat_csr(graph: SignedGraph, width: int) -> tuple:
    """``(indptr, target, source, twin)`` of *width* stacked copies of
    *graph* over flat ids ``g = b * n + v``: copy b's half-edges sit at
    ``[b * 2m, (b + 1) * 2m)`` and name their ends by flat id, and the
    first k copies of each array are a prefix of it."""
    n, two_m = graph.num_vertices, len(graph.adj_vertex)
    source = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    if width == 1:
        return graph.indptr, graph.adj_vertex, source, graph.half_twin
    shift = np.arange(width, dtype=np.int64)[:, None]
    return (
        np.append(graph.indptr[:-1] + shift * two_m, width * two_m),
        (graph.adj_vertex + shift * n).ravel(),
        (source + shift * n).ravel(),
        (graph.half_twin + shift * two_m).ravel(),
    )


def _bfs_pass(
    graph: SignedGraph,
    csr: tuple,
    rngs: list,
    root: int | None,
    counters: Counters | None,
) -> TreeBatch:
    """One level-synchronous expansion of the trees drawn by *rngs*,
    on the first ``len(rngs)`` copies of the flat *csr*."""
    n = graph.num_vertices
    num_trees = len(rngs)
    size = num_trees * n
    two_m = len(graph.adj_vertex)
    indptr, adj, source, twin = csr
    adj, source = adj[: num_trees * two_m], source[: num_trees * two_m]
    offsets = np.arange(num_trees, dtype=np.int64) * n
    tree_bounds = np.arange(num_trees + 1, dtype=np.int64) * two_m

    if root is None:
        roots = np.asarray(
            [int(rng.integers(0, n)) for rng in rngs], dtype=np.int64
        )
    else:
        roots = np.full(num_trees, int(root), dtype=np.int64)

    # Each vertex's flat parent and parent edge (−1 at the roots).
    parent = np.full(size, -1, dtype=np.int64)
    parent_edge = np.full(size, -1, dtype=np.int64)
    level = np.full(size, -1, dtype=np.int64)
    sign_to_root = np.ones(size, dtype=np.int8)
    undiscovered = np.ones(size, dtype=bool)

    # The frontier stays sorted ascending, i.e. grouped by tree with
    # each tree's vertices in the same (ascending) order the sequential
    # BFS produces, so the gathered offer positions ascend too.
    frontier = offsets + roots
    undiscovered[frontier] = False
    level[frontier] = 0
    depth = 0
    left = size - num_trees  # undiscovered vertices

    # Winner-selection scratch, sized B·n but allocated once per pass —
    # no per-level (B, n) scratch is materialized.  A vertex is offered
    # at one level only, the one that discovers it, so its key slot
    # starts at +inf and is never reset; offer slots are written before
    # they are read.
    best_key = np.full(size, np.inf)
    best_offer = np.empty(size, dtype=np.int64)

    while len(frontier):
        depth += 1
        if left < len(frontier):
            # A frontier larger than the undiscovered vertices: its
            # offers are found from the other side.  A vertex
            # discovered before the previous level has no undiscovered
            # neighbour, so every discovered neighbour of an
            # undiscovered vertex is in the frontier, and the reverses
            # of those half-edges are exactly the frontier's fresh
            # offers, put in position order by one sort.
            back = csr_positions(indptr, np.flatnonzero(undiscovered))
            back = back[~undiscovered[adj[back]]]
            pos = np.sort(twin[back])
            g_target = adj[pos]
        else:
            pos = csr_positions(indptr, frontier)
            g_target = adj[pos]
            fresh = undiscovered[g_target].nonzero()[0]
            g_target = g_target[fresh]
            pos = pos[fresh]
        if len(g_target) == 0:
            break

        # Per-tree tie-break keys, drawn from each tree's own stream in
        # one call per (tree, level) — exactly the sequential draw.
        # Offers ascend by flat position, so tree b's are one slice.
        if num_trees == 1:
            keys = rngs[0].random(len(g_target))
        else:
            cuts = np.searchsorted(pos, tree_bounds).tolist()
            keys = np.empty(len(g_target), dtype=np.float64)
            for t, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if hi > lo:
                    keys[lo:hi] = rngs[t].random(hi - lo)

        # Uniform winner per (tree, target) without sorting the offers:
        # the minimum key per target, then a reversed scatter of the
        # minimum-key offers breaks ties toward the earliest offer —
        # the same winner the sequential lexsort picks.
        np.minimum.at(best_key, g_target, keys)
        cand = (keys == best_key[g_target]).nonzero()[0]
        rev = cand[::-1]
        best_offer[g_target[rev]] = rev
        win = cand[best_offer[g_target[cand]] == cand]

        # The new frontier, ascending (the sequential offer order of
        # the next level).  A dense level is read back with one scan of
        # ``level``; a sparse one sorts its winning targets, which are
        # distinct.  Only levels with more than size / 8 winners scan,
        # and the winners of all levels sum to at most size, so the
        # scans cost at most 8·B·n in total (deep sparse graphs never
        # pay O(n · depth)).
        if 8 * len(win) > size:
            level[g_target[win]] = depth
            new_g = np.flatnonzero(level == depth)
        else:
            new_g = np.sort(g_target[win])
            level[new_g] = depth
        # Each winner's parent and edge come off its winning half-edge
        # (copy b's half-edges start at b * 2m), and its sign-to-root
        # is its parent's (set a level ago) times the edge's sign.
        half = pos[best_offer[new_g]]
        src, edge = source[half], graph.adj_edge[half % two_m]
        parent[new_g], parent_edge[new_g] = src, edge
        sign_to_root[new_g] = sign_to_root[src] * graph.edge_sign[edge]
        undiscovered[new_g] = False
        frontier = new_g
        left -= len(new_g)
        if counters is not None:
            counters.parallel_region("batch.bfs_round", len(new_g))
            counters.parallel_region("parity.top_down", len(new_g))

    reached = n - undiscovered.reshape(num_trees, n).sum(axis=1)
    if np.any(reached != n):
        b = int(np.nonzero(reached != n)[0][0])
        raise DisconnectedGraphError(
            f"BFS from root {int(roots[b])} reached {int(reached[b])} of "
            f"{n} vertices; extract the largest connected component first"
        )

    # Parents back to per-tree ids; roots keep −1.
    parent = parent.reshape(num_trees, n) - offsets[:, None]
    parent[np.arange(num_trees), roots] = -1
    return TreeBatch(
        roots=roots,
        parent=parent,
        parent_edge=parent_edge.reshape(num_trees, n),
        level_of=level.reshape(num_trees, n),
        sign_to_root=sign_to_root.reshape(num_trees, n),
    )
