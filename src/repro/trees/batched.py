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
(:func:`repro.cloud.cloud.balanced_states`) stack its trees here at
any batch size and get the same cloud attribute for attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

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
_OFFER_BUDGET = 1 << 18


@dataclass(frozen=True)
class TreeBatch:
    """B rooted spanning trees of one graph in stacked arrays.

    Row ``b`` of every array describes one spanning tree exactly as the
    corresponding fields of :class:`~repro.trees.tree.SpanningTree`
    would: ``parent[b, v]`` is the BFS parent of ``v`` (−1 at the
    root), ``parent_edge[b, v]`` the undirected edge id to that parent,
    ``level_of[b, v]`` the BFS depth.
    """

    roots: np.ndarray        # (B,) root vertex per tree
    parent: np.ndarray       # (B, n)
    parent_edge: np.ndarray  # (B, n)
    level_of: np.ndarray     # (B, n)

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

    @cached_property
    def flat_levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, level_ptr)`` over *flattened* tree-vertex ids.

        ``order`` lists all ``B * n`` flattened ids (``b * n + v``)
        sorted by BFS level; ``level_ptr[l] : level_ptr[l + 1]`` slices
        the ids at level ``l`` across every tree in the batch — the
        iteration structure of the batched top-down parity pass.
        """
        flat = self.level_of.ravel()
        order = np.argsort(flat, kind="stable").astype(np.int64)
        counts = np.bincount(flat, minlength=self.num_levels)
        level_ptr = np.zeros(self.num_levels + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        return order, level_ptr

    @cached_property
    def flat_parent(self) -> np.ndarray:
        """Flattened parent pointers: ``b * n + parent[b, v]`` (−1 kept
        at the roots), indexable against any ``(B * n,)`` array."""
        offsets = np.arange(self.num_trees, dtype=np.int64)[:, None]
        flat = self.parent + offsets * self.num_vertices
        flat[self.parent < 0] = -1
        return flat.ravel()

    def to_tree(self, graph: SignedGraph, b: int) -> SpanningTree:
        """Materialize tree *b* as a validated :class:`SpanningTree`."""
        return SpanningTree.from_parents(
            graph, int(self.roots[b]), self.parent[b], self.parent_edge[b]
        )

    @classmethod
    def from_trees(cls, trees: Sequence[SpanningTree]) -> "TreeBatch":
        """Stack individually sampled trees (the non-BFS fallback)."""
        if not trees:
            raise EngineError("cannot build an empty TreeBatch")
        return cls(
            roots=np.asarray([t.root for t in trees], dtype=np.int64),
            parent=np.stack([t.parent for t in trees]),
            parent_edge=np.stack([t.parent_edge for t in trees]),
            level_of=np.stack([t.level_of for t in trees]),
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
    order inside the stacked arrays.
    """
    indices = list(indices)
    per_pass = max(1, _OFFER_BUDGET // max(len(graph.adj_vertex), 1))
    if len(indices) > per_pass:
        # Trees are independent: sampling them a few at a time gives
        # the same stack with a cache-sized offer scratch.
        parts = [
            sample_bfs_batch(graph, seed, indices[i : i + per_pass],
                             root=root, counters=counters)
            for i in range(0, len(indices), per_pass)
        ]
        return TreeBatch(
            roots=np.concatenate([p.roots for p in parts]),
            parent=np.vstack([p.parent for p in parts]),
            parent_edge=np.vstack([p.parent_edge for p in parts]),
            level_of=np.vstack([p.level_of for p in parts]),
        )

    n = graph.num_vertices
    rngs = spawn_batch(seed, indices)
    num_trees = len(rngs)
    if num_trees == 0:
        raise EngineError("need at least one tree index")

    if root is None:
        roots = np.asarray(
            [int(rng.integers(0, n)) for rng in rngs], dtype=np.int64
        )
    else:
        roots = np.full(num_trees, int(root), dtype=np.int64)

    size = num_trees * n
    two_m = len(graph.adj_vertex)
    # Flattened tree-vertex ids g = b * n + v over a flattened CSR:
    # tree b's copy of the adjacency sits at [b * 2m, (b + 1) * 2m) and
    # names its neighbours by flat id, so one gather turns an offer's
    # position into its flat target (B·2m entries, under the offer
    # budget's 2 MB).  A single tree indexes the graph's own arrays.
    offsets = np.arange(num_trees, dtype=np.int64) * n
    half_base = np.arange(num_trees, dtype=np.int64) * two_m
    if num_trees == 1:
        flat_indptr, flat_adj = graph.indptr, graph.adj_vertex
    else:
        flat_indptr = np.empty(size + 1, dtype=np.int64)
        flat_indptr[:-1] = (graph.indptr[:-1] + half_base[:, None]).ravel()
        flat_indptr[-1] = num_trees * two_m
        flat_adj = (graph.adj_vertex + offsets[:, None]).ravel()
        tree_bounds = np.append(half_base, num_trees * two_m)

    # The flat half-edge position of each vertex's winning offer (−1
    # at the roots); edge ids and parents are read off it once, after
    # the loop.
    parent_half = np.full(size, -1, dtype=np.int64)
    level = np.full(size, -1, dtype=np.int64)
    undiscovered = np.ones(size, dtype=bool)

    # The frontier stays sorted ascending, i.e. grouped by tree with
    # each tree's vertices in the same (ascending) order the sequential
    # BFS produces, so the gathered offer positions ascend too.
    frontier = offsets + roots
    undiscovered[frontier] = False
    level[frontier] = 0
    depth = 0

    # Winner-selection scratch, sized B·n but allocated once per call
    # and only ever written at offered slots before being read — no
    # per-level (B, n) scratch is materialized.
    best_key = np.empty(size, dtype=np.float64)
    best_offer = np.empty(size, dtype=np.int64)

    while len(frontier):
        depth += 1
        pos = csr_positions(flat_indptr, frontier)
        g_target = flat_adj[pos]
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
            cuts = np.searchsorted(pos, tree_bounds)
            keys = np.empty(len(g_target), dtype=np.float64)
            for t in np.flatnonzero(cuts[1:] > cuts[:-1]):
                lo, hi = int(cuts[t]), int(cuts[t + 1])
                keys[lo:hi] = rngs[t].random(hi - lo)

        # Uniform winner per (tree, target) without sorting the offers:
        # repeated last-write-wins scatters converge on the minimum key
        # per target (each round keeps only the offers still strictly
        # below the stored champion, halving the field in expectation),
        # then a reversed scatter of the minimum-key offers breaks ties
        # toward the earliest offer — the same winner the sequential
        # lexsort picks.
        best_key[g_target] = keys
        alive = (keys < best_key[g_target]).nonzero()[0]
        while len(alive):
            best_key[g_target[alive]] = keys[alive]
            alive = alive[keys[alive] < best_key[g_target[alive]]]
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
            win = best_offer[new_g]
        else:
            new_g = np.sort(g_target[win])
            win = best_offer[new_g]
            level[new_g] = depth
        parent_half[new_g] = pos[win]
        undiscovered[new_g] = False
        frontier = new_g
        if counters is not None:
            counters.parallel_region("batch.bfs_round", len(new_g))

    reached = n - undiscovered.reshape(num_trees, n).sum(axis=1)
    if np.any(reached != n):
        b = int(np.nonzero(reached != n)[0][0])
        raise DisconnectedGraphError(
            f"BFS from root {int(roots[b])} reached {int(reached[b])} of "
            f"{n} vertices; extract the largest connected component first"
        )

    # Edge ids from the winning half-edges, then each parent as the
    # edge's other endpoint: u + v − child.  Roots keep −1.
    if n == 1:
        parent = np.full((num_trees, 1), -1, dtype=np.int64)
        parent_edge = parent.copy()
    else:
        rows = np.arange(num_trees)
        half = parent_half.reshape(num_trees, n) - half_base[:, None]
        half[rows, roots] = 0
        parent_edge = graph.adj_edge[half]
        parent = (graph.edge_u[parent_edge] + graph.edge_v[parent_edge]
                  - np.arange(n, dtype=np.int64))
        parent_edge[rows, roots] = -1
        parent[rows, roots] = -1
    return TreeBatch(
        roots=roots,
        parent=parent,
        parent_edge=parent_edge,
        level_of=level.reshape(num_trees, n),
    )
