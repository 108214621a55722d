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
from repro.util.arrays import concat_ranges

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
    parent = np.full(size, -1, dtype=np.int64)
    parent_edge = np.full(size, -1, dtype=np.int64)
    level = np.full(size, -1, dtype=np.int64)
    discovered = np.zeros(size, dtype=bool)

    # Flattened tree-vertex ids g = b * n + v.  The frontier stays
    # sorted ascending, i.e. grouped by tree with each tree's vertices
    # in the same (ascending) order the sequential BFS produces.
    offsets = np.arange(num_trees, dtype=np.int64) * n
    frontier = offsets + roots
    discovered[frontier] = True
    level[frontier] = 0
    reached = np.ones(num_trees, dtype=np.int64)
    depth = 0

    degs = graph.degrees
    # Winner-selection scratch, sized B·n but allocated once per call
    # and only ever written at offered slots before being read — no
    # per-level (B, n) scratch is materialized.
    best_key = np.empty(size, dtype=np.float64)
    best_offer = np.empty(size, dtype=np.int64)

    while len(frontier):
        depth += 1
        tree_of, verts = np.divmod(frontier, n)

        starts = graph.indptr[verts]
        counts = degs[verts]
        pos = np.repeat(starts, counts) + concat_ranges(counts)
        if len(pos) == 0:
            break
        src_tree = np.repeat(tree_of, counts)

        g_target = src_tree * n + graph.adj_vertex[pos]
        fresh = ~discovered[g_target]
        g_target = g_target[fresh]
        src_tree = src_tree[fresh]
        pos = pos[fresh]
        if len(g_target) == 0:
            break

        # Per-tree tie-break keys, drawn from each tree's own stream in
        # one call per (tree, level) — exactly the sequential draw.
        offers_per_tree = np.bincount(src_tree, minlength=num_trees)
        keys = np.empty(len(g_target), dtype=np.float64)
        cursor = 0
        for t in np.nonzero(offers_per_tree)[0]:
            k = int(offers_per_tree[t])
            keys[cursor : cursor + k] = rngs[t].random(k)
            cursor += k

        # Uniform winner per (tree, target) without sorting the offers:
        # repeated last-write-wins scatters converge on the minimum key
        # per target (each round keeps only the offers still strictly
        # below the stored champion, halving the field in expectation),
        # then a reversed scatter of the minimum-key offers breaks ties
        # toward the earliest offer — the same winner the sequential
        # lexsort picks.
        best_key[g_target] = keys
        alive = np.nonzero(keys < best_key[g_target])[0]
        while len(alive):
            best_key[g_target[alive]] = keys[alive]
            alive = alive[keys[alive] < best_key[g_target[alive]]]
        cand = np.nonzero(keys == best_key[g_target])[0]
        rev = cand[::-1]
        best_offer[g_target[rev]] = rev
        win = cand[best_offer[g_target[cand]] == cand]
        # Keep the new frontier ascending (the sequential offer order of
        # the next level); this sorts only the winners, far fewer than
        # the offers the old full argsort covered.
        win = win[np.argsort(g_target[win], kind="stable")]

        new_g = g_target[win]
        pos_w = pos[win]
        # Recover the winning offers' source vertices from their CSR
        # positions (cheap: only |new frontier| searchsorted lookups).
        parent[new_g] = np.searchsorted(graph.indptr, pos_w, side="right") - 1
        parent_edge[new_g] = graph.adj_edge[pos_w]
        discovered[new_g] = True
        level[new_g] = depth
        reached += np.bincount(src_tree[win], minlength=num_trees)
        frontier = new_g
        if counters is not None:
            counters.parallel_region("batch.bfs_round", len(new_g))

    if np.any(reached != n):
        b = int(np.nonzero(reached != n)[0][0])
        raise DisconnectedGraphError(
            f"BFS from root {int(roots[b])} reached {int(reached[b])} of "
            f"{n} vertices; extract the largest connected component first"
        )
    return TreeBatch(
        roots=roots,
        parent=parent.reshape(num_trees, n),
        parent_edge=parent_edge.reshape(num_trees, n),
        level_of=level.reshape(num_trees, n),
    )
