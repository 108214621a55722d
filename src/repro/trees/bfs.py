"""Randomized breadth-first-search spanning trees.

The paper samples BFS trees because they maximize the number of
minimal-length fundamental cycles (§2.2).  Randomness comes from two
sources, matching the "1000 BFS trees" methodology:

* the root is drawn uniformly (unless pinned), and
* when several frontier vertices could adopt the same undiscovered
  vertex, the winning parent is drawn uniformly among the offers.

The expansion is level-synchronous and fully vectorized — the same
structure as the parallel BFS in the paper's codes — so sampling stays
fast on multi-hundred-thousand-edge graphs in pure Python.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, as_generator
from repro.trees.tree import SpanningTree
from repro.util.arrays import gather_adjacency

__all__ = ["bfs_tree"]


def bfs_tree(
    graph: SignedGraph,
    root: int | None = None,
    seed: SeedLike = None,
) -> SpanningTree:
    """Sample a randomized BFS spanning tree of a connected graph.

    Raises :class:`DisconnectedGraphError` if some vertex is not
    reachable from the root.
    """
    n = graph.num_vertices
    rng = as_generator(seed)
    if root is None:
        root = int(rng.integers(0, n))

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    discovered = np.zeros(n, dtype=bool)
    discovered[root] = True
    # A vertex is offered at one level only, so its slots start unset.
    best_key, best_offer = np.full(n, np.inf), np.empty(n, dtype=np.int64)
    frontier = np.array([root], dtype=np.int64)
    reached = 1

    while len(frontier):
        half, sources = gather_adjacency(graph.indptr, frontier)
        if len(half) == 0:
            break
        targets = graph.adj_vertex[half]
        edges = graph.adj_edge[half]

        fresh = ~discovered[targets]
        targets, sources, edges = targets[fresh], sources[fresh], edges[fresh]
        if len(targets) == 0:
            break

        # Uniform random winner per target: the offer with the least
        # random key, ties to the earliest (what a stable sort of the
        # offers by (target, key) puts first), without the sort.
        keys = rng.random(len(targets))
        np.minimum.at(best_key, targets, keys)
        cand = np.flatnonzero(keys == best_key[targets])
        best_offer[targets[cand[::-1]]] = cand[::-1]

        new_v = np.unique(targets[cand])
        parent[new_v] = sources[best_offer[new_v]]
        parent_edge[new_v] = edges[best_offer[new_v]]
        discovered[new_v] = True
        reached += len(new_v)
        frontier = new_v

    if reached != n:
        raise DisconnectedGraphError(
            f"BFS from root {root} reached {reached} of {n} vertices; "
            "extract the largest connected component first"
        )
    return SpanningTree.from_parents(graph, root, parent, parent_edge)
