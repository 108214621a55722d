"""Connected-component labeling and largest-component extraction.

The paper processes only the largest connected component of each input
(Table 1 reports component sizes, not whole-input sizes).  The labeling
hooks each tree of a forest under the smallest tree it shares an edge
with and then jumps pointers to the roots, a few whole-array rounds in
all, so no Python loop runs per vertex, per component or per BFS level.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.build import csr_from_undirected, pair_key
from repro.graph.csr import SignedGraph

__all__ = [
    "connected_components",
    "num_connected_components",
    "largest_connected_component",
    "component_sizes",
]


def connected_components(graph: SignedGraph) -> np.ndarray:
    """Label each vertex with its component id (0-based, dense).

    Component ids are assigned in order of the smallest vertex they
    contain, so the labeling is deterministic.
    """
    n = graph.num_vertices
    # root[x] <= x always, so each tree's root is its smallest vertex.
    root = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    u, v = graph.edge_u, graph.edge_v
    while len(u):
        # Every vertex points at its root here, and a root's tree only
        # grows, so the roots stand in for the edge's ends from now on;
        # an edge inside one tree stays inside and is dropped.
        u, v = root[u], root[v]
        cross = u != v
        u, v = u[cross], v[cross]
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def num_connected_components(graph: SignedGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    if graph.num_vertices == 0:
        return 0
    return int(connected_components(graph).max() + 1)


def component_sizes(graph: SignedGraph) -> np.ndarray:
    """Vertex count of each component, indexed by component id."""
    label = connected_components(graph)
    return np.bincount(label)


def largest_connected_component(
    graph: SignedGraph,
) -> Tuple[SignedGraph, np.ndarray]:
    """Extract the largest connected component as its own graph.

    Returns ``(subgraph, old_ids)`` where ``old_ids[i]`` is the original
    vertex id of the subgraph's vertex ``i``.  Ties between equally
    large components go to the one containing the smallest vertex id.
    A connected input comes back as itself, its arrays shared (read-only
    store arrays included).
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    label = connected_components(graph)
    kept = label == np.bincount(label).argmax()
    keep = np.flatnonzero(kept)
    remap = np.cumsum(kept) - 1
    eu, ev = graph.edge_u, graph.edge_v
    edge_kept = kept[eu]
    key = pair_key(eu, ev, n)
    if np.any(eu >= ev) or np.any(key[1:] <= key[:-1]):
        # Edges not in the builders' order: rebuild from sorted (lo, hi).
        lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
        e = np.flatnonzero(edge_kept)
        e = e[np.argsort(pair_key(lo[e], hi[e], n), kind="stable")]
        sub = csr_from_undirected(len(keep), remap[lo[e]], remap[hi[e]],
                                  graph.edge_sign[e])
        return sub, keep
    if len(keep) == n:
        return graph, keep
    # Kept rows hold only kept neighbours, and the remap is monotone, so
    # it keeps every row's order and the edges' (u, v) order: no sort.
    half_kept = edge_kept[graph.adj_edge]
    indptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(graph.degrees[keep], out=indptr[1:])
    sub = SignedGraph(
        indptr=indptr,
        adj_vertex=remap[graph.adj_vertex[half_kept]],
        adj_edge=(np.cumsum(edge_kept) - 1)[graph.adj_edge[half_kept]],
        edge_u=remap[eu[edge_kept]],
        edge_v=remap[ev[edge_kept]],
        edge_sign=graph.edge_sign[edge_kept],
    )
    return sub, keep
