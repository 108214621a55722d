"""Connected-component labeling and largest-component extraction.

The paper processes only the largest connected component of each input
(Table 1 reports component sizes, not whole-input sizes).  The labeling
here is a vectorized frontier BFS over the CSR arrays — the same
level-synchronous pattern the parallel codes use — so it stays fast in
pure Python even for multi-million-edge graphs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.build import csr_from_undirected
from repro.graph.csr import SignedGraph
from repro.util.arrays import csr_positions

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
    label = np.full(n, -1, dtype=np.int64)
    comp = 0
    # Outer loop over seed vertices; inner loop is a vectorized
    # frontier expansion, so total cost is O(n + m) with tiny constants.
    for seed in range(n):
        if label[seed] != -1:
            continue
        label[seed] = comp
        frontier = np.array([seed], dtype=np.int64)
        while len(frontier):
            # Gather all neighbors of the frontier in one shot.
            offsets = csr_positions(graph.indptr, frontier)
            if len(offsets) == 0:
                break
            nbrs = graph.adj_vertex[offsets]
            fresh = nbrs[label[nbrs] == -1]
            if len(fresh) == 0:
                break
            fresh = np.unique(fresh)
            label[fresh] = comp
            frontier = fresh
        comp += 1
    return label


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
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    label = connected_components(graph)
    sizes = np.bincount(label)
    target = int(sizes.argmax())
    keep = np.nonzero(label == target)[0]
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))

    mask = (label[graph.edge_u] == target) & (label[graph.edge_v] == target)
    eu = remap[graph.edge_u[mask]]
    ev = remap[graph.edge_v[mask]]
    es = graph.edge_sign[mask]
    # Canonical orientation may flip after remapping.
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    sub = csr_from_undirected(len(keep), lo[order], hi[order], es[order])
    return sub, keep
