"""Subgraph extraction: induced subgraphs and k-cores.

The paper's three "core5" review inputs are the 5-cores of the Amazon
review graphs (every user and product has at least five reviews —
McAuley's standard dense cut).  :func:`k_core` implements the classic
peeling algorithm with vectorized rounds, so the dataset catalog can
build its core5 stand-ins the same way the originals were built.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import csr_from_undirected
from repro.graph.csr import SignedGraph

__all__ = ["induced_subgraph", "k_core"]


def induced_subgraph(
    graph: SignedGraph,
    vertices: np.ndarray,
    return_edge_ids: bool = False,
):
    """The subgraph induced by *vertices*.

    Returns ``(subgraph, old_ids)`` with ``old_ids[i]`` the original id
    of subgraph vertex ``i``.  Vertex order is preserved (sorted by
    original id); duplicate input ids are rejected.  With
    ``return_edge_ids=True`` the result is ``(subgraph, old_ids,
    edge_ids)`` where ``edge_ids[e]`` is the host edge id of subgraph
    edge ``e`` — the scatter map that lets callers push per-edge
    results (balanced signs, agreements) back to the host graph without
    per-edge lookups.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if len(vertices) and (
        vertices[0] < 0 or vertices[-1] >= graph.num_vertices
    ):
        raise GraphFormatError("vertex ids out of range")
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(len(vertices))

    keep = (remap[graph.edge_u] >= 0) & (remap[graph.edge_v] >= 0)
    eu = remap[graph.edge_u[keep]]
    ev = remap[graph.edge_v[keep]]
    es = graph.edge_sign[keep]
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    sub = csr_from_undirected(len(vertices), lo[order], hi[order], es[order])
    if return_edge_ids:
        return sub, vertices, np.nonzero(keep)[0][order]
    return sub, vertices


def k_core(graph: SignedGraph, k: int) -> Tuple[SignedGraph, np.ndarray]:
    """The maximal subgraph in which every vertex has degree ≥ k.

    Iterative peeling: repeatedly delete all vertices below degree k
    (each round vectorized) until stable.  Returns ``(core, old_ids)``;
    the core may be empty.
    """
    if k < 0:
        raise GraphFormatError("k must be non-negative")
    n = graph.num_vertices
    alive = np.ones(n, dtype=bool)
    degree = np.diff(graph.indptr).astype(np.int64)

    while True:
        doomed = alive & (degree < k)
        if not doomed.any():
            break
        # Remove doomed vertices; decrement neighbors once per incident
        # edge to a still-alive endpoint.
        doomed_ids = np.nonzero(doomed)[0]
        alive[doomed_ids] = False
        # Gather all half-edges of doomed vertices in one shot.
        from repro.util.arrays import csr_positions

        pos = csr_positions(graph.indptr, doomed_ids)
        nbrs = graph.adj_vertex[pos]
        np.subtract.at(degree, nbrs, 1)
        degree[doomed_ids] = 0

    return induced_subgraph(graph, np.nonzero(alive)[0])
