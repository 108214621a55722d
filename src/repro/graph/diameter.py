"""Graph diameter and eccentricity estimation.

§3.3.1 expects social graphs to have low diameter ("we expect the graph
diameter to be low … there should only be relatively few tree levels"),
and Table 6 confirms it empirically.  These helpers measure it:

* :func:`eccentricity` — exact eccentricity of one vertex (one BFS);
* :func:`double_sweep_diameter` — the classic double-sweep lower bound
  (BFS from an arbitrary vertex, then from the farthest vertex found),
  exact on trees and usually tight on real networks;
* :func:`diameter_bounds` — (lower, upper) from a small sweep sample.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, as_generator
from repro.util.arrays import csr_positions

__all__ = ["eccentricity", "double_sweep_diameter", "diameter_bounds"]


def _bfs_levels(graph: SignedGraph, source: int) -> np.ndarray:
    """Unweighted distances from *source* (−1 for unreachable)."""
    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        pos = csr_positions(graph.indptr, frontier)
        if len(pos) == 0:
            break
        nbrs = graph.adj_vertex[pos]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = fresh
    return dist


def eccentricity(graph: SignedGraph, vertex: int) -> int:
    """Largest BFS distance from *vertex* (graph must be connected)."""
    dist = _bfs_levels(graph, vertex)
    if np.any(dist < 0):
        raise DisconnectedGraphError(
            f"vertex {vertex} does not reach the whole graph"
        )
    return int(dist.max())


def double_sweep_diameter(
    graph: SignedGraph, seed: SeedLike = None
) -> int:
    """Double-sweep diameter lower bound (exact on trees).

    BFS from a random vertex, then BFS from the farthest vertex found;
    the second eccentricity is a lower bound on — and in practice very
    often equal to — the diameter.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = as_generator(seed)
    start = int(rng.integers(0, n))
    d1 = _bfs_levels(graph, start)
    if np.any(d1 < 0):
        raise DisconnectedGraphError("graph is not connected")
    far = int(d1.argmax())
    d2 = _bfs_levels(graph, far)
    return int(d2.max())


def diameter_bounds(
    graph: SignedGraph, samples: int = 4, seed: SeedLike = None
) -> tuple[int, int]:
    """(lower, upper) diameter bounds from *samples* double sweeps.

    Lower bound: the best eccentricity seen.  Upper bound: twice the
    smallest eccentricity seen (the radius bound ``diam ≤ 2·rad``).
    """
    n = graph.num_vertices
    if n == 0:
        return 0, 0
    rng = as_generator(seed)
    lower = 0
    upper = 2 * (n - 1)
    for _ in range(max(samples, 1)):
        start = int(rng.integers(0, n))
        dist = _bfs_levels(graph, start)
        if np.any(dist < 0):
            raise DisconnectedGraphError("graph is not connected")
        ecc = int(dist.max())
        lower = max(lower, ecc)
        upper = min(upper, 2 * ecc)
        # Sweep: also try the farthest vertex.
        d2 = _bfs_levels(graph, int(dist.argmax()))
        ecc2 = int(d2.max())
        lower = max(lower, ecc2)
    return lower, max(lower, upper)
