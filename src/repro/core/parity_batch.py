"""Batched parity balancing: B spanning trees per kernel invocation.

The O(m) closed form of :func:`repro.core.cycles_vectorized.balance_by_parity`
extends naturally to a batch: the B sign-to-root vectors arrive with the
trees (:func:`repro.trees.batched.sample_bfs_batch` writes them as each
vertex is discovered), and every balanced state follows at once as

    ``signs[b, e] = s2r[b, u_e] * s2r[b, v_e]``

which holds for tree edges by construction (``s2r[child] =
s2r[parent] * sign``) and for non-tree edges by the fundamental-cycle
parity argument of §3: the balanced state is the switching of the
all-positive signature by ``s2r``.  This is the Python analog of the
paper's cross-tree parallelism: one gather over the whole batch.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.perf.registry import get_registry
from repro.trees.batched import TreeBatch

__all__ = ["balance_batch"]


def balance_batch(
    graph: SignedGraph,
    batch: TreeBatch,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced states of every tree in *batch* via batched parity.

    Returns ``(signs, s2r)``: ``signs`` is ``(B, m)`` int8, row ``b``
    identical to the ``new_signs`` of any single-tree kernel on tree
    ``b``; ``s2r`` is the batch's ``(B, n)`` sign-to-root array (from
    which the Harary bipartitions follow in O(n), see
    :func:`repro.harary.bipartition.sides_from_sign_to_root`).
    """
    s2r = batch.sign_to_root
    # One state-contiguous row of the (n, B) transpose per edge end.
    by_vertex = np.ascontiguousarray(s2r.T)
    signs = by_vertex.take(graph.edge_u, axis=0)
    signs *= by_vertex.take(graph.edge_v, axis=0)
    signs = signs.T
    num_cycles = batch.num_trees * (
        graph.num_edges - (graph.num_vertices - 1)
    )
    if counters is not None:
        counters.add("cycle.count", num_cycles)
    registry = get_registry()
    registry.count("parity.states_total", batch.num_trees)
    registry.count("parity.cycles_total", num_cycles)
    return signs, s2r
