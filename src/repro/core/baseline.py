"""The pre-graphB+ baseline (Alg. 1 as the original Python code ran it).

Tesic and Rusnak's original graphB package (§2.5) stored the graph as
an adjacency matrix with dictionary bookkeeping and, for every non-tree
edge, searched the tree for the connecting path — O(n · m) work per
tree and O(n²) memory.  This module reimplements that complexity class
as the slow comparator of Table 2 / Fig. 7:

* dense ``n × n`` sign matrix (the O(n²) footprint),
* per-cycle path discovery by walking *full ancestor chains* with
  Python-object bookkeeping (dict/list, no arrays),
* no labels, no ranges, no partitioned adjacency.

The produced balanced state is identical to graphB+'s for the same
tree (both flip exactly the negative fundamental cycles) — the paper
validated its results against the Python code the same way.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import BalanceResult
from repro.errors import ReproError
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.perf.tracing import span
from repro.trees.tree import SpanningTree

__all__ = ["balance_baseline"]

_DENSE_LIMIT = 20_000  # n above this would allocate > 400 MB; refuse.


def balance_baseline(
    graph: SignedGraph,
    tree: SpanningTree,
    counters: Counters | None = None,
) -> BalanceResult:
    """Balance Σ w.r.t. T the way the original graphB code did.

    Refuses graphs with more than 20k vertices — the dense matrix is
    the point of the baseline, and the paper likewise could not run
    the Python code on the larger inputs.  Its two phases are the
    spans ``baseline_setup`` and ``baseline_kernel``.
    """
    n = graph.num_vertices
    if n > _DENSE_LIMIT:
        raise ReproError(
            f"baseline uses an O(n^2) adjacency matrix; n={n} exceeds "
            f"the {_DENSE_LIMIT}-vertex safety limit (the original code "
            "hit the same wall, cf. paper §2.5)"
        )
    counters = counters if counters is not None else Counters()

    with span("baseline_setup"):
        # Dense adjacency-matrix sign storage, dict-of-dict edge ids —
        # deliberately the original code's data layout.
        matrix = np.zeros((n, n), dtype=np.int8)
        edge_id: dict[tuple[int, int], int] = {}
        for e in range(graph.num_edges):
            u = int(graph.edge_u[e])
            v = int(graph.edge_v[e])
            s = int(graph.edge_sign[e])
            matrix[u, v] = s
            matrix[v, u] = s
            edge_id[(u, v)] = e
            edge_id[(v, u)] = e
        parent = [int(p) for p in tree.parent]

    new_signs = graph.edge_sign.copy()
    flipped = np.zeros(graph.num_edges, dtype=bool)
    path_vertices_total = 0

    with span("baseline_kernel"):
        for e in range(graph.num_edges):
            if tree.in_tree[e]:
                continue
            u = int(graph.edge_u[e])
            v = int(graph.edge_v[e])

            # Full ancestor chain of u (list + dict, O(depth) each but
            # with Python-object costs), then climb v until the chains
            # meet — O(n) per cycle in the worst case, which over all
            # O(m) cycles is the O(n * m) per-tree work of §2.5.
            chain = []
            at: dict[int, int] = {}
            x = u
            while x != -1:
                at[x] = len(chain)
                chain.append(x)
                x = parent[x]
            y = v
            path_v = [y]
            while y not in at:
                y = parent[y]
                path_v.append(y)
            lca = y

            sign_product = int(matrix[u, v])
            # u -> lca segment.
            for i in range(at[lca]):
                a, b = chain[i], chain[i + 1]
                sign_product *= int(matrix[a, b])
            # v -> lca segment (path_v ends at lca).
            for i in range(len(path_v) - 1):
                a, b = path_v[i], path_v[i + 1]
                sign_product *= int(matrix[a, b])
            path_vertices_total += len(chain) + len(path_v)

            if sign_product < 0:
                new_signs[e] = -new_signs[e]
                flipped[e] = True
                matrix[u, v] = int(new_signs[e])
                matrix[v, u] = int(new_signs[e])

    counters.add("cycle.count", int((~tree.in_tree).sum()))
    counters.add("baseline.path_vertices", path_vertices_total)
    return BalanceResult(
        graph=graph,
        tree=tree,
        signs=new_signs,
        flipped=flipped,
        stats=None,
        counters=counters,
    )
