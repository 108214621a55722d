"""Data-parallel cycle processing — the CUDA-analog kernels.

Two kernels, both producing the exact balanced state of the faithful
serial walker (:mod:`repro.core.cycles`):

* :func:`process_cycles_lockstep` — one *lane* per fundamental cycle,
  advancing all lanes in lockstep.  Each step lifts the deeper endpoint
  one tree level (both when tied), accumulating edge-sign parity,
  cycle length, and on-cycle degree sums exactly as the serial walk
  does.  The number of lockstep rounds is bounded by the tree depth
  (≤ 21 on every paper input), and each round is a handful of
  vectorized gathers — this is how a warp-per-cycle GPU kernel behaves,
  and the per-lane step counts recorded here feed the simulated-GPU
  cost model.

* :func:`balance_by_parity` — the O(m) closed form: the sign product of
  the tree path between ``a`` and ``b`` equals
  ``sign_to_root[a] * sign_to_root[b]`` (the shared root–LCA segment
  squares away), so a single top-down level pass computing
  ``sign_to_root`` balances every cycle at once.  It cannot report
  cycle lengths, but is the fastest way to get the balanced state and
  serves as an independent oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.cycles import CycleStats
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.trees.tree import SpanningTree

__all__ = ["process_cycles_lockstep", "balance_by_parity", "sign_to_root"]


def process_cycles_lockstep(
    graph: SignedGraph,
    tree: SpanningTree,
    counters: Counters | None = None,
    collect_stats: bool = False,
) -> tuple[np.ndarray, np.ndarray, CycleStats | None]:
    """Balance all fundamental cycles with a lane-per-cycle lockstep walk.

    Returns the same ``(new_signs, flipped, stats)`` triple as
    :func:`repro.core.cycles.process_cycles_serial`.
    """
    depth = tree.level_of
    parent = tree.parent
    parent_edge = tree.parent_edge
    signs = graph.edge_sign
    degrees = graph.degrees

    non_tree = tree.non_tree_edge_ids()
    a = graph.edge_u[non_tree].copy()
    b = graph.edge_v[non_tree].copy()

    neg = np.zeros(len(non_tree), dtype=np.int64)
    length = np.ones(len(non_tree), dtype=np.int64)  # the non-tree edge
    if collect_stats:
        # Tree degrees cost a children sort per tree: stats runs only.
        tree_deg = tree.tree_degree
        dsum = degrees[a] + degrees[b]
        tsum = tree_deg[a] + tree_deg[b]
    rounds = 0

    active = np.nonzero(a != b)[0]
    while len(active):
        rounds += 1
        da = depth[a[active]]
        db = depth[b[active]]
        lift_a = active[da >= db]
        lift_b = active[db >= da]  # ties lift both endpoints

        for side, lifted in (("a", lift_a), ("b", lift_b)):
            if len(lifted) == 0:
                continue
            cur = a[lifted] if side == "a" else b[lifted]
            pe = parent_edge[cur]
            neg[lifted] += signs[pe] < 0
            nxt = parent[cur]
            if side == "a":
                a[lifted] = nxt
            else:
                b[lifted] = nxt
            length[lifted] += 1
            if collect_stats:
                dsum[lifted] += degrees[nxt]
                tsum[lifted] += tree_deg[nxt]

        if counters is not None:
            counters.parallel_region(
                "cycle.lockstep_round", len(lift_a) + len(lift_b)
            )
        active = active[a[active] != b[active]]

    if collect_stats:
        # Both endpoints landed on the LCA, which was therefore counted
        # twice (unless src == dst's ancestor and only one side moved —
        # the meet vertex is still added exactly once per moving side
        # plus once as an endpoint, netting one extra count).
        meet = a
        dsum -= degrees[meet]
        tsum -= tree_deg[meet]

    want = np.where(neg % 2 == 0, 1, -1).astype(np.int8)
    new_signs = signs.copy()
    flipped = np.zeros(graph.num_edges, dtype=bool)
    changed = signs[non_tree] != want
    new_signs[non_tree[changed]] = want[changed]
    flipped[non_tree[changed]] = True

    if counters is not None:
        counters.add("cycle.count", len(non_tree))
        counters.add("cycle.lockstep_rounds", rounds)
        counters.add("cycle.vertices_visited", int(length.sum()) - len(non_tree))

    stats = None
    if collect_stats:
        stats = CycleStats(
            edge_ids=non_tree,
            lengths=length,
            degree_sums=dsum,
            tree_degree_sums=tsum,
        )
    return new_signs, flipped, stats


def sign_to_root(
    graph: SignedGraph,
    tree: SpanningTree,
    counters: Counters | None = None,
    signs: np.ndarray | None = None,
) -> np.ndarray:
    """Per-vertex ±1 product of edge signs on the tree path to the root.

    Computed with one top-down level-synchronous pass (the same
    parallel structure as Alg. 4's top-down phase).  *signs* replaces
    ``graph.edge_sign`` — e.g. a balanced state's own signs, whose
    sign-to-root is that state's switching function.
    """
    n = graph.num_vertices
    sign = graph.edge_sign if signs is None else signs
    s2r = np.ones(n, dtype=np.int8)
    order, level_ptr = tree.levels
    for lvl in range(1, tree.num_levels):
        members = order[level_ptr[lvl] : level_ptr[lvl + 1]]
        s2r[members] = (
            s2r[tree.parent[members]] * sign[tree.parent_edge[members]]
        )
        if counters is not None:
            counters.parallel_region("parity.top_down", len(members))
    return s2r


def balance_by_parity(
    graph: SignedGraph,
    tree: SpanningTree,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Balance every fundamental cycle via the sign-to-root closed form.

    Returns ``(new_signs, flipped)``; identical to the traversal kernels
    (the tree-path sign product *is* what the walk accumulates).
    """
    s2r = sign_to_root(graph, tree, counters)
    non_tree = tree.non_tree_edge_ids()
    want = (
        s2r[graph.edge_u[non_tree]].astype(np.int16)
        * s2r[graph.edge_v[non_tree]].astype(np.int16)
    ).astype(np.int8)
    new_signs = graph.edge_sign.copy()
    flipped = np.zeros(graph.num_edges, dtype=bool)
    changed = graph.edge_sign[non_tree] != want
    new_signs[non_tree[changed]] = want[changed]
    flipped[non_tree[changed]] = True
    if counters is not None:
        counters.add("cycle.count", len(non_tree))
    return new_signs, flipped
