"""Level-synchronous vertex/edge labeling (Alg. 4).

Pre- and post-order traversals are sequential, so the paper replaces
them with two passes over the tree *levels*:

1. **Bottom-up**: every vertex starts with count 1; each level adds its
   counts into the parents (atomics in CUDA, ``np.add.at`` here).
   After the pass, ``count[v]`` is the subtree size of ``v``.
2. **Top-down**: the root takes ID 0; each parent hands its children
   consecutive ID blocks — child ``c`` gets ``id[p] + 1 +`` (sizes of
   its earlier siblings), which is simultaneously the low end of the
   edge range; the high end is ``low + count[c] − 1``.

Every per-level step is a vectorized array operation, mirroring how the
OpenMP/CUDA codes parallelize over the vertices of a level.  Output is
bit-identical to the serial :func:`repro.core.labeling.label_tree`
because both visit children in ascending vertex-id order.
"""

from __future__ import annotations

import numpy as np

from repro.core.labeling import Labeling
from repro.perf.compat import Counters
from repro.perf.registry import get_registry
from repro.trees.tree import SpanningTree
from repro.util.arrays import csr_positions

__all__ = ["label_tree_parallel"]


def label_tree_parallel(
    tree: SpanningTree, counters: Counters | None = None
) -> Labeling:
    """Alg. 4: bottom-up subtree counts, top-down IDs and ranges.

    ``counters``, when given, records one parallel region per level
    pass and the number of work items in each — the inputs to the
    simulated-machine cost models.
    """
    get_registry().count("label.calls_total", 1)
    n = tree.num_vertices
    order, level_ptr = tree.levels
    num_levels = tree.num_levels

    count = np.ones(n, dtype=np.int64)

    # --- Bottom-up pass: fold counts into parents, deepest level first.
    for lvl in range(num_levels - 1, 0, -1):
        members = order[level_ptr[lvl] : level_ptr[lvl + 1]]
        parents = tree.parent[members]
        # np.add.at is the sequential-consistency analog of the CUDA
        # atomicAdd: multiple children of one parent accumulate safely.
        np.add.at(count, parents, count[members])
        if counters is not None:
            counters.parallel_region("label.bottom_up", len(members))

    # --- Top-down pass: assign IDs and ranges level by level.
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[tree.root] = 0
    child_ptr, child_list = tree.children

    for lvl in range(num_levels - 1):
        members = order[level_ptr[lvl] : level_ptr[lvl + 1]]
        # Gather all children of this level, grouped by parent and
        # (within a parent) in ascending vertex-id order — the same
        # order the serial pre-order uses.
        counts = child_ptr[members + 1] - child_ptr[members]
        total = int(counts.sum())
        if total == 0:
            continue
        kids = child_list[csr_positions(child_ptr, members)]
        parents = np.repeat(members, counts)

        # Exclusive prefix sum of earlier-sibling sizes within each
        # parent group (vectorized segmented scan): global exclusive
        # scan, then re-zero at each group boundary.
        sizes = count[kids]
        csum = np.cumsum(sizes)
        excl = np.empty_like(csum)
        excl[0] = 0
        excl[1:] = csum[:-1]
        # Group boundaries over the *non-empty* parents only (childless
        # parents contribute no positions).
        run_counts = counts[counts > 0]
        group_first = np.concatenate([[0], np.cumsum(run_counts)[:-1]])
        excl -= np.repeat(excl[group_first], run_counts)

        new_id[kids] = new_id[parents] + 1 + excl
        if counters is not None:
            counters.parallel_region("label.top_down", total)

    subtree_size = count
    range_lo = np.where(tree.parent >= 0, new_id, -1)
    range_hi = np.where(tree.parent >= 0, new_id + subtree_size - 1, -1)
    return Labeling(
        new_id=new_id,
        subtree_size=subtree_size,
        range_lo=range_lo,
        range_hi=range_hi,
    )
