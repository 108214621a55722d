"""The graphB+ front end (Alg. 3): label, traverse, balance.

:func:`balance` wires together the three steps for one spanning tree
and returns a :class:`BalanceResult`.  Three interchangeable cycle
kernels are exposed — they produce *identical* balanced states and
differ only in traversal strategy and therefore cost profile:

========== ===========================================================
``walk``   Faithful serial range walk of Alg. 3 (§3), using the
           pre-order labels and the partitioned adjacency.  The
           reference; also the only kernel whose scan counts reflect
           the §3.2.2 adjacency optimization directly.
``lockstep`` Lane-per-cycle data-parallel walk (the GPU-analog kernel);
           fast in NumPy, reports exact cycle lengths/degrees.
``parity`` O(m) sign-to-root closed form; fastest, no per-cycle stats.
========== ===========================================================

Labeling may run ``serial`` (explicit pre/post-order) or ``parallel``
(Alg. 4 level passes); both yield bit-identical labels.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.adjacency import partition_adjacency
from repro.core.cycles import process_cycles_serial
from repro.core.cycles_vectorized import balance_by_parity, process_cycles_lockstep
from repro.core.labeling import label_tree
from repro.core.labeling_parallel import label_tree_parallel
from repro.core.state import BalanceResult
from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.perf.tracing import span
from repro.rng import SeedLike
from repro.trees.bfs import bfs_tree
from repro.trees.tree import SpanningTree

__all__ = ["balance", "balance_forest", "CycleKernel", "LabelMode"]

CycleKernel = Literal["walk", "lockstep", "parity"]
LabelMode = Literal["serial", "parallel", "none"]


def balance(
    graph: SignedGraph,
    tree: SpanningTree | None = None,
    *,
    kernel: CycleKernel = "lockstep",
    labeling: LabelMode = "parallel",
    partition: bool = True,
    collect_stats: bool = False,
    seed: SeedLike = None,
    counters: Counters | None = None,
) -> BalanceResult:
    """Compute the nearest balanced state Σ_T for one spanning tree.

    Parameters
    ----------
    graph:
        Connected signed graph Σ.
    tree:
        Spanning tree T; a randomized BFS tree is sampled (using
        *seed*) when omitted.
    kernel:
        Cycle-processing kernel (see module docstring).
    labeling:
        Label implementation.  ``"none"`` skips labeling entirely —
        only valid with the ``lockstep``/``parity`` kernels, which walk
        by depth instead of by range (the labels exist so the *walk*
        kernel can navigate; the paper's GPU code needs them, our
        lockstep analog does not).
    partition:
        Apply the §3.2.2 adjacency partitioning before walking
        (``walk`` kernel only; disable for the ablation).
    collect_stats:
        Record cycle lengths and on-cycle degrees (Table 5).
        Unsupported by the ``parity`` kernel.

    Each phase is a span (``tree_sample``, ``labeling``,
    ``adjacency_partition`` and the kernel's ``*_kernel``), so
    :func:`~repro.perf.registry.collecting` and
    :func:`~repro.perf.export.phase_table` give the Fig. 11 breakdown
    of one call.
    """
    counters = counters if counters is not None else Counters()

    if tree is None:
        with span("tree_sample"):
            tree = bfs_tree(graph, seed=seed)

    if kernel == "walk" and labeling == "none":
        raise EngineError("the walk kernel requires labels; use serial/parallel")
    if kernel == "parity" and collect_stats:
        raise EngineError("the parity kernel cannot collect per-cycle stats")

    lab = None
    if labeling != "none":
        with span("labeling"):
            if labeling == "serial":
                lab = label_tree(tree)
            elif labeling == "parallel":
                lab = label_tree_parallel(tree, counters=counters)
            else:
                raise EngineError(f"unknown labeling mode {labeling!r}")

    stats = None
    if kernel == "walk":
        padj = None
        if partition:
            with span("adjacency_partition"):
                padj = partition_adjacency(graph, tree)
        with span("walk_kernel"):
            signs, flipped, stats = process_cycles_serial(
                graph,
                tree,
                lab,
                padj=padj,
                counters=counters,
                collect_stats=collect_stats,
            )
    elif kernel == "lockstep":
        with span("lockstep_kernel"):
            signs, flipped, stats = process_cycles_lockstep(
                graph, tree, counters=counters, collect_stats=collect_stats
            )
    elif kernel == "parity":
        with span("parity_kernel"):
            signs, flipped = balance_by_parity(graph, tree, counters=counters)
    else:
        raise EngineError(f"unknown cycle kernel {kernel!r}")

    return BalanceResult(
        graph=graph,
        tree=tree,
        signs=signs,
        flipped=flipped,
        stats=stats,
        counters=counters,
    )


def balance_forest(
    graph: SignedGraph,
    *,
    kernel: CycleKernel = "lockstep",
    seed: SeedLike = None,
) -> np.ndarray:
    """Balance a possibly disconnected graph component by component.

    The paper (and :func:`balance`) operates on one connected component;
    this convenience samples a BFS tree per component and returns a
    single balanced sign array for the whole input.  Balance of each
    component implies balance of the whole graph (a cycle never crosses
    components).
    """
    from repro.graph.components import connected_components
    from repro.graph.subgraph import induced_subgraph
    from repro.rng import spawn

    label = connected_components(graph)
    num_comp = int(label.max() + 1) if graph.num_vertices else 0
    signs = graph.edge_sign.copy()
    for comp in range(num_comp):
        members = np.nonzero(label == comp)[0]
        if len(members) < 2:
            continue
        sub, _old, host_edges = induced_subgraph(
            graph, members, return_edge_ids=True
        )
        if sub.num_edges == 0:
            continue
        result = balance(sub, kernel=kernel, seed=spawn(seed, comp))
        # Scatter the component's balanced signs back to the host edges.
        signs[host_edges] = result.signs
    return signs
