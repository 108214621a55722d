"""Multi-restart orchestration for the balanced-subgraph workloads.

:func:`run_balanced` is the entry point both CLI subcommands and the
bench script use.  It accepts the graph in any of the engine's
spellings — an in-memory :class:`~repro.graph.csr.SignedGraph`, an open
:class:`~repro.graph.store.GraphStore`, or a path to a packed ``.rsgs``
file — and runs the seed portfolio either single-process or across a
process pool.

The pool path is the package's one block executor
(:mod:`repro.parallel.supervisor`) with one block per restart:
store-backed runs ship only a path plus fingerprint to each worker
(zero-copy mmap, one page-cache copy machine-wide), in-memory runs ship
the graph once via the initializer, every task re-checks the
fingerprint, and worker-side ``restart`` spans stitch into the parent's
trace.  The executor runs the no-retry ladder; every restart the pool
did not complete is recomputed in-process and counted in
``degraded_restarts``, so a flaky pool can slow the search but not
change its answer.

Results are bit-deterministic across all execution modes: each restart
is a pure function of ``(graph bytes, seed, label)`` and the winner is
chosen by scanning restarts in portfolio order, so single-process,
pool, in-memory, and ``.rsgs`` runs all return the same subgraph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.balanced.extract import (
    DEFAULT_PEEL_FRAC,
    BalancedSubgraph,
    search_from_sides,
)
from repro.errors import BalancedSearchError
from repro.graph.csr import SignedGraph
from repro.parallel.supervisor import (
    BlockTask,
    CampaignSupervisor,
    RetryPolicy,
)
from repro.perf.registry import get_registry
from repro.perf.tracing import span

__all__ = ["BalancedReport", "run_balanced"]

GraphSource = Union[SignedGraph, "GraphStore", str, Path]  # noqa: F821


@dataclass(frozen=True)
class BalancedReport:
    """Everything one workload invocation produced.

    ``best`` is the winning subgraph; ``per_seed`` keeps the audit
    trail of every restart (label, size, edges, violations) so a
    regression in one seed family is visible even when another family
    still wins.
    """

    workload: str
    tolerance: int
    restarts: int
    seed: int
    workers: int
    degraded_restarts: int
    num_vertices: int
    num_edges: int
    best: BalancedSubgraph
    per_seed: list
    wall_seconds: float

    def to_json(self) -> dict:
        """JSON-ready document; ``result`` is the machine-readable
        contract (identical for in-memory and store-backed runs)."""
        return {
            "workload": self.workload,
            "graph": {
                "vertices": self.num_vertices,
                "edges": self.num_edges,
            },
            "tolerance": self.tolerance,
            "restarts": self.restarts,
            "seed": self.seed,
            "workers": self.workers,
            "degraded_restarts": self.degraded_restarts,
            "result": {
                "num_vertices": self.best.num_vertices,
                "num_edges": self.best.num_edges,
                "unsatisfied_edges": self.best.unsatisfied_edges,
                "tolerance": self.best.tolerance,
                "seed_label": self.best.seed_label,
                "vertices": [int(v) for v in self.best.vertices],
                "sides": [int(s) for s in self.best.sides],
            },
            "seeds": list(self.per_seed),
            "wall_seconds": round(self.wall_seconds, 4),
        }


def _resolve_source(source: GraphSource):
    """Normalize *source* to ``(graph, store)``."""
    from repro.graph.store import GraphStore

    if isinstance(source, SignedGraph):
        return source, None
    if isinstance(source, GraphStore):
        return source.graph(), source
    store = GraphStore.open(Path(source))
    return store.graph(), store


def _pool_search(graph, label, sides, tolerance, peel_frac, polish):
    """One restart as the pool runs it (a module-level seam, so a test
    can poison it in forked workers)."""
    return search_from_sides(
        graph, sides, tolerance=tolerance, peel_frac=peel_frac,
        polish=polish, seed_label=label,
    )


@dataclass(frozen=True)
class _RestartTask(BlockTask):
    """Block ``(i, i + 1, 1)`` is restart *i* of the seed portfolio."""

    what = "restart"
    seeds: tuple
    tolerance: int
    peel_frac: float
    polish: bool

    def __call__(self, graph: SignedGraph, block) -> BalancedSubgraph:
        label, sides = self.seeds[block[0]]
        return _pool_search(
            graph, label, sides, self.tolerance, self.peel_frac, self.polish
        )


def run_balanced(
    source: GraphSource,
    *,
    workload: str = "extract",
    tolerance: int = 0,
    restarts: int = 4,
    seed: int = 0,
    peel_frac: float = DEFAULT_PEEL_FRAC,
    polish: bool = True,
    workers: int = 0,
) -> BalancedReport:
    """Run one balanced-subgraph workload end to end.

    ``workload`` is ``"extract"`` (strict balance; *tolerance* must be
    0) or ``"tolerance"``.  ``workers=0`` runs single-process;
    ``workers>0`` distributes restarts over a pool as described in the
    module docstring.  Metrics spans nest as ``balanced_extract >
    eigen / tree_seeds / rounding / polish``; a pooled restart wraps
    its own in a ``restart`` span, and the worker's metrics and spans
    fold back into the parent's registry and trace.
    """
    if workload not in ("extract", "tolerance"):
        raise BalancedSearchError(
            f"unknown workload {workload!r}; expected 'extract' or "
            "'tolerance'"
        )
    if workload == "extract" and tolerance != 0:
        raise BalancedSearchError(
            "workload 'extract' is exact (tolerance 0); use workload "
            f"'tolerance' for tolerance={tolerance}"
        )
    if workers < 0:
        raise BalancedSearchError(f"workers must be >= 0, got {workers}")

    from repro.balanced.seeds import seed_assignments

    graph, store = _resolve_source(source)
    start = time.perf_counter()
    with span("balanced_extract"):
        seeds = seed_assignments(graph, restarts=restarts, seed=seed)
        pooled = workers > 0 and len(seeds) > 1
        done: dict = {}
        if pooled:
            task = _RestartTask(tuple(seeds), tolerance, peel_frac, polish)
            blocks = [(i, i + 1, 1) for i in range(len(seeds))]
            completed, _report = CampaignSupervisor(
                graph, blocks, task, seed=seed, workers=workers,
                policy=RetryPolicy(max_retries=0, degrade=False),
                graph_store=store,
            ).run()
            done = {block[0]: result for block, result in completed}
        # Restart-granular degradation: whatever the pool did not
        # complete is recomputed in-process, so a sick pool changes
        # wall time, never the answer.
        degraded = len(seeds) - len(done) if pooled else 0
        results = [
            done[i] if i in done else search_from_sides(
                graph, assignment, tolerance=tolerance, peel_frac=peel_frac,
                polish=polish, seed_label=label,
            )
            for i, (label, assignment) in enumerate(seeds)
        ]
    wall = time.perf_counter() - start

    best = results[0]
    for candidate in results[1:]:
        if candidate.score() > best.score():
            best = candidate
    registry = get_registry()
    registry.count("balanced.runs_total", 1)
    registry.count("balanced.restarts_total", len(results))
    registry.gauge("balanced.best_size", best.num_vertices)

    return BalancedReport(
        workload=workload,
        tolerance=tolerance,
        restarts=restarts,
        seed=seed,
        workers=workers,
        degraded_restarts=degraded,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        best=best,
        per_seed=[
            {
                "label": r.seed_label,
                "num_vertices": r.num_vertices,
                "num_edges": r.num_edges,
                "unsatisfied_edges": r.unsatisfied_edges,
            }
            for r in results
        ],
        wall_seconds=wall,
    )
