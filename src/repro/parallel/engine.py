"""Execution engines: run + model a multi-tree balancing campaign.

:func:`model_run` is the entry the benchmark harness uses for every
runtime table/figure: sample a few spanning trees, collect their
workloads, model the per-tree phase times on a machine description,
and extrapolate to the paper's 1000-tree campaign.  It also reports
the *measured* wall time of the actual Python kernels for the sampled
trees, so every modeled number sits next to a real measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol

from repro.core.balancer import balance
from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.parallel.machine import PhaseTimes
from repro.parallel.workload import Workload, collect_workload
from repro.rng import SeedLike
from repro.trees.sampler import TreeSampler

__all__ = [
    "Machine",
    "ModeledRun",
    "model_run",
    "model_run_multi",
    "measure_python_seconds",
]


class Machine(Protocol):
    """Anything that can price a workload (CpuMachine, GpuMachine)."""

    def times(self, w: Workload) -> PhaseTimes:
        """Modeled per-tree phase times for workload *w*."""
        ...


@dataclass(frozen=True)
class ModeledRun:
    """Modeled campaign results for one (graph, machine) pair."""

    machine_name: str
    num_trees: int
    sampled_trees: int
    phase: PhaseTimes            # summed over the modeled campaign
    num_cycles_per_tree: float
    measured_sample_seconds: float  # real wall time of the sampled runs

    @property
    def graphb_seconds(self) -> float:
        """The paper's reported metric: labeling + cycle processing,
        summed over all trees (tree building and bipartitioning are
        excluded, §5)."""
        return self.phase.graphb

    @property
    def throughput_mcps(self) -> float:
        """Millions of fundamental cycles balanced per second (Figs. 7–8)."""
        total_cycles = self.num_cycles_per_tree * self.num_trees
        if self.graphb_seconds <= 0:
            return 0.0
        return total_cycles / self.graphb_seconds / 1.0e6


def model_run(
    graph: SignedGraph,
    machine: Machine,
    num_trees: int = 1000,
    sample_trees: int = 3,
    method: str = "bfs",
    seed: SeedLike = 0,
    machine_name: str | None = None,
) -> ModeledRun:
    """Model a ``num_trees`` campaign from ``sample_trees`` real trees.

    The sampled trees are actually built and balanced (so the workload
    numbers are measurements, not estimates); their mean phase times
    under *machine* are scaled to the campaign size.
    """
    if sample_trees < 1 or num_trees < 1:
        raise EngineError("tree counts must be positive")
    sampler = TreeSampler(graph, method=method, seed=seed)

    per_tree: list[PhaseTimes] = []
    cycles = 0.0
    start = time.perf_counter()
    for i in range(sample_trees):
        tree = sampler.tree(i)
        w = collect_workload(graph, tree)
        per_tree.append(machine.times(w))
        cycles += w.num_cycles
    measured = time.perf_counter() - start

    scale = num_trees / sample_trees
    summed = PhaseTimes(
        tree_generation=sum(p.tree_generation for p in per_tree) * scale,
        labeling=sum(p.labeling for p in per_tree) * scale,
        cycle_processing=sum(p.cycle_processing for p in per_tree) * scale,
        bipartition=sum(p.bipartition for p in per_tree) * scale,
    )
    return ModeledRun(
        machine_name=machine_name or type(machine).__name__,
        num_trees=num_trees,
        sampled_trees=sample_trees,
        phase=summed,
        num_cycles_per_tree=cycles / sample_trees,
        measured_sample_seconds=measured,
    )


def model_run_multi(
    graph: SignedGraph,
    machines: dict[str, Machine],
    num_trees: int = 1000,
    sample_trees: int = 3,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> dict[str, ModeledRun]:
    """Model one campaign on several machines from a *shared* set of
    sampled workloads (each tree is built and profiled once).

    This is what the multi-column runtime tables use: identical
    workloads priced per machine, so column differences reflect only
    the machine models.
    """
    if sample_trees < 1 or num_trees < 1:
        raise EngineError("tree counts must be positive")
    sampler = TreeSampler(graph, method=method, seed=seed)

    start = time.perf_counter()
    workloads = []
    for i in range(sample_trees):
        tree = sampler.tree(i)
        workloads.append(collect_workload(graph, tree))
    measured = time.perf_counter() - start
    cycles = sum(w.num_cycles for w in workloads) / sample_trees
    scale = num_trees / sample_trees

    out: dict[str, ModeledRun] = {}
    for name, machine in machines.items():
        per_tree = [machine.times(w) for w in workloads]
        summed = PhaseTimes(
            tree_generation=sum(p.tree_generation for p in per_tree) * scale,
            labeling=sum(p.labeling for p in per_tree) * scale,
            cycle_processing=sum(p.cycle_processing for p in per_tree) * scale,
            bipartition=sum(p.bipartition for p in per_tree) * scale,
        )
        out[name] = ModeledRun(
            machine_name=name,
            num_trees=num_trees,
            sampled_trees=sample_trees,
            phase=summed,
            num_cycles_per_tree=cycles,
            measured_sample_seconds=measured,
        )
    return out


def measure_python_seconds(
    graph: SignedGraph,
    num_trees: int,
    sample_trees: int = 2,
    kernel: str = "walk",
    use_baseline: bool = False,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> float:
    """Measured wall seconds for a ``num_trees`` campaign of the *actual*
    Python implementation, extrapolated from ``sample_trees`` real runs.

    With ``use_baseline=True`` this times the Alg. 1 dense-matrix
    baseline — the 'Python [39]' column of Table 2.
    """
    from repro.core.baseline import balance_baseline

    sampler = TreeSampler(graph, method=method, seed=seed)
    start = time.perf_counter()
    for i in range(sample_trees):
        tree = sampler.tree(i)
        if use_baseline:
            balance_baseline(graph, tree)
        else:
            balance(graph, tree, kernel=kernel)
    elapsed = time.perf_counter() - start
    return elapsed * (num_trees / sample_trees)
