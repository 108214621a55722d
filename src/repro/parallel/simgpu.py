"""Simulated GPU machine: the CUDA-analog cost model.

No CUDA device is available, so the CUDA columns are modeled by
replaying the measured workload on a machine shaped like the Titan V
(80 SMs, §5) under the paper's parallelization scheme (§3.3.2):

* **warp per vertex, lane per non-tree edge**: each vertex's cycles are
  processed by one warp, 32 lanes at a time; lanes in a batch run in
  lockstep, so a batch costs its *longest* lane (divergence).  A
  43k-degree hub therefore serializes ~1,350 batches in one warp —
  reproducing the paper's strong runtime correlation with max degree
  (r = 0.96, §6.2).
* a bounded number of warps execute concurrently (latency-limited
  occupancy); the cycle kernel's time is the dynamic-schedule makespan
  of warp tasks over that pool;
* every kernel launch pays ``launch_seconds``; level-synchronous
  phases (BFS, labeling) launch one kernel per level, which is what
  keeps small graphs from saturating the device (§6.1);
* lane ops are slower than CPU ops (irregular, uncoalesced gathers),
  but there are ~10,000 of them in flight.

Defaults calibrated once against Table 2's CUDA column; see
EXPERIMENTS.md.

``profile(w)`` returns the cycle kernel's warp-level schedule timeline
— each segment one vertex's warp task, carrying the vertex id and its
cycle count — plus the per-phase launch-overhead ledger and divergence
summary.  Profiled phase times are bit-identical to ``times(w)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import EngineError
from repro.parallel.machine import PhaseTimes
from repro.parallel.schedule import makespan_dynamic
from repro.parallel.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.timeline import MachineProfile

__all__ = ["GpuMachine", "CUDA_MACHINE"]


@dataclass(frozen=True)
class GpuMachine:
    """Titan-V-shaped execution model (§5: 80 SMs, 12 GB, 652 GB/s)."""

    num_sms: int = 80
    concurrent_warps_per_sm: int = 8
    warp_size: int = 32
    lane_op_seconds: float = 80.0e-9
    launch_seconds: float = 8.0e-6
    divergence_factor: float = 1.8

    def __post_init__(self) -> None:
        if self.num_sms < 1 or self.concurrent_warps_per_sm < 1:
            raise EngineError("GPU must have at least one SM and warp")

    @property
    def warp_pool(self) -> int:
        """Warps executing concurrently across the device."""
        return self.num_sms * self.concurrent_warps_per_sm

    @property
    def lane_pool(self) -> int:
        return self.warp_pool * self.warp_size

    # ------------------------------------------------------------------
    def _flat_kernel(self, work_ops: float, launches: int = 1) -> float:
        """A kernel that spreads *work_ops* uniformly over all lanes."""
        return (
            launches * self.launch_seconds
            + work_ops * self.lane_op_seconds / self.lane_pool
        )

    def _warp_tasks(self, w: Workload) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(task seconds, owning vertex, cycle count) per warp task: a
        vertex with k cycles runs ceil(k/32) lane batches, each costed
        as its mean cycle cost times a divergence factor."""
        owners, owner_costs = w.owner_costs
        counts = np.zeros(len(owners), dtype=np.float64)
        uniq, inverse = np.unique(w.cycle_owner, return_inverse=True)
        np.add.at(counts, inverse, 1.0)
        mean_cost = owner_costs / np.maximum(counts, 1.0)
        batches = np.ceil(counts / self.warp_size)
        tasks = (
            batches * mean_cost * self.divergence_factor * self.lane_op_seconds
        )
        return tasks, owners, counts

    def times(
        self, w: Workload, profile: Optional["MachineProfile"] = None
    ) -> PhaseTimes:
        """Modeled per-tree phase times for workload *w*.

        With a :class:`~repro.perf.timeline.MachineProfile`, also
        records the cycle kernel's warp schedule timeline (one segment
        per vertex, tagged ``vertex``/``cycles``), the launch ledger,
        and the divergence summary — the returned numbers are
        unchanged.
        """
        # --- Labeling: 1 init kernel + 2 kernels per level.
        labeling = self._flat_kernel(float(w.num_vertices))
        if profile is not None:
            profile.add_launch("labeling", "init",
                               self._flat_kernel(float(w.num_vertices)),
                               self.launch_seconds, items=w.num_vertices)
        for direction, levels in (
            ("bottom_up", w.level_items[1:]),
            ("top_down", w.level_items[:-1]),
        ):
            for items in levels:
                seconds = self._flat_kernel(3.0 * float(items))
                labeling += seconds
                if profile is not None:
                    profile.add_launch("labeling", direction, seconds,
                                       self.launch_seconds, items=int(items))

        # --- Cycle kernel: warp tasks scheduled over the warp pool.
        tasks, owners, counts = self._warp_tasks(w)
        if profile is None:
            span = makespan_dynamic(tasks, self.warp_pool)
        else:
            span, tl = makespan_dynamic(tasks, self.warp_pool, timeline=True)
            tl = tl.shifted(self.launch_seconds)
            tl.label = f"cycle kernel ({self.warp_pool} warps)"

            from repro.perf.timeline import TimelineSegment

            def tag(seg):
                meta = dict(seg.meta)
                if 0 <= seg.task < len(owners):
                    meta["vertex"] = int(owners[seg.task])
                    meta["cycles"] = int(counts[seg.task])
                return TimelineSegment(
                    seg.name, seg.worker, seg.start, seg.end, seg.task, meta
                )

            profile.add_timeline("cycle_processing", tl.relabel(tag))
            if len(counts):
                batches = np.ceil(counts / self.warp_size)
                profile.divergence = {
                    "divergence_factor": self.divergence_factor,
                    "max_warp_batches": float(batches.max()),
                    "mean_warp_batches": float(batches.mean()),
                    "hub_serialization": float(batches.max() / max(batches.mean(), 1.0)),
                }
        cycles = self.launch_seconds + span
        if profile is not None:
            profile.add_launch("cycle_processing", "cycle_kernel", cycles,
                               self.launch_seconds, items=len(tasks))

        # --- Tree generation: one kernel per BFS level.
        per_level = float(w.treegen_ops) / max(len(w.level_items), 1)
        treegen = sum(
            self._flat_kernel(per_level) for _ in range(len(w.level_items))
        )
        if profile is not None:
            for _ in range(len(w.level_items)):
                profile.add_launch("tree_generation", "bfs_level",
                                   self._flat_kernel(per_level),
                                   self.launch_seconds, items=int(per_level))

        # --- Harary bipartition: frontier kernels over the worklists
        # (§6.4's two extra worklists); charge one kernel per level of
        # the collapsed BFS plus the component sweeps.
        harary = self._flat_kernel(float(w.harary_ops), launches=6)
        if profile is not None:
            profile.add_launch("bipartition", "harary", harary,
                               6 * self.launch_seconds,
                               items=int(w.harary_ops), launches=6)

        return PhaseTimes(
            tree_generation=treegen,
            labeling=labeling,
            cycle_processing=cycles,
            bipartition=harary,
        )

    def profile(self, w: Workload) -> tuple[PhaseTimes, "MachineProfile"]:
        """``times(w)`` plus the populated machine profile."""
        from repro.perf.timeline import MachineProfile

        prof = MachineProfile("cuda")
        return self.times(w, profile=prof), prof


#: The paper's Titan V configuration.
CUDA_MACHINE = GpuMachine()
