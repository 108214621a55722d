"""Op counters for the simulated-machine cost models.

:class:`Counters` predates the :mod:`repro.perf.registry` /
:mod:`repro.perf.tracing` stack and survives because the
simulated-machine cost models replay its region logs.  Phase times are
spans (:func:`repro.perf.tracing.span`), read back with
:func:`~repro.perf.registry.collecting` and
:func:`~repro.perf.export.phase_table`.  This module is the counters'
only import path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Counters", "RegionStat"]


@dataclass(frozen=True)
class RegionStat:
    """Aggregate over all parallel regions sharing a name."""

    launches: int
    total_items: int

    @property
    def avg_items(self) -> float:
        return self.total_items / self.launches if self.launches else 0.0


@dataclass
class Counters:
    """Named scalar counters plus a log of parallel-region launches.

    ``ops`` holds flat counts ("cycle.edges_scanned", ...).  ``regions``
    records each parallel region (kernel launch / OpenMP region) with
    its work-item count, in launch order — the Fig. 10 scaling model
    replays this log under different thread counts.
    """

    ops: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    regions: List[Tuple[str, int]] = field(default_factory=list)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment the named scalar counter."""
        self.ops[name] += int(amount)

    def parallel_region(self, name: str, items: int) -> None:
        """Record one parallel-region launch with *items* work items."""
        self.regions.append((name, int(items)))

    def get(self, name: str) -> int:
        """Current value of a scalar counter (0 if never touched)."""
        return int(self.ops.get(name, 0))

    def region_stats(self) -> Dict[str, RegionStat]:
        """Aggregate the region log by name."""
        launches: Dict[str, int] = defaultdict(int)
        items: Dict[str, int] = defaultdict(int)
        for name, k in self.regions:
            launches[name] += 1
            items[name] += k
        return {
            name: RegionStat(launches=launches[name], total_items=items[name])
            for name in launches
        }

    def merge(self, other: "Counters") -> None:
        """Fold *other* into this (used when accumulating over trees)."""
        for name, value in other.ops.items():
            self.ops[name] += value
        self.regions.extend(other.regions)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the scalar counters."""
        return dict(self.ops)
