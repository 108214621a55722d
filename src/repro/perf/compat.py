"""Legacy phase-timer and op-counter types (pre-PR-4 observability).

These classes predate the :mod:`repro.perf.registry` /
:mod:`repro.perf.tracing` stack and survive for two reasons: the
simulated-machine cost models replay :class:`Counters` region logs, and
a handful of callers still pass an explicit :class:`PhaseTimer`.  New
code should record into the metrics registry via spans.  This module is
their only import path.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

__all__ = ["PhaseTimer", "Counters", "RegionStat"]


@dataclass
class PhaseTimer:
    """Accumulating named-phase timer.

    Use as ``with timer.phase("cycles"): ...``.  Phases may repeat;
    times accumulate.  Nesting different phases is allowed and each
    accumulates its own wall time independently (the outer phase
    includes the inner — match the paper by timing disjoint phases).
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager timing one occurrence of the named phase."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record externally measured (or modeled) time for a phase."""
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + count

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> Dict[str, float]:
        """Fraction of total time per phase (sums to 1 when nonempty)."""
        total = self.total
        if total <= 0.0:
            return {name: 0.0 for name in self.seconds}
        return {name: t / total for name, t in self.seconds.items()}

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulated phases into this one."""
        for name, t in other.seconds.items():
            self.add(name, t, other.counts.get(name, 1))

    def render(self, title: str = "phase breakdown") -> str:
        """Multi-line text rendering, longest phase first."""
        lines = [title]
        frac = self.breakdown()
        for name in sorted(self.seconds, key=self.seconds.get, reverse=True):
            lines.append(
                f"  {name:<24s} {self.seconds[name]:>10.4f}s  {frac[name]:>6.1%}"
            )
        return "\n".join(lines)


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
