"""Result container for one graphB+ balancing run."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.cycles import CycleStats
from repro.graph.csr import SignedGraph
from repro.perf.compat import Counters
from repro.trees.tree import SpanningTree

__all__ = ["BalanceResult"]


@dataclass(frozen=True)
class BalanceResult:
    """The nearest balanced state produced by balancing one tree.

    Attributes
    ----------
    graph:
        The input graph Σ (unchanged).
    tree:
        The spanning tree T used.
    signs:
        Length-``m`` sign array of the balanced state Σ_T.
    flipped:
        Boolean edge mask of sign switches (all on non-tree edges).
    stats:
        Optional per-cycle measurements (Table 5), when requested.
    counters:
        Work counters recorded during the run (phase times are spans).
    """

    graph: SignedGraph
    tree: SpanningTree
    signs: np.ndarray
    flipped: np.ndarray
    stats: CycleStats | None
    counters: Counters

    @cached_property
    def balanced_graph(self) -> SignedGraph:
        """Σ_T as a :class:`SignedGraph` (structure shared with Σ)."""
        return self.graph.with_signs(self.signs)

    @property
    def num_flips(self) -> int:
        """Number of edge-sign switches — an upper bound on the
        frustration index contributed by this state."""
        return int(np.count_nonzero(self.flipped))

    @property
    def num_cycles(self) -> int:
        """Number of fundamental cycles processed (= non-tree edges)."""
        return self.graph.num_edges - (self.graph.num_vertices - 1)

    def state_key(self) -> bytes:
        """Hashable identity of the balanced state (for cloud dedup).

        Two runs that produce the same signs — possibly via different
        trees — compare equal, matching the paper's notion that
        different spanning trees can converge to the same nearest
        balanced state (Fig. 1).
        """
        return self.signs.tobytes()
