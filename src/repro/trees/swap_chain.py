"""Incremental spanning-tree sampling by edge swaps (the swap chain).

Sampling a fresh BFS tree per state makes tree generation ~85–90% of a
batched campaign (BENCH_cloud.json); this module inverts that cost by
deriving tree *k+1* from tree *k*: cut a uniformly chosen tree edge,
reconnect the severed subtree through a uniformly chosen non-tree edge
crossing the cut.  :class:`~repro.core.incremental.TreeDeltaState`
keeps the labeling and ``sign_to_root`` exact under each swap while
touching only the moved subtree S: its CSR rows, the pre-order ID
window it moves across and two root paths, O(|S| + vol(S) + window +
depth).  A state then costs one copy of its ``s2r`` row plus its row
of the chunk's shared ``s2r[:, u] * s2r[:, v]`` signs gather, instead
of a full sample + label + parity pipeline: the balanced state falls
out of ``s2r`` directly, with no parity kernel at all.

Determinism contract (what the pool/supervisor block protocol relies
on): the chain is **segmented**.  State ``k`` belongs to the segment
starting at ``k0 = (k // segment_length) * segment_length``; the
segment opens with a fresh BFS tree drawn from ``spawn(seed, k0)``,
and each later state ``j`` applies ``swaps_per_state`` swaps drawn
from ``spawn(seed, j)``.  Tree ``k`` is therefore a pure function of
``(seed, k, swaps_per_state, segment_length, root)`` — the same
whether the campaign ran in one block, was split across pool workers,
or resumed from a checkpoint.  A block's chain segment start is always
derivable as ``start - start % segment_length``; entering a block
mid-segment costs at most ``segment_length - 1`` replayed states.

Statistically the chain differs from independent BFS trees: successive
states are correlated (one swap changes one fundamental cycle's
attachment), so swap clouds converge to the same consensus attributes
*in distribution*, not bit-for-bit — see EXPERIMENTS.md.  Each
segment restart re-anchors the chain on an independent BFS tree,
bounding the correlation length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import EngineError
from repro.graph.csr import SignedGraph
from repro.perf.tracing import span
from repro.rng import freeze_seed, spawn
from repro.trees.bfs import bfs_tree
from repro.trees.tree import SpanningTree

__all__ = ["SwapChainSampler", "swap_method_stub"]


def swap_method_stub(graph, root=None, seed=None):  # pragma: no cover
    """Registry placeholder: swap trees are chain-derived, not
    independent draws, so the generic per-index dispatch cannot build
    them.  :class:`~repro.trees.sampler.TreeSampler` routes
    ``method="swap"`` through :class:`SwapChainSampler` instead."""
    raise EngineError(
        'the "swap" method derives each tree from the previous one; '
        'sample through TreeSampler(graph, method="swap", ...) or '
        "SwapChainSampler directly"
    )


@dataclass
class SwapChainSampler:
    """Deterministic indexed sampler over the segmented swap chain.

    Parameters
    ----------
    graph:
        Connected signed graph to sample from.
    seed:
        Chain seed (frozen at construction); segment bases use
        ``spawn(seed, k0)``, state advances ``spawn(seed, k)``.
    root:
        Optional pinned BFS root for the segment-base trees.
    swaps_per_state:
        Cut/link swaps applied per chain step (more swaps = less
        correlation between successive states, more work per state).
    segment_length:
        States per segment; each segment restarts from an independent
        BFS tree, which bounds both the correlation length and the
        replay cost of entering a block mid-segment.
    """

    graph: SignedGraph
    seed: int | None = None
    root: int | None = None
    swaps_per_state: int = 1
    segment_length: int = 256

    _state: object = field(default=None, repr=False, compare=False)
    _index: int = field(default=-1, repr=False, compare=False)
    _segment: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.swaps_per_state < 1:
            raise EngineError("swaps_per_state must be positive")
        if self.segment_length < 1:
            raise EngineError("segment_length must be positive")
        self.seed = freeze_seed(self.seed)

    # ------------------------------------------------------------------
    def segment_base(self, index: int) -> int:
        """The chain segment start covering *index* (the value the pool
        block protocol records for deterministic resume)."""
        return (index // self.segment_length) * self.segment_length

    def state_at(self, index: int):
        """The :class:`~repro.core.incremental.TreeDeltaState` of chain
        state *index*, advancing (or re-basing) the internal state as
        needed.  The returned object is live — it mutates on the next
        call — so snapshot anything that must persist."""
        if index < 0:
            raise EngineError("chain index must be non-negative")
        from repro.core.incremental import TreeDeltaState

        base = self.segment_base(index)
        if self._state is None or self._segment != base or self._index > index:
            tree = bfs_tree(self.graph, root=self.root,
                            seed=spawn(self.seed, base))
            self._state = TreeDeltaState(self.graph, tree)
            self._index = base
            self._segment = base
        while self._index < index:
            k = self._index + 1
            with span("tree_swap"):
                rng = spawn(self.seed, k)
                for _ in range(self.swaps_per_state):
                    self._state.random_swap(rng)
            self._index = k
        return self._state

    def tree(self, index: int) -> SpanningTree:
        """Materialize chain state *index* as a validated
        :class:`SpanningTree` (pure function of ``(seed, index)`` and
        the chain parameters)."""
        return self.state_at(index).spanning_tree()

    def states(
        self, indices, start: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Balanced states for the given chain indices (or ``start ..
        start + indices - 1`` when an int).

        Returns ``(signs, s2r)`` — a ``(B, m)`` stack of balanced sign
        arrays and the matching ``(B, n)`` sign-to-root stack — the
        same shape :func:`repro.core.parity_batch.balance_batch`
        produces, but with no parity kernel: the ``s2r`` rows are read
        straight off the delta state, and the signs come from them in
        one ``(B, m)`` gather per chunk.
        """
        if isinstance(indices, int):
            indices = range(start, start + indices)
        indices = list(indices)
        if not indices:
            raise EngineError("need at least one chain index")
        s2r = np.empty((len(indices), self.graph.num_vertices), dtype=np.int8)
        for b, k in enumerate(indices):
            s2r[b] = self.state_at(int(k)).s2r
        # One gather for the whole chunk: the balanced sign of every
        # edge is its endpoints' sign-to-root product.
        signs = s2r[:, self.graph.edge_u] * s2r[:, self.graph.edge_v]
        return signs, s2r
