"""Incremental spanning-tree sampling by edge swaps (the swap chain).

Sampling a fresh BFS tree per state made tree generation ~85–90% of a
batched campaign when this module was written; it inverts that cost by
deriving tree *k+1* from tree *k*: cut a uniformly chosen tree edge,
reconnect the severed subtree through a uniformly chosen non-tree edge
crossing the cut.  :class:`~repro.core.incremental.TreeDeltaState`
keeps the labeling and ``sign_to_root`` exact under each swap while
touching only the moved subtree S: its CSR rows, the pre-order ID
window it moves across and two root paths, O(|S| + vol(S) + window +
depth).  The balanced state falls out of ``s2r`` directly, with no
parity kernel at all: :meth:`SwapChainSampler.states` reads dense
``(signs, s2r)`` rows off it, and :meth:`SwapChainSampler.deltas`
hands campaigns only what each swap changed, so a state costs its
swaps plus O(1) instead of an O(n + m) row.

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

Which cloud a swap campaign estimates: the swap move is symmetric (a
uniform tree edge is cut and a uniform crossing edge links it back),
so the chain's stationary law is the uniform spanning tree, the
all-trees cloud that ``wilson`` estimates.  But each segment opens
from a fresh randomized-BFS tree and makes one swap per state, far
fewer than the order of n log n steps the walk needs to mix on a
large graph, so a swap cloud lies between the BFS-tree cloud (what
``bfs``, the paper's Alg. 2, estimates) and the uniform one, and its
successive states are correlated.  It is not an estimate of the BFS
cloud: on a 2,000-vertex graph, 4,096-state swap and bfs clouds
differed by 0.081 in mean status, against 0.009 between two wilson
seeds — see EXPERIMENTS.md.
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

    def state_at(self, index: int, moves: list | None = None):
        """The :class:`~repro.core.incremental.TreeDeltaState` of chain
        state *index*, advancing (or re-basing) the internal state as
        needed.  The returned object is live — it mutates on the next
        call — so snapshot anything that must persist.  *moves*
        collects the sign-changing swaps made on the way (see
        :meth:`~repro.core.incremental.TreeDeltaState.random_swap`)."""
        if index < 0:
            raise EngineError("chain index must be non-negative")
        from repro.core.incremental import TreeDeltaState

        base = self.segment_base(index)
        if self._state is None or self._segment != base or self._index > index:
            tree = bfs_tree(
                self.graph, root=self.root, seed=spawn(self.seed, base)
            )
            self._state = TreeDeltaState(self.graph, tree)
            self._index = base
            self._segment = base
        while self._index < index:
            k = self._index + 1
            with span("tree_swap"):
                rng = spawn(self.seed, k)
                for _ in range(self.swaps_per_state):
                    self._state.random_swap(rng, moves=moves)
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

    def deltas(self, indices) -> list:
        """The delta log of chain states *indices*: what
        :meth:`~repro.cloud.cloud.FrustrationCloud.add_deltas` folds in
        place of the dense :meth:`states` rows.

        One entry per index.  The first index, and any index the chain
        re-bases to reach (a new segment, or a step backwards), is a
        *base*: a copy of the state's ``s2r`` row.  Every other entry
        is the list of ``(members, cut)`` pairs of the factor −1 swaps
        since the previous index — S's vertices and δ(S) — by the
        switching lemma the only vertices that change Harary class and
        the only edges that change balanced sign.  An empty list is a
        state whose balanced signs equal its predecessor's.
        """
        log: list = []
        for k in indices:
            previous = self._state
            moves: list = []
            state = self.state_at(int(k), moves)
            rebased = not log or state is not previous
            log.append(state.s2r.copy() if rebased else moves)
        return log
