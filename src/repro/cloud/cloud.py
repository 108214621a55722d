"""Frustration-cloud accumulation (Alg. 2 and §2.2–2.3).

A *frustration cloud* is the multiset of nearest balanced states
reached from sampled (or, for tiny graphs, all) spanning trees.  The
:class:`FrustrationCloud` accumulator consumes one balanced state at a
time and maintains exactly the running statistics the consensus
attributes need — per-vertex majority counts, coalition sizes,
per-edge sign preservation, the flip counts' histogram — in O(n + m)
memory, so clouds over any number of states never store the states
themselves (storing unique states is opt-in for the small-graph
experiments that need Fig. 2's "5 unique states").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator

import numpy as np

from repro.core.balancer import balance
from repro.core.cycles_vectorized import sign_to_root
from repro.core.parity_batch import balance_batch
from repro.core.state import BalanceResult
from repro.errors import NotBalancedError, ReproError
from repro.graph.csr import SignedGraph
from repro.harary.bipartition import (
    HararyBipartition,
    harary_bipartition,
    sides_from_sign_to_root,
)
from repro.perf.tracing import span
from repro.rng import SeedLike, freeze_seed
from repro.trees.sampler import TreeSampler
from repro.trees.enumeration import all_spanning_trees

__all__ = [
    "FrustrationCloud",
    "balanced_states",
    "ingest_states",
    "sample_cloud",
    "exact_cloud",
]

#: Bytes of one dense chunk's states, and swap states per flush: the
#: engine's chunks, which move no bits.  A dense state holds 3(m + n)
#: bytes at the chunk's peak, the balance check in ``add_batch``: its
#: int8 sign row and two ``(m,)`` masks, and its sign-to-root row, its
#: sides and their transpose.
_CHUNK_BYTES = 1 << 23
_SWAP_CHUNK = 32


def _chunk_size(method: str, graph: SignedGraph) -> int:
    """States per chunk of a *method* campaign on *graph*."""
    if method == "swap":
        return _SWAP_CHUNK
    return max(1, _CHUNK_BYTES // (3 * (graph.num_edges + graph.num_vertices)))


def balanced_states(
    graph: SignedGraph,
    sampler: TreeSampler,
    indices: range,
    *,
    batch_size: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The dense state producer behind :func:`ingest_states`.

    Yields ``(signs (B, m), s2r (B, n))`` for the tree *indices* in
    order, ``batch_size`` states per chunk: the balanced sign arrays
    and their sign-to-root vectors.  For a balanced state, sign-to-root
    is the switching function whose existence is Harary's balance
    theorem, so drivers read the Harary sides off it in O(n) with
    :func:`~repro.harary.bipartition.sides_from_sign_to_root`.  The
    swap chain reads both arrays off its delta state; every other
    method stacks the chunk's trees (:meth:`TreeSampler.batch`, whose
    BFS writes each sign-to-root row as it discovers the vertices) and
    gathers the signs off those rows (:func:`balance_batch`).  By the
    §3 parity argument the balanced sign of edge ``(u, v)`` is
    ``s2r[u] * s2r[v]`` on the tree, the state every cycle kernel
    (walk, lockstep, parity) reaches, so campaigns run none of those
    per-tree kernels.
    """
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo : lo + batch_size]
        if sampler.method == "swap":
            with span("tree_sample"):
                state = sampler.swap_states(chunk)
        else:
            with span("tree_sample"):
                batch = sampler.batch(chunk)
            with span("balance"):
                state = balance_batch(graph, batch)
        yield state


def ingest_states(
    cloud: "FrustrationCloud",
    sampler: TreeSampler,
    indices: range,
    *,
    _chunk: int | None = None,
) -> Iterator[int]:
    """The one ingest loop, run by every campaign's block task
    (:class:`~repro.parallel.pool.CampaignTask`).

    Folds the states of the tree *indices* into *cloud* in chunks the
    engine picks (:func:`_chunk_size`; ``_chunk`` overrides it, for the
    tests that vary it), and yields each chunk's state count once it
    is folded.
    Swap-chain states go in as the chain's delta log
    (:meth:`FrustrationCloud.add_deltas`), at the cost of what each
    swap changed; every other method, and swap clouds that keep unique
    states (those need the sign rows), fold the dense chunks of
    :func:`balanced_states` with :meth:`FrustrationCloud.add_batch`.
    Both routes give the same cloud, bit for bit, at any chunk size.
    """
    chunk = _chunk or _chunk_size(sampler.method, cloud.graph)
    if sampler.method == "swap" and not cloud.store_states:
        for lo in range(0, len(indices), chunk):
            with span("tree_sample"):
                log = sampler.swap_deltas(indices[lo : lo + chunk])
            with span("accumulate"):
                cloud.add_deltas(log)
            yield len(log)
        return
    for signs, s2r in balanced_states(
        cloud.graph, sampler, indices, batch_size=chunk
    ):
        with span("accumulate"):
            cloud.add_batch(signs, sides_from_sign_to_root(s2r))
        yield len(signs)


@dataclass
class FrustrationCloud:
    """Streaming accumulator over nearest balanced states.

    Parameters
    ----------
    graph:
        The input graph Σ (fixed structure for every state).
    store_states:
        Keep a count per *unique* balanced state (keyed by the sign
        array).  Needed for the Fig. 2 experiment; off by default since
        it costs O(m) per unique state.
    """

    graph: SignedGraph
    store_states: bool = False

    num_states: int = 0
    # The accumulators are exact integers: δ_T(v) in half-units (2 on
    # the larger side, 1 on a tie), the sum of v's side size minus one,
    # the states that kept / preserved each edge's sign (in the
    # narrowest integer type that holds them) and the tied states.  The
    # vertex sums are float64, where every addend and partial sum is an
    # integer below 2**53, so addition is exact in any order (a merge of
    # any grouping of blocks gives the same bits); attributes divide at
    # read time.
    _majority: np.ndarray = field(init=False, repr=False)
    _coalition: np.ndarray = field(init=False, repr=False)
    _edge_coside: np.ndarray = field(init=False, repr=False)
    _edge_preserved: np.ndarray = field(init=False, repr=False)
    _ties: int = field(init=False, repr=False)
    # The flip-count histogram: _flips[i] states flipped _flip_lo + i
    # edges.  Both ends are nonzero, so _flip_lo is the fewest flips.
    _flip_lo: int = field(init=False, repr=False)
    _flips: np.ndarray = field(init=False, repr=False)
    _unique: Dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, m = self.graph.num_vertices, self.graph.num_edges
        self._majority = np.zeros(n, dtype=np.float64)
        self._coalition = np.zeros(n, dtype=np.float64)
        self._edge_coside = np.zeros(m, dtype=np.int8)
        self._edge_preserved = np.zeros_like(self._edge_coside)
        self._ties = 0
        self._flip_lo = 0
        self._flips = np.zeros(0, dtype=np.int64)
        self._unique = {}

    def _add_flips(self, lo: int, counts: np.ndarray) -> None:
        """Add the histogram *counts* of flips ``lo, lo + 1, …`` (end
        counts nonzero), widening the range only to take them in."""
        if not len(counts):
            return
        have = self._flip_lo if len(self._flips) else lo
        start = min(lo, have)
        stop = max(lo + len(counts), have + len(self._flips))
        widths = (have - start, stop - have - len(self._flips))
        self._flip_lo, self._flips = start, np.pad(self._flips, widths)
        self._flips[lo - start : lo - start + len(counts)] += counts

    def _fit_counts(self, states: int) -> None:
        """Exact per-edge counts in the narrowest of int8, int16, int32
        and int64 that holds *states*.  Signed, since the swap fold's
        interval charges take a count as low as minus the states."""
        dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                     if states <= np.iinfo(t).max)
        self._edge_coside = self._edge_coside.astype(dtype, copy=False)
        self._edge_preserved = self._edge_preserved.astype(dtype, copy=False)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_signs(self, signs: np.ndarray) -> HararyBipartition:
        """Fold one balanced state (a length-m sign array) into the cloud.

        Returns the state's Harary bipartition (so callers can reuse it).
        Raises :class:`~repro.errors.NotBalancedError` if *signs* is not
        balanced — the cloud only contains balanced states by definition.
        """
        signs = np.asarray(signs, dtype=np.int8)
        bip = harary_bipartition(self.graph, signs)
        self.add_batch(signs[None, :], bip.side[None, :])
        return bip

    def add_result(self, result: BalanceResult) -> None:
        """Fold a :class:`BalanceResult` into the cloud.

        The sides come off the state's sign-to-root along its own tree
        in O(n) instead of the generic bipartition; :meth:`add_batch`
        still rejects the state with
        :class:`~repro.errors.NotBalancedError` when any edge's sign
        disagrees with them.
        """
        s2r = sign_to_root(self.graph, result.tree, signs=result.signs)
        self.add_batch(
            result.signs[None, :], sides_from_sign_to_root(s2r)[None, :]
        )

    def add_batch(
        self, signs: np.ndarray, sides: np.ndarray | None = None
    ) -> None:
        """Fold B balanced states at once with matrix reductions.

        Parameters
        ----------
        signs:
            ``(B, m)`` int8 stack of balanced sign arrays (one state
            per row).
        sides:
            Optional ``(B, n)`` stack of 0/1 Harary sides matching *signs*
            (e.g. from :func:`~repro.harary.bipartition.sides_from_sign_to_root`
            on the batched parity output).  When omitted, each row goes
            through :meth:`add_signs` and its bipartition oracle.

        The accumulator updates are exact integer reductions over the
        batch, so the cloud after ``add_batch`` is exactly the cloud
        after B sequential :meth:`add_signs` calls, in any order.
        Raises :class:`~repro.errors.NotBalancedError` if any row's
        signs are inconsistent with its sides (every positive edge must
        stay inside a side, every negative edge must cross).
        """
        signs = np.asarray(signs, dtype=np.int8)
        if signs.ndim != 2 or signs.shape[1] != self.graph.num_edges:
            raise ReproError(
                f"sign batch has shape {signs.shape}, expected "
                f"(B, {self.graph.num_edges})"
            )
        if sides is None:
            for row in signs:
                self.add_signs(row)
            return
        sides = np.asarray(sides, dtype=np.int8)
        num_new, n = sides.shape
        if sides.shape != (len(signs), self.graph.num_vertices):
            raise ReproError(
                f"side batch has shape {sides.shape}, expected "
                f"({len(signs)}, {self.graph.num_vertices})"
            )

        # Gathered like balance_batch's signs, so the masks share their
        # column-major layout.  Sides are 0 or 1, so their XOR marks the
        # edges that cross, and a balanced state keeps an edge positive
        # exactly when it does not cross: crossing XOR positive is 1.
        by_vertex = np.ascontiguousarray(sides.T)
        agree = by_vertex.take(self.graph.edge_u, axis=0)
        agree ^= by_vertex.take(self.graph.edge_v, axis=0)
        is_positive = signs > 0
        agree ^= is_positive.T
        if not agree.all():
            b = int(np.flatnonzero(~agree.all(axis=0))[0])
            raise NotBalancedError(
                f"state {b} of the batch is not balanced under its sides"
            )
        del agree

        size1 = sides.sum(axis=1, dtype=np.int64)
        size0 = n - size1
        # Per state, +1 when side 1 is strictly larger, -1 when side 0
        # is, 0 on a tie.  A vertex scores 2 half-units on the larger
        # side and 1 on a tie, so its sum over the chunk is
        # 2 * (lead @ sides) + 2 * (side-0 wins) + ties.  Its side size
        # minus one is size0 - 1 + side * (size1 - size0).  Both are
        # integer contractions over the int8 sides, exact.
        lead = np.sign(size1 - size0)
        ties = int(np.count_nonzero(lead == 0))
        zero_wins = int(np.count_nonzero(lead < 0))
        votes, gains = np.einsum(
            "kb,bv->kv", np.stack([lead, size1 - size0]), sides
        )
        self._majority += 2.0 * votes + (2 * zero_wins + ties)
        self._coalition += gains + float(size0.sum() - num_new)
        self._ties += ties
        # The check above pins co-side == (signs > 0), so one exact
        # column sum of the ±1 signs yields both edge counters: per
        # edge, (B + sum) / 2 states kept it positive (co-side), and a
        # state preserves the input sign iff it kept it at that sign.
        # The sum is at most B in size: int8 holds it below 128 states.
        small = np.int8 if num_new < 128 else np.int32
        column = np.einsum("be->e", signs, dtype=small).astype(np.int64)
        positive = (num_new + column) // 2
        self._fit_counts(self.num_states + num_new)
        self._edge_coside += positive
        self._edge_preserved += np.where(
            self.graph.edge_sign > 0, positive, num_new - positive
        )
        # A state flips the edges it keeps positive XOR the input does.
        is_positive ^= self.graph.edge_sign > 0
        self._add_flips(*_flip_histogram(_row_counts(is_positive)))
        if self.store_states:
            for row in signs:
                key = row.tobytes()
                self._unique[key] = self._unique.get(key, 0) + 1
        self.num_states += num_new

    def add_deltas(self, log: list) -> None:
        """Fold a chunk of swap-chain states given as a delta log.

        *log* is :meth:`~repro.trees.swap_chain.SwapChainSampler.deltas`
        output: per state either its sign-to-root row (a base) or the
        ``(members, cut)`` pairs of its factor −1 swaps.  The result
        equals :meth:`add_batch` of the dense ``(signs, s2r)`` rows, bit
        for bit, at O(|S| + |δ(S)|) per swap plus O(1) per state and one
        O(n + m) flush per base and per chunk (:class:`_ChainFold`).
        Each swap's δ(S) is rechecked against its endpoints' new sides,
        so a listed edge that does not cross S raises
        :class:`~repro.errors.NotBalancedError` naming its state; every
        flush checks all edges, so an edge of δ(S) left out of the log
        raises there, naming the flushed interval.  Unlike
        :meth:`add_batch`, a failed fold leaves the cloud part-updated:
        discard it.
        """
        if self.store_states:
            raise ReproError(
                "a delta log carries no sign rows to store; fold dense "
                "states into a store_states cloud"
            )
        if not log:
            return
        if not isinstance(log[0], np.ndarray):
            raise ReproError("a delta log opens with a sign-to-root row")
        self._fit_counts(self.num_states + len(log))
        fold = _ChainFold(self)
        for b, entry in enumerate(log):
            if isinstance(entry, np.ndarray):
                fold.rebase(entry, b)
            else:
                for members, cut in entry:
                    fold.move(members, cut, b)
            fold.close_state()
        fold.flush(len(log))
        self._add_flips(*_flip_histogram(fold.flips))
        self.num_states += len(log)

    # ------------------------------------------------------------------
    # Attributes (defined in §2.3 / the frustration-cloud paper [33])
    # ------------------------------------------------------------------
    def _require_states(self) -> None:
        if self.num_states == 0:
            raise ReproError("the cloud is empty; add states first")

    def status(self) -> np.ndarray:
        """Per-vertex status (§2.3): mean of δ_T(v) over the states,
        where δ is 1 in the larger bipartition, 0.5 on ties, 0 else."""
        self._require_states()
        return self._majority / (2 * self.num_states)

    def influence(self) -> np.ndarray:
        """Per-vertex influence: the expected fraction of the *other*
        vertices that share v's side of the bipartition.

        Interpretation note (documented substitution): the cloud paper
        [33] derives several attributes from the bipartitions; the
        exact formula is not reproduced in the SC paper, so we use the
        natural "expected coalition size" — it is 0.5-centred, spreads
        vertices vertically in the Fig. 5 status–influence plane, and
        is monotone in how often large groups side with v.
        """
        self._require_states()
        others = self.graph.num_vertices - 1
        if others < 1:
            return np.zeros_like(self._coalition)
        return self._coalition / float(others * self.num_states)

    def edge_agreement(self) -> np.ndarray:
        """Per-edge agreement: fraction of states preserving the edge's
        original sentiment (never-flipped edges score 1.0)."""
        self._require_states()
        return self._edge_preserved / self.num_states

    def vertex_agreement(self) -> np.ndarray:
        """Per-vertex agreement: mean agreement of incident edges."""
        self._require_states()
        edge_agree = self.edge_agreement()
        n = self.graph.num_vertices
        total = np.zeros(n, dtype=np.float64)
        half_agree = edge_agree[self.graph.adj_edge]
        src = np.repeat(np.arange(n), self.graph.degrees)
        np.add.at(total, src, half_agree)
        deg = self.graph.degrees
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(deg > 0, total / np.maximum(deg, 1), 0.0)
        return out

    def edge_coside(self) -> np.ndarray:
        """Per-edge co-side probability: fraction of states in which the
        edge's endpoints land on the same side of the Harary bipartition.

        This is the edge-level consensus signal the community metrics in
        :mod:`repro.cloud.metrics` build on: a positive edge whose
        endpoints keep ending up on opposite sides marks a contested
        relationship.
        """
        self._require_states()
        return self._edge_coside / self.num_states

    def status_volatility(self) -> np.ndarray:
        """Per-vertex variance of the majority-membership score δ_T(v)
        across states — 0 for vertices always (or never) in the
        majority, maximal (0.25) for coin-flip vertices."""
        self._require_states()
        mean = self._majority / (2 * self.num_states)
        # Σ δ_T(v)² in quarter-units (4 on the larger side, 1 on a tie).
        mean_sq = (2.0 * self._majority - self._ties) / (4 * self.num_states)
        return np.maximum(mean_sq - mean * mean, 0.0)

    def frustration_upper_bound(self) -> int:
        """Minimum flip count over the sampled states — an upper bound
        on (and for exhaustive clouds, equal to) the frustration index
        L(Σ) *restricted to tree-based nearest states*."""
        self._require_states()
        return self._flip_lo

    def flip_counts(self) -> np.ndarray:
        """Flip count of every ingested state, in ascending order (the
        multiset; the cloud keeps no per-state order)."""
        flips = np.arange(len(self._flips), dtype=np.int64) + self._flip_lo
        return np.repeat(flips, self._flips)

    def merge(self, other: "FrustrationCloud") -> None:
        """Fold another cloud over the *same* graph into this one.

        This is the reduction step of the parallel drivers: per-worker
        clouds accumulate independently and merge at the end, giving
        results identical to a single sequential cloud over the union
        of their states.
        """
        from repro.graph.validation import assert_same_structure

        assert_same_structure(self.graph, other.graph)
        if self.store_states != other.store_states:
            raise ReproError("cannot merge clouds with different store_states")
        self._fit_counts(self.num_states + other.num_states)
        self._majority += other._majority
        self._coalition += other._coalition
        self._edge_coside += other._edge_coside
        self._edge_preserved += other._edge_preserved
        self._ties += other._ties
        self._add_flips(other._flip_lo, other._flips)
        if self.store_states:
            for key, count in other._unique.items():
                self._unique[key] = self._unique.get(key, 0) + count
        self.num_states += other.num_states

    def unique_states(self) -> Dict[bytes, int]:
        """Multiplicity per unique balanced state (requires
        ``store_states=True``)."""
        if not self.store_states:
            raise ReproError("cloud was built with store_states=False")
        return dict(self._unique)

    @property
    def num_unique_states(self) -> int:
        """Number of distinct balanced states seen."""
        if not self.store_states:
            raise ReproError("cloud was built with store_states=False")
        return len(self._unique)


def _flip_histogram(flips) -> tuple[int, np.ndarray]:
    """``(lo, counts)``: the histogram of the flip counts *flips* over
    ``[min, max]``, as :meth:`FrustrationCloud._add_flips` takes it."""
    flips = np.asarray(flips, dtype=np.int64)
    lo = int(flips.min()) if len(flips) else 0
    return lo, np.bincount(flips - lo)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Exact per-row True counts of a 2-D bool array, as int64: the
    columns fold in halves in uint8 (seven folds cannot overflow it)
    before one widening sum, so no ``(B, m)`` int64 temporary."""
    x = mask.view(np.uint8)
    total = np.zeros(len(x), dtype=np.int64)
    for _ in range(7):
        width = x.shape[1]
        if width < 2:
            break
        if width % 2:
            total += x[:, -1]
        x = x[:, : width // 2] + x[:, width // 2 : width - width % 2]
    return total + x.sum(axis=1, dtype=np.int64)


class _ChainFold:
    """Lazy interval accumulation of swap-chain states into a cloud.

    Between changes a vertex keeps its raw Harary class (``s2r < 0``)
    and an edge its balanced sign, so every accumulator is a sum of
    piecewise-constant values.  The fold keeps, per vertex and per
    edge, only the current value, and per state O(1) running counts
    since the last base: the states each raw class won strictly, the
    ties, each class's summed size, and the current class-1 size and
    flip count.

    A :meth:`flush` charges every entry its current value over the
    whole interval since the base, one vectorized pass.  So a change
    at state *b* folds, for the touched entries only, the difference
    between their old and new value over ``[base, b)``: the new value
    is overcharged there by the flush, the old one was not charged at
    all.  Majority, coalition and co-side are symmetric in the side
    labels, so the raw class stands in for the vertex-0-normalized
    side.
    """

    def __init__(self, cloud: FrustrationCloud) -> None:
        graph = cloud.graph
        self.cloud = cloud
        self.first = cloud.num_states
        self.u, self.v = graph.edge_u, graph.edge_v
        self.kept = graph.edge_sign > 0
        self.flips: list[int] = []
        self.side: np.ndarray | None = None
        self.positive: np.ndarray | None = None

    def _restart(self) -> None:
        self.states = 0
        self.wins = [0, 0]
        self.ties = 0
        self.sizes = [0, 0]

    def _gains(self) -> list[tuple[np.ndarray, int, int]]:
        """Per vertex accumulator, what a whole interval since the base
        adds on raw class 0 and on raw class 1."""
        cloud, (w0, w1), t = self.cloud, self.wins, self.ties
        return [
            (cloud._majority, 2 * w0 + t, 2 * w1 + t),
            (cloud._coalition, self.sizes[0] - self.states,
             self.sizes[1] - self.states),
        ]

    def rebase(self, s2r: np.ndarray, b: int) -> None:
        """State *b* is a whole ``s2r`` row: flush, then restart every
        entry from it."""
        if self.side is not None:
            self.flush(b)
        self.side = (np.asarray(s2r) < 0).astype(np.int8)
        self.positive = self.side[self.u] == self.side[self.v]
        self.ones = int(np.count_nonzero(self.side))
        self.flipped = int(np.count_nonzero(self.positive != self.kept))
        self._restart()

    def move(self, members: np.ndarray, cut: np.ndarray, b: int) -> None:
        """State *b* moved S = *members* to the other class, so exactly
        the edges *cut* = δ(S) changed sign; each is rechecked against
        its endpoints' new sides."""
        was = self.side[members]
        # +1 leaving class 1, -1 leaving class 0.
        leaving = 2 * was.astype(np.int64) - 1
        for acc, gain0, gain1 in self._gains():
            acc[members] += leaving * (gain1 - gain0)
        self.side[members] = 1 - was
        self.ones += len(members) - 2 * int(np.count_nonzero(was))

        cloud, elapsed = self.cloud, self.states
        positive = self.positive[cut]
        cloud._edge_coside[cut] += np.where(positive, elapsed, -elapsed)
        cloud._edge_preserved[cut] += np.where(
            positive == self.kept[cut], elapsed, -elapsed
        )
        now = ~positive
        self.positive[cut] = now
        self.flipped += len(cut) - 2 * int(
            np.count_nonzero(now == self.kept[cut])
        )
        side = self.side
        if np.any(now != (side[self.u[cut]] == side[self.v[cut]])):
            raise NotBalancedError(
                f"state {self.first + b} is not balanced under its sides: "
                "a swap's cut edges disagree with their endpoints"
            )

    def close_state(self) -> None:
        """Count the state just completed."""
        ones = self.ones
        zeros = len(self.side) - ones
        self.wins[0] += zeros > ones
        self.wins[1] += ones > zeros
        self.ties += ones == zeros
        self.sizes[0] += zeros
        self.sizes[1] += ones
        self.states += 1
        self.flips.append(self.flipped)

    def flush(self, b: int) -> None:
        """Charge every entry its current value over the interval since
        the base, up to state *b* (exclusive), after checking every
        edge's sign against its endpoints' sides.  The fold keeps no
        per-state history, so a failure names the interval's states,
        not the first bad one."""
        side = self.side
        if not np.array_equal(self.positive, side[self.u] == side[self.v]):
            last = self.first + b - 1
            raise NotBalancedError(
                f"states {last - self.states + 1}..{last} are not all "
                "balanced under their sides: an edge's sign disagrees "
                "with its endpoints at the flush"
            )
        for acc, gain0, gain1 in self._gains():
            acc += float(gain1 - gain0) * side + float(gain0)
        cloud, elapsed = self.cloud, self.states
        cloud._edge_coside += self.positive * elapsed
        cloud._edge_preserved += (self.positive == self.kept) * elapsed
        cloud._ties += self.ties
        self._restart()


def sample_cloud(
    graph: SignedGraph,
    num_states: int,
    method: str = "bfs",
    seed: SeedLike = None,
    store_states: bool = False,
    batch_size: int | str = 1,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    keep_checkpoints: int = 1,
    swaps_per_state: int = 1,
    graph_store=None,
) -> FrustrationCloud:
    """Alg. 2: sample ``num_states`` spanning trees, balance each, and
    accumulate the Harary bipartitions into a cloud.

    This is the one campaign driver
    (:func:`repro.parallel.pool.run_campaign`) at one worker, in this
    process.  The engine stacks its own chunks of trees (the batched
    BFS sampler for ``method="bfs"``, which writes each tree's
    sign-to-root as it goes); each chunk's balanced signs are one
    gather off those rows, the Harary sides come off them in O(n) per
    state, and the chunk folds into the cloud with matrix reductions
    (see :func:`balanced_states`).  No per-tree cycle kernel runs: the
    state every kernel would reach on a tree is a function of its
    sign-to-root vector.  ``batch_size`` (a positive int or ``"auto"``)
    is accepted and ignored: the chunking never changed a result, and
    the engine now picks it.

    ``method="swap"`` runs the incremental swap-chain engine
    (:mod:`repro.trees.swap_chain`): tree ``k+1`` is derived from tree
    ``k`` by ``swaps_per_state`` cut/link edge swaps, and both the
    balanced signs and the Harary sides are read straight off the
    chain's delta state — no labeling pass, no parity kernel.  Swap
    clouds are deterministic in the seed but do not estimate the BFS
    cloud.  ``bfs`` estimates the cloud over randomized-BFS trees (the
    paper's Alg. 2), ``wilson`` the all-trees cloud over uniform
    spanning trees.  The chain's stationary law is uniform too, but
    each segment starts from a fresh BFS tree and makes one swap per
    state, far fewer than the chain needs to mix on a large graph, so
    a swap cloud lies between the two, with correlated states; see
    EXPERIMENTS.md.

    ``checkpoint_path`` writes a self-describing crash-safe checkpoint
    (atomic write, rotating ``keep_checkpoints`` files) every
    ``checkpoint_every`` states and once at the end, embedding the
    campaign parameters so :func:`repro.cloud.checkpoint.resume_cloud`
    can validate a later resume against them.  ``graph_store`` (a path
    or an open :class:`~repro.graph.store.GraphStore` holding *graph*)
    is recorded in that metadata, so resumes can cross-check the store.
    """
    from repro.parallel.pool import accept_batch_size, run_campaign

    if num_states < 0:
        raise ReproError(f"num_states must be non-negative, got {num_states}")
    accept_batch_size(batch_size)
    cloud = run_campaign(
        graph, num_states, method=method, seed=freeze_seed(seed),
        store_states=store_states,
        swaps_per_state=swaps_per_state, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints, graph_store=graph_store,
    )
    if checkpoint_path is None:
        # Only a checkpointed campaign pins its parameters for
        # resume_cloud.
        del cloud.campaign_meta
    return cloud


def exact_cloud(graph: SignedGraph, root: int = 0) -> FrustrationCloud:
    """The exhaustive cloud over *all* spanning trees (tiny graphs only).

    This is how the Fig. 1–3 anchors are computed: 8 trees for the
    example Σ, 5 unique states, status 6/8 for the best-placed vertex.
    """
    cloud = FrustrationCloud(graph, store_states=True)
    for tree in all_spanning_trees(graph, root=root):
        result = balance(graph, tree, kernel="lockstep")
        cloud.add_result(result)
    return cloud
