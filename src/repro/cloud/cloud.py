"""Frustration-cloud accumulation (Alg. 2 and §2.2–2.3).

A *frustration cloud* is the multiset of nearest balanced states
reached from sampled (or, for tiny graphs, all) spanning trees.  The
:class:`FrustrationCloud` accumulator consumes one balanced state at a
time and maintains exactly the running statistics the consensus
attributes need — per-vertex majority counts, coalition sizes,
per-edge sign preservation — in O(n + m) memory, so clouds over
thousands of states never store the states themselves (storing unique
states is opt-in for the small-graph experiments that need Fig. 2's
"5 unique states").
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator

import numpy as np

from repro.core.balancer import balance
from repro.core.cycles_vectorized import sign_to_root
from repro.core.parity_batch import balance_batch
from repro.core.state import BalanceResult
from repro.errors import EngineError, NotBalancedError, ReproError
from repro.graph.csr import SignedGraph
from repro.harary.bipartition import (
    HararyBipartition,
    harary_bipartition,
    sides_from_sign_to_root,
)
from repro.perf.compat import Counters, PhaseTimer
from repro.perf.journal import get_journal, journal_event
from repro.perf.registry import collecting, get_registry
from repro.perf.tracing import span
from repro.rng import SeedLike, freeze_seed
from repro.trees.sampler import TreeSampler
from repro.trees.enumeration import all_spanning_trees

__all__ = [
    "FrustrationCloud",
    "balanced_states",
    "sample_cloud",
    "exact_cloud",
    "auto_batch_size",
    "BATCHED_KERNELS",
]

#: Kernels whose balanced states the tree-batched parity engine
#: reproduces bit-for-bit; any other kernel must run with
#: ``batch_size=1`` (requesting it with a batch raises instead of
#: silently substituting a different kernel).
BATCHED_KERNELS = ("lockstep", "parity")


def check_batched_kernel(method: str, kernel: str, batch_size: int) -> None:
    """Raise :class:`~repro.errors.EngineError` for a batch of a kernel
    outside :data:`BATCHED_KERNELS`.  The swap chain runs no kernel, so
    any batch size goes with it."""
    if method != "swap" and batch_size > 1 and kernel not in BATCHED_KERNELS:
        raise EngineError(
            f"kernel {kernel!r} has no batched implementation; use "
            f"batch_size=1 or one of {BATCHED_KERNELS}"
        )


def _no_phase(_name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def balanced_states(
    graph: SignedGraph,
    sampler: TreeSampler,
    indices: range,
    *,
    kernel: str = "lockstep",
    batch_size: int = 1,
    counters: Counters | None = None,
    timers: PhaseTimer | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one state producer behind every campaign driver.

    Yields ``(signs (B, m), s2r (B, n))`` for the tree *indices* in
    order, ``batch_size`` states per chunk: the balanced sign arrays
    and their sign-to-root vectors.  For a balanced state, sign-to-root
    is the switching function whose existence is Harary's balance
    theorem, so drivers read the Harary sides off it in O(n) with
    :func:`~repro.harary.bipartition.sides_from_sign_to_root`.  The
    swap chain and the batched parity engine emit both arrays; the
    per-tree path runs *kernel* on one tree, then one level pass for
    the state's own sign-to-root.  No kernel flips a tree edge, so
    that pass needs no labels: only the ``walk`` kernel still runs
    Alg. 4's labeling, to navigate.  *counters* and *timers* (a legacy
    :class:`~repro.perf.compat.PhaseTimer`) receive the kernels' work
    counts and phases.
    """
    phase = timers.phase if timers is not None else _no_phase
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo : lo + batch_size]
        if sampler.method == "swap":
            with phase("tree_generation"), span("tree_sample"):
                state = sampler.swap_states(chunk)
        elif batch_size > 1:
            with phase("tree_generation"), span("tree_sample"):
                batch = sampler.batch(chunk, counters=counters)
            with phase("cycle_processing"), span("parity_kernel"):
                state = balance_batch(graph, batch, counters=counters)
        else:
            with phase("tree_generation"), span("tree_sample"):
                tree = sampler.tree(chunk[0])
            result = balance(
                graph, tree, kernel=kernel,
                labeling="parallel" if kernel == "walk" else "none",
                counters=counters, timers=timers,
            )
            with phase("harary_and_status"), span("harary"):
                s2r = sign_to_root(graph, tree, signs=result.signs)
            state = result.signs[None, :], s2r[None, :]
        yield state


def auto_batch_size(num_vertices: int) -> int:
    """A good default batch size for a graph of *num_vertices*.

    The batched engine's working set is a handful of ``(B, n)`` arrays;
    states/sec climbs with B until those arrays fall out of cache, then
    falls off a cliff (BENCH_cloud.json: 4000 vertices peaks near B=32,
    12000 vertices is already past the cliff at B=64).  Targeting
    ``B * n ≈ 2**17`` flattened slots keeps the working set around a
    megabyte; the result is clamped to the [8, 64] power-of-two range
    so tiny graphs still amortize per-level overhead and huge graphs
    keep a useful batch.
    """
    if num_vertices < 1:
        raise ReproError("num_vertices must be positive")
    b = 2**17 // max(num_vertices, 1)
    b = max(8, min(64, b))
    # Round down to a power of two (stable, cache-friendly shapes).
    return 1 << (b.bit_length() - 1)


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
    _majority: np.ndarray = field(init=False, repr=False)
    _majority_sq: np.ndarray = field(init=False, repr=False)
    _coalition: np.ndarray = field(init=False, repr=False)
    _edge_preserved: np.ndarray = field(init=False, repr=False)
    _edge_coside: np.ndarray = field(init=False, repr=False)
    _flip_counts: np.ndarray = field(init=False, repr=False)
    _flip_len: int = field(init=False, repr=False)
    _unique: Dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, m = self.graph.num_vertices, self.graph.num_edges
        self._majority = np.zeros(n, dtype=np.float64)
        self._majority_sq = np.zeros(n, dtype=np.float64)
        self._coalition = np.zeros(n, dtype=np.float64)
        self._edge_preserved = np.zeros(m, dtype=np.int64)
        self._edge_coside = np.zeros(m, dtype=np.int64)
        # Flip counts live in a doubling preallocated buffer so batch
        # ingestion and long campaigns never pay per-state list growth.
        self._flip_counts = np.zeros(64, dtype=np.int64)
        self._flip_len = 0
        self._unique = {}

    def _append_flip_counts(self, values: np.ndarray) -> None:
        """Append per-state flip counts, doubling capacity as needed."""
        values = np.asarray(values, dtype=np.int64).ravel()
        need = self._flip_len + len(values)
        if need > len(self._flip_counts):
            capacity = max(len(self._flip_counts), 1)
            while capacity < need:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._flip_len] = self._flip_counts[: self._flip_len]
            self._flip_counts = grown
        self._flip_counts[self._flip_len : need] = values
        self._flip_len = need

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
        n = self.graph.num_vertices

        delta = bip.in_majority()
        self._majority += delta
        self._majority_sq += delta * delta
        size0, size1 = bip.sizes
        side_size = np.where(bip.side == 0, size0, size1).astype(np.float64)
        if n > 1:
            self._coalition += (side_size - 1.0) / (n - 1.0)
        self._edge_preserved += signs == self.graph.edge_sign
        self._edge_coside += (
            bip.side[self.graph.edge_u] == bip.side[self.graph.edge_v]
        )
        self._append_flip_counts(
            np.array([np.count_nonzero(signs != self.graph.edge_sign)])
        )
        if self.store_states:
            key = signs.tobytes()
            self._unique[key] = self._unique.get(key, 0) + 1
        self.num_states += 1
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
            Optional ``(B, n)`` stack of Harary sides matching *signs*
            (e.g. from :func:`~repro.harary.bipartition.sides_from_sign_to_root`
            on the batched parity output).  When omitted, each row goes
            through :meth:`add_signs` and its bipartition oracle.

        The accumulator updates are single ``sum(axis=0)`` reductions
        over the batch, so the cloud after ``add_batch`` is exactly the
        cloud after B sequential :meth:`add_signs` calls in row order.
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

        coside = sides[:, self.graph.edge_u] == sides[:, self.graph.edge_v]
        if np.any((signs > 0) != coside):
            b = int(np.nonzero(((signs > 0) != coside).any(axis=1))[0][0])
            raise NotBalancedError(
                f"state {b} of the batch is not balanced under its sides"
            )

        size1 = sides.sum(axis=1, dtype=np.int64)
        size0 = n - size1
        # majority side per state: 0, 1, or -1 on ties (δ = 0.5 for all).
        maj = np.where(size0 > size1, 0, np.where(size1 > size0, 1, -1))
        delta = (sides == maj[:, None]).astype(np.float64)
        delta[maj == -1] = 0.5
        self._majority += delta.sum(axis=0)
        self._majority_sq += (delta * delta).sum(axis=0)
        if n > 1:
            side_size = np.where(
                sides == 0, size0[:, None], size1[:, None]
            ).astype(np.float64)
            # Accumulate row by row: coalition contributions are inexact
            # fractions, and bit-identity with sequential ingestion
            # requires the same left-to-right addition order (the other
            # accumulators are exact in float64, so batch reductions are
            # order-safe).
            for row in (side_size - 1.0) / (n - 1.0):
                self._coalition += row
        # The check above pins coside == (signs > 0), so one exact
        # column sum of the ±1 signs yields both edge counters: per
        # edge, (B + sum) / 2 states kept it positive (co-side), and a
        # state preserves the input sign iff it kept it at that sign.
        positive = (num_new + signs.sum(axis=0, dtype=np.int64)) // 2
        self._edge_coside += positive
        self._edge_preserved += np.where(
            self.graph.edge_sign > 0, positive, num_new - positive
        )
        self._append_flip_counts(
            (signs != self.graph.edge_sign).sum(axis=1, dtype=np.int64)
        )
        if self.store_states:
            for row in signs:
                key = row.tobytes()
                self._unique[key] = self._unique.get(key, 0) + 1
        self.num_states += num_new

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
        return self._majority / self.num_states

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
        return self._coalition / self.num_states

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
        mean = self._majority / self.num_states
        mean_sq = self._majority_sq / self.num_states
        return np.maximum(mean_sq - mean * mean, 0.0)

    def frustration_upper_bound(self) -> int:
        """Minimum flip count over the sampled states — an upper bound
        on (and for exhaustive clouds, equal to) the frustration index
        L(Σ) *restricted to tree-based nearest states*."""
        self._require_states()
        return int(self._flip_counts[: self._flip_len].min())

    def flip_counts(self) -> np.ndarray:
        """Flip count of every ingested state, in ingestion order."""
        return self._flip_counts[: self._flip_len].copy()

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
        self._majority += other._majority
        self._majority_sq += other._majority_sq
        self._coalition += other._coalition
        self._edge_preserved += other._edge_preserved
        self._edge_coside += other._edge_coside
        self._append_flip_counts(other.flip_counts())
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


def sample_cloud(
    graph: SignedGraph,
    num_states: int,
    method: str = "bfs",
    kernel: str = "lockstep",
    seed: SeedLike = None,
    store_states: bool = False,
    timers: PhaseTimer | None = None,
    batch_size: int | str = 1,
    counters: Counters | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    keep_checkpoints: int = 1,
    swaps_per_state: int = 1,
    graph_store=None,
) -> FrustrationCloud:
    """Alg. 2: sample ``num_states`` spanning trees, balance each, and
    accumulate the Harary bipartitions into a cloud.

    ``graph_store`` (a path or an open
    :class:`~repro.graph.store.GraphStore`) records the packed store
    file the campaign's graph came from in its checkpoint metadata, so
    pool resumes can cross-check the store; the sequential engine
    itself reads *graph* (pass ``store.graph()`` to sample directly
    off the mapping).

    ``batch_size > 1`` switches to the tree-batched engine: each
    iteration samples a batch of trees with the stacked BFS kernels,
    balances all of them with one batched parity pass, derives the
    Harary sides in O(n) per state from the sign-to-root vectors, and
    folds the whole batch into the cloud with matrix reductions.  The
    result is attribute-for-attribute identical to ``batch_size=1``
    with the same seed (the batched sampler is bit-identical per tree
    index); only the per-state timing/counter breakdown differs.
    Neither engine has a labeling phase unless ``kernel="walk"``: both
    yield each state with its sign-to-root vector (see
    :func:`balanced_states`) and read the Harary sides off it in O(n).
    Kernels outside :data:`BATCHED_KERNELS` have no batched
    implementation and raise when requested with a batch.  ``batch_size="auto"`` picks
    :func:`auto_batch_size` for the graph.

    ``method="swap"`` runs the incremental swap-chain engine
    (:mod:`repro.trees.swap_chain`): tree ``k+1`` is derived from tree
    ``k`` by ``swaps_per_state`` cut/link edge swaps, and both the
    balanced signs and the Harary sides are read straight off the
    chain's delta state — no labeling pass, no parity kernel.  Swap
    clouds are deterministic in the seed but *statistically* (not
    bit-for-bit) equivalent to BFS clouds; see EXPERIMENTS.md.

    ``checkpoint_path`` writes a self-describing crash-safe checkpoint
    (atomic write, rotating ``keep_checkpoints`` files) every
    ``checkpoint_every`` states and once at the end, embedding the
    campaign parameters so :func:`repro.cloud.checkpoint.resume_cloud`
    can validate a later resume against them.
    """
    if batch_size == "auto":
        batch_size = auto_batch_size(graph.num_vertices)
    if not isinstance(batch_size, int) or batch_size < 1:
        raise ReproError("batch_size must be a positive int or 'auto'")
    if swaps_per_state < 1:
        raise ReproError("swaps_per_state must be positive")
    check_batched_kernel(method, kernel, batch_size)
    frozen = freeze_seed(seed)
    sampler = TreeSampler(
        graph, method=method, seed=frozen, swaps_per_state=swaps_per_state
    )
    cloud = FrustrationCloud(graph, store_states=store_states)
    # Phase timing flows through the metrics registry spans; a legacy
    # PhaseTimer is honoured when a caller passes one.
    phase = timers.phase if timers is not None else _no_phase
    journal_event(
        "campaign_started",
        driver="sequential",
        num_states=num_states,
        method=method,
        kernel=kernel,
        seed=frozen,
        batch_size=batch_size,
        swaps_per_state=swaps_per_state,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
    )
    # Convergence snapshots: ~16 per campaign, only when journaling.
    snap_every = max(1, num_states // 16)
    writer = None
    if checkpoint_path is not None:
        from repro.cloud.checkpoint import CampaignMeta, CheckpointWriter

        store_path = None
        if graph_store is not None:
            store_path = str(getattr(graph_store, "path", graph_store))
        writer = CheckpointWriter(
            checkpoint_path,
            CampaignMeta(
                method=method,
                kernel=kernel,
                seed=frozen,
                batch_size=batch_size,
                store_states=store_states,
                swaps_per_state=swaps_per_state,
                graph_store=store_path,
            ),
            every=checkpoint_every,
            keep=keep_checkpoints,
        )
    with collecting() as metrics, span("campaign"):
        for signs, s2r in balanced_states(
            graph, sampler, range(num_states), kernel=kernel,
            batch_size=batch_size, counters=counters, timers=timers,
        ):
            with phase("harary_and_status"), span("harary"):
                cloud.add_batch(signs, sides_from_sign_to_root(s2r))
            if writer is not None:
                writer.step(cloud, len(signs))
            # Snapshot when this chunk crossed a multiple of snap_every.
            if (
                get_journal() is not None
                and cloud.num_states % snap_every < len(signs)
            ):
                journal_event(
                    "convergence",
                    states=cloud.num_states,
                    frustration_upper_bound=cloud.frustration_upper_bound(),
                )
        get_registry().count("cloud.states_total", num_states)
    # Attach this campaign's own metrics window before the final
    # checkpoint so the v2 payload can embed it.
    cloud.metrics = metrics.snapshot()
    if writer is not None:
        writer.final(cloud)
        cloud.campaign_meta = writer.campaign
    journal_event(
        "campaign_completed", driver="sequential", states=cloud.num_states
    )
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
