"""Process-pool cloud sampling — real cross-tree parallelism.

The simplest parallelization of Alg. 2 runs different trees on
different workers (§3.3's opening observation).  This driver does that
over the package's one block executor (:mod:`repro.parallel.
supervisor`): each worker builds and balances a block of tree indices
(:class:`CampaignTask`), accumulates a local :class:`FrustrationCloud`,
and the parent merges the per-block clouds in sorted block order.
Every campaign — fresh, work-stealing, swap or resumed — is cut by one
planner (:func:`plan_blocks`) into contiguous step-1 blocks, so the
merge replays the sequential :func:`repro.cloud.sample_cloud` for the
same seed byte for byte, flip-count log included (tested), because
:class:`TreeSampler` hands out tree *i* deterministically.

The graph reaches each worker exactly once, through the executor's
*initializer*, and blocks travel as three integers ``(start, stop,
step)`` — never a materialized index list.  The graph slot those
initializers fill lives here.  Two initializers exist: the legacy one
ships a pickle of the graph per worker process, and the zero-copy one
(``graph_store=...``) ships only a path to a packed
:class:`~repro.graph.store.GraphStore` file that every worker reopens
as read-only ``np.memmap`` views — N workers then share one page-cache
copy of the graph, and pool rebuilds cost a header read instead of a
re-pickle.  Either way the worker slot records the graph's content
fingerprint, and every task carries the campaign's expected
fingerprint, so a stale slot (executor reuse after degradation, a
rebuilt pool, a swapped store file) is detected — and, for
store-backed workers, healed by reopening the mapping — instead of
silently computing against the wrong graph.  Within a worker, each
block stacks ``batch_size`` trees per chunk into shared vectorized
kernels.

Work-stealing: without ``steal_chunks`` there is one contiguous block
per worker; ``steal_chunks=K`` cuts the campaign into K finer ones
(pick ``K ≈ 4–8× workers``) that feed the executor's shared queue.
Idle workers pull the next block the moment they finish one, so a
straggler block delays only itself instead of serializing the whole
tail.  The
executor journals which worker ran each block and a ``steal_summary``
event with the per-worker block/state tallies, so imbalance is visible
after the fact.

Crash safety: when ``checkpoint_path`` is given and a block crashes,
the parent salvages every block that *did* complete into an atomic
checkpoint whose campaign metadata records exactly which
``(start, stop, step)`` blocks it contains; ``resume_from`` later
plans blocks over only the missing indices and merges them in, so a
crashed campaign loses at most the in-flight blocks.  Sequential
:func:`~repro.cloud.checkpoint.resume_cloud` refuses such salvage
checkpoints (they are not a contiguous prefix of the campaign).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cloud import FrustrationCloud, ingest_states
from repro.errors import CheckpointError, EngineError, SupervisorError
from repro.graph.csr import SignedGraph
from repro.graph.store import GraphStore, graph_fingerprint
from repro.parallel.supervisor import (
    BlockTask,
    CampaignSupervisor,
    RetryPolicy,
)
from repro.perf.flight import install_flight_recorder, set_flight_recorder
from repro.perf.journal import journal_event
from repro.perf.registry import collecting, get_registry
from repro.perf.tracing import set_trace_collector, span
from repro.rng import SeedLike, freeze_seed
from repro.trees.sampler import TreeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = ["sample_cloud_pool"]

Block = Tuple[int, int, int]
StoreLike = Union[str, "Path", GraphStore]

#: The ladder of an unsupervised campaign (``policy=None``): one
#: attempt per block, no in-process fallback — a failed block fails the
#: campaign after the completed ones are salvaged.
_NO_RETRY = RetryPolicy(max_retries=0, degrade=False)

# Per-process graph slot, populated once by an executor initializer so
# submitted tasks don't each re-ship the (potentially large) graph.
# The fingerprint makes the slot verifiable: every task carries the
# campaign's expected fingerprint, so a stale slot never silently
# serves the wrong graph.  _WORKER_STORE remembers the backing store
# path (when there is one) so a stale store-backed slot can heal
# itself by reopening the mapping.
_WORKER_GRAPH: SignedGraph | None = None
_WORKER_FINGERPRINT: str | None = None
_WORKER_STORE: str | None = None


def _init_worker_flight(flight_dir: str | None) -> None:
    """Reset fork-inherited observability state and arm the worker's
    flight recorder when the campaign asked for one.

    Fork-start workers inherit the parent's trace collector and flight
    recorder by memory copy; both are the *parent's* identity (its
    dump path, its in-memory event sink) and must not be trusted here.
    """
    set_trace_collector(None)
    set_flight_recorder(None)
    if flight_dir is not None:
        install_flight_recorder(flight_dir, role="pool-worker")


def _init_worker(
    graph: SignedGraph,
    fingerprint: str | None = None,
    flight_dir: str | None = None,
) -> None:
    """Legacy initializer: install a pickled graph in the worker slot."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _init_worker_flight(flight_dir)
    _WORKER_GRAPH = graph
    _WORKER_FINGERPRINT = (
        fingerprint if fingerprint is not None else graph_fingerprint(graph)
    )
    _WORKER_STORE = None


def _init_worker_store(
    path: str,
    fingerprint: str | None = None,
    flight_dir: str | None = None,
) -> None:
    """Zero-copy initializer: map the packed graph store read-only.

    The arrays are ``np.memmap`` views, so every worker on the machine
    shares one page-cache copy of the graph; only the path and the
    expected fingerprint cross the process boundary.
    """
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _init_worker_flight(flight_dir)
    store = GraphStore.open(path)
    if fingerprint is not None and store.fingerprint != fingerprint:
        raise EngineError(
            f"graph store {path} holds fingerprint "
            f"{store.fingerprint[:12]}..., campaign expects "
            f"{fingerprint[:12]}... (was the store repacked mid-campaign?)"
        )
    _WORKER_GRAPH = store.graph()
    _WORKER_FINGERPRINT = store.fingerprint
    _WORKER_STORE = str(path)


def _reset_worker_slot() -> None:
    """Clear the per-process graph slot (parent-side before in-process
    or degraded execution, and tests) so stale state cannot leak into a
    later campaign that reuses this process."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _WORKER_GRAPH = None
    _WORKER_FINGERPRINT = None
    _WORKER_STORE = None


def _worker_graph(fingerprint: str | None) -> SignedGraph:
    """The worker-slot graph, fingerprint-checked against the task.

    A store-backed slot that is empty or stale heals itself by
    reopening the mapping; a pickle-backed mismatch is unrecoverable in
    the worker and raises (the parent's rebuild ladder takes over).
    """
    global _WORKER_GRAPH, _WORKER_FINGERPRINT
    if _WORKER_GRAPH is not None and (
        fingerprint is None or fingerprint == _WORKER_FINGERPRINT
    ):
        return _WORKER_GRAPH
    if _WORKER_STORE is not None:
        store = GraphStore.open(_WORKER_STORE)
        if fingerprint is not None and store.fingerprint != fingerprint:
            raise EngineError(
                f"graph store {_WORKER_STORE} holds fingerprint "
                f"{store.fingerprint[:12]}..., task expects "
                f"{fingerprint[:12]}..."
            )
        _WORKER_GRAPH = store.graph()
        _WORKER_FINGERPRINT = store.fingerprint
        return _WORKER_GRAPH
    if _WORKER_GRAPH is None:
        raise EngineError("worker process has no graph; initializer missing")
    raise EngineError(
        f"worker graph slot is stale: holds fingerprint "
        f"{(_WORKER_FINGERPRINT or 'unknown')[:12]}..., task expects "
        f"{(fingerprint or 'unknown')[:12]}..."
    )


@dataclass(frozen=True)
class CampaignTask(BlockTask):
    """Balance the tree indices ``range(*block)`` and return the local
    cloud — the block task of every cloud campaign (the pool driver
    here and serve growth).  Pure compute: the executor's envelope
    (:mod:`repro.parallel.supervisor`) adds the span, metrics window,
    flight marks and trace shard around it."""

    method: str
    seed: int
    store_states: bool
    batch_size: int
    swaps_per_state: int = 1

    def sampler(self, graph: SignedGraph) -> TreeSampler:
        """The campaign's tree sampler over *graph*."""
        return TreeSampler(
            graph, method=self.method, seed=self.seed,
            swaps_per_state=self.swaps_per_state,
        )

    def __call__(self, graph: SignedGraph, block: Block) -> FrustrationCloud:
        sampler = self.sampler(graph)
        cloud = FrustrationCloud(graph, store_states=self.store_states)
        # Chain states are pure functions of (seed, index), so any
        # block shape is correct; a swap block enters the chain at its
        # segment and walks it forward in chunks.
        for _folded in ingest_states(
            cloud, sampler, range(*block), batch_size=self.batch_size,
        ):
            pass
        # Counted inside the envelope's detached window, so the block's
        # state count travels with its snapshot through salvage and
        # resume.
        get_registry().count("cloud.states_total", cloud.num_states)
        return cloud

    def journal_fields(self, block: Block, cloud: FrustrationCloud) -> dict:
        """The block's state count and, for swap blocks, the chain
        segment its start index enters at."""
        fields = {"states": cloud.num_states}
        if self.method == "swap":
            chain = self.sampler(cloud.graph).swap_chain()
            fields["chain_segment_start"] = chain.segment_base(block[0])
        return fields


def _block_len(block: Block) -> int:
    return len(range(*block))


def _contiguous_blocks(target: int, pieces: int) -> list[Block]:
    """Split ``[0, target)`` into up to *pieces* contiguous step-1
    blocks of near-equal size (the planner's no-done-blocks case)."""
    pieces = min(pieces, target)
    blocks: list[Block] = []
    lo = 0
    for w in range(pieces):
        hi = lo + (target - lo) // (pieces - w)
        if hi > lo:
            blocks.append((lo, hi, 1))
        lo = hi
    return blocks


def _uncovered_runs(
    done: Sequence[Block], target: int
) -> list[tuple[int, int]]:
    """The maximal runs of ``[0, target)`` no *done* block covers.

    Step-1 rows cost O(1) each; strided rows (salvage checkpoints of
    older versions) are expanded index by index.
    """
    covered = sorted(
        run
        for start, stop, step in done
        for run in (
            [(start, stop)] if step == 1
            else [(i, i + 1) for i in range(start, min(stop, target), step)]
        )
    )
    runs: list[tuple[int, int]] = []
    lo = 0
    for start, stop in covered:
        start = min(start, target)
        if start > lo:
            runs.append((lo, start))
        lo = max(lo, stop)
    if lo < target:
        runs.append((lo, target))
    return runs


def plan_blocks(
    done: Sequence[Block], target: int, pieces: int
) -> list[Block]:
    """Cut the indices of ``[0, target)`` no *done* block covers into
    *pieces* near-equal contiguous step-1 blocks, in index order.

    The uncovered indices are cut as if they were one range (so with
    nothing done this is :func:`_contiguous_blocks`), and a piece that
    would span a covered index is split there instead.  Contiguous
    blocks merged in index order reproduce the sequential campaign's
    flip-count log, and keep each swap block's chain replay to at most
    ``segment_length - 1`` states.
    """
    runs = _uncovered_runs(done, target)
    blocks: list[Block] = []
    run, offset = 0, 0  # the run holding virtual index `offset`
    for lo, hi, _step in _contiguous_blocks(
        sum(stop - start for start, stop in runs), pieces
    ):
        while lo < hi:
            start, stop = runs[run]
            size = stop - start
            take = min(hi, offset + size)
            blocks.append((start + lo - offset, start + take - offset, 1))
            lo = take
            if take == offset + size:
                run, offset = run + 1, offset + size
    return blocks


def sample_cloud_pool(
    graph: SignedGraph,
    num_states: int,
    workers: int = 2,
    method: str = "bfs",
    seed: SeedLike = 0,
    store_states: bool = False,
    batch_size: int = 1,
    checkpoint_path=None,
    keep_checkpoints: int = 1,
    resume_from=None,
    fault: Callable[[Block], None] | None = None,
    policy: "RetryPolicy | None" = None,
    swaps_per_state: int = 1,
    graph_store: StoreLike | None = None,
    steal_chunks: int | None = None,
    flight_dir: str | None = None,
) -> FrustrationCloud:
    """Alg. 2 with tree-level process parallelism.

    Equivalent to ``sample_cloud(graph, num_states, method, seed)``,
    byte for byte (with ``store_states``, a resume that fills a hole in
    a salvage checkpoint lists the hole's newly seen unique states
    last).  ``workers=1`` runs in-process without spawning.
    ``batch_size`` sets how many trees each worker stacks per chunk.

    ``checkpoint_path`` writes a self-describing checkpoint when the
    campaign completes — and, if a block crashes mid-campaign (or the
    campaign is interrupted), a *salvage* checkpoint holding every block
    that did complete (the raised :class:`~repro.errors.EngineError`
    names it; a :class:`KeyboardInterrupt` is re-raised unchanged after
    the salvage is written).  ``resume_from`` loads such a checkpoint
    (falling back through its rotation backups), validates the campaign
    parameters against the stored metadata, reruns only the missing
    indices, and merges.  *fault* is a fault-injection hook for
    the crash tests (see :class:`repro.util.faults.WorkerCrash`); it is
    invoked in the worker with each ``(start, stop, step)`` block
    before processing.

    Every campaign runs on the supervisor's ladder
    (:mod:`repro.parallel.supervisor`).  ``policy=None`` is the no-retry
    ladder — one attempt per block, and a crashed block raises the
    salvage :class:`~repro.errors.EngineError` above (after a hard
    worker death the innocent in-flight blocks still complete and are
    salvaged).  A :class:`~repro.parallel.supervisor.RetryPolicy` makes
    the campaign self-healing: failed blocks are retried with backoff,
    hung blocks are timed out and their workers killed, a broken pool
    is rebuilt, stubborn blocks degrade to in-process execution, poison
    blocks are quarantined instead of sinking the campaign, and a
    campaign ``deadline`` checkpoints and stops cleanly.  The structured
    :class:`~repro.parallel.supervisor.RunReport` is attached to the
    returned cloud as ``cloud.run_report``.  When blocks were
    quarantined or abandoned to the deadline, the returned cloud holds
    fewer than ``num_states`` states and its checkpoint records
    ``done_blocks`` (and the quarantined blocks), so ``resume_from``
    re-attempts exactly the missing work.

    ``graph_store`` (a path or an open
    :class:`~repro.graph.store.GraphStore`) switches the pool to the
    zero-copy initializer: workers map the packed store file read-only
    instead of receiving a pickled graph, sharing one page-cache copy
    machine-wide.  The store's fingerprint must match *graph* (which is
    still used for the parent-side merge and checkpointing) — pass
    ``store.graph()`` as *graph* to guarantee it.

    The campaign (or, on resume, its missing indices) is cut into one
    contiguous block per worker.  ``steal_chunks=K`` enables
    work-stealing: K finer contiguous blocks (recommend ``4–8 ×
    workers``) feed the executor's shared queue, so idle workers
    immediately pull the next block and stragglers delay only
    themselves.  Results stay bit-identical to the sequential campaign
    either way — blocks merge in sorted index order regardless of which
    worker ran them.

    ``flight_dir`` arms a crash flight recorder in every worker process
    (and uses the parent's, if one is installed, for in-process
    blocks): each block dumps ``flight-<pid>.json`` there before it
    starts, so a killed worker leaves a readable record naming its
    in-flight block (see :mod:`repro.perf.flight`).

    When a trace collector is installed in the parent
    (:func:`~repro.perf.tracing.collecting_trace` / ``--trace-out``),
    the campaign's trace context rides every task payload; workers
    ship their spans back as bounded shards with each block, and
    the parent stitches them — rebased onto its own clock, under the
    same trace_id — into one causal tree across all paths (pool,
    steal, degraded, salvage, resume).
    """
    from repro.cloud.checkpoint import (
        CampaignMeta,
        recover_cloud,
        save_cloud,
        validate_campaign,
    )

    if num_states < 1:
        raise EngineError("num_states must be positive")
    if workers < 1:
        raise EngineError("workers must be positive")
    if batch_size < 1:
        raise EngineError("batch_size must be positive")
    if swaps_per_state < 1:
        raise EngineError("swaps_per_state must be positive")
    if steal_chunks is not None and steal_chunks < 1:
        raise EngineError("steal_chunks must be positive")
    frozen = freeze_seed(seed)
    fingerprint = graph_fingerprint(graph)

    store: GraphStore | None = None
    if graph_store is not None:
        with span("store_open"):
            store = (
                graph_store
                if isinstance(graph_store, GraphStore)
                else GraphStore.open(graph_store)
            )
            if store.fingerprint != fingerprint:
                raise EngineError(
                    f"graph store {store.path} holds a different graph "
                    f"(fingerprint {store.fingerprint[:12]}...) than the "
                    "one passed to sample_cloud_pool; pass store.graph() "
                    "to guarantee agreement"
                )

    base: FrustrationCloud | None = None
    prior_blocks: tuple[Block, ...] = ()
    if resume_from is not None:
        base, meta, _source = recover_cloud(resume_from, graph)
        if meta is not None:
            validate_campaign(
                meta,
                method=method,
                seed=frozen,
                batch_size=batch_size,
                store_states=store_states,
                swaps_per_state=swaps_per_state,
            )
            recorded = meta.graph_store
            if recorded is not None and os.path.exists(recorded):
                # The original campaign ran against a packed store; if
                # it is still around, its header must describe the same
                # graph we are about to continue with (a repacked store
                # means someone changed the graph under the campaign).
                if GraphStore.read_header(recorded).fingerprint != fingerprint:
                    raise CheckpointError(
                        f"checkpoint records graph store {recorded}, whose "
                        "current contents hold a different graph "
                        "(fingerprint mismatch); refusing to resume "
                        "against it"
                    )
        prior_blocks = (
            meta.done_blocks if meta is not None else None
        ) or ((0, base.num_states, 1),)
    blocks = plan_blocks(prior_blocks, num_states, steal_chunks or workers)

    campaign = CampaignMeta(
        method=method,
        seed=frozen,
        batch_size=batch_size,
        store_states=store_states,
        swaps_per_state=swaps_per_state,
        graph_store=str(store.path) if store is not None else None,
    )
    base_states = base.num_states if base is not None else 0
    expected = base_states + sum(_block_len(b) for b in blocks)
    if expected != num_states:
        raise CheckpointError(
            f"resume accounting mismatch: checkpoint holds {base_states} "
            f"states and {sum(_block_len(b) for b in blocks)} remain, but "
            f"the target is {num_states} (was the checkpoint produced by a "
            "larger campaign?)"
        )

    def _finalize(cloud: FrustrationCloud) -> FrustrationCloud:
        cloud.metrics = get_registry().snapshot()
        if checkpoint_path is not None:
            save_cloud(
                cloud, checkpoint_path, campaign=campaign,
                keep=keep_checkpoints,
            )
        cloud.campaign_meta = campaign
        return cloud

    def _merge_completed(
        completed: list[tuple[Block, FrustrationCloud]],
    ) -> FrustrationCloud:
        """Fold completed block clouds into the resume base in sorted
        block order — the order is what makes a healed campaign
        bit-identical to a fault-free one.  The resume base's restored
        metrics snapshot is folded into the active registry once (the
        executor already absorbed every block's)."""
        merged = (
            base
            if base is not None
            else FrustrationCloud(graph, store_states=store_states)
        )
        snap = getattr(merged, "metrics", None)
        if snap:
            get_registry().merge_snapshot(snap)
            merged.metrics = None
        ordered = sorted(completed, key=lambda pair: pair[0][0])
        for _block, local in ordered:
            merged.merge(local)
        if base is not None and ordered:
            # The base lists its states' flip counts in index order,
            # holes and all; keep the merged log in index order too, so
            # filling a hole reproduces the sequential log.
            index = np.concatenate([
                np.unique(np.concatenate([
                    np.arange(s, min(e, num_states), st)
                    for s, e, st in prior_blocks
                ])),
                *(np.arange(*block) for block, _c in ordered),
            ])
            merged.reorder_flip_counts(np.argsort(index, kind="stable"))
        return merged

    def _partial_campaign(
        done: Sequence[Block],
        quarantined: tuple[Block, ...] | None = None,
    ) -> CampaignMeta:
        return dataclasses.replace(
            campaign,
            done_blocks=tuple(sorted(prior_blocks + tuple(done))),
            quarantined_blocks=quarantined,
        )

    def _salvage(
        completed: list[tuple[Block, FrustrationCloud]],
    ) -> FrustrationCloud | None:
        """Checkpoint every completed block (plus the resume base) with
        its ``done_blocks`` recorded; returns the salvage cloud, or
        ``None`` when there is nothing to save or nowhere to put it."""
        if checkpoint_path is None or not (completed or base is not None):
            return None
        salvage = _merge_completed(completed)
        salvage.metrics = get_registry().snapshot()
        save_cloud(
            salvage,
            checkpoint_path,
            campaign=_partial_campaign(tuple(b for b, _c in completed)),
            keep=keep_checkpoints,
        )
        journal_event(
            "salvage_written",
            blocks=len(completed),
            states=salvage.num_states,
            path=str(checkpoint_path),
        )
        return salvage

    journal_event(
        "campaign_started",
        driver="pool",
        num_states=num_states,
        workers=workers,
        method=method,
        seed=frozen,
        batch_size=batch_size,
        swaps_per_state=swaps_per_state,
        resumed_states=base_states,
        blocks=len(blocks),
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        graph_store=str(store.path) if store is not None else None,
        steal_chunks=steal_chunks,
    )

    def _campaign() -> FrustrationCloud:
        if not blocks:
            return _finalize(base)
        task = CampaignTask(
            method=method, seed=frozen, store_states=store_states,
            batch_size=batch_size, swaps_per_state=swaps_per_state,
        )
        supervisor = CampaignSupervisor(
            graph, blocks, task, seed=frozen, workers=workers,
            policy=policy if policy is not None else _NO_RETRY,
            fault=fault, graph_store=store, flight_dir=flight_dir,
        )
        try:
            completed, report = supervisor.run()
        except BaseException:
            # An interrupt (parent-side ^C, or one raised by a block):
            # the ladder consumes block faults, so anything escaping is
            # a stop request — salvage and re-raise unchanged.
            _salvage(supervisor.completed)
            raise
        if report.ok:
            result = _finalize(_merge_completed(completed))
            if policy is not None:
                result.run_report = report
            return result
        if policy is None:
            # No-retry contract: a crashed block fails the campaign,
            # after every completed block is salvaged for resume_from.
            failed = min(report.quarantined, key=lambda q: q["block"])
            detail = f"pool block {failed['block']} crashed: {failed['error']}"
            salvage = _salvage(completed)
            if salvage is not None:
                raise EngineError(
                    f"{detail}; salvaged {len(completed)} completed "
                    f"block(s) ({salvage.num_states} states) to "
                    f"{checkpoint_path} — finish with "
                    "sample_cloud_pool(..., resume_from=...)"
                )
            raise EngineError(detail)
        # Quarantined or deadline-abandoned blocks: return the partial
        # cloud with done_blocks (and the quarantine list) checkpointed
        # and recorded, so resume_from re-attempts exactly the rest.
        merged = _merge_completed(completed)
        if merged.num_states == 0:
            raise SupervisorError(
                f"supervised campaign produced no states ({report.summary()})",
                report=report,
            )
        meta = _partial_campaign(
            tuple(b for b, _c in completed),
            report.quarantined_blocks or None,
        )
        if checkpoint_path is not None:
            merged.metrics = get_registry().snapshot()
            save_cloud(
                merged, checkpoint_path, campaign=meta, keep=keep_checkpoints
            )
        merged.campaign_meta = meta
        merged.run_report = report
        return merged

    with collecting() as metrics, span("campaign"):
        cloud = _campaign()
    journal_event(
        "campaign_completed", driver="pool", states=cloud.num_states
    )
    # The campaign window (worker snapshots merged in, plus the closed
    # campaign span) supersedes whatever _finalize embedded in the
    # checkpoint moments earlier.
    snap = metrics.snapshot()
    cloud.metrics = snap
    report = getattr(cloud, "run_report", None)
    if report is not None:
        report.metrics = snap
    return cloud
