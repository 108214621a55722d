"""The one campaign driver, and process-pool cloud sampling.

The simplest parallelization of Alg. 2 runs different trees on
different workers (§3.3's opening observation).  :func:`run_campaign`,
behind every cloud campaign, does that over the package's one block
executor (:mod:`repro.parallel.supervisor`): one planner
(:func:`plan_blocks`) cuts the campaign into contiguous step-1 blocks,
each is balanced into a local :class:`FrustrationCloud`
(:class:`CampaignTask`), and the parent merges each completed block
into one running cloud exactly once.  :class:`TreeSampler` hands out
tree *i* deterministically and the accumulators are exact integers,
so a campaign of any worker count writes the sequential checkpoint
byte for byte (tested).

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
block stacks its trees in the engine's chunks, and its cloud travels
back without the graph, which the parent already holds.

Work-stealing: without ``steal_chunks`` there is one contiguous block
per worker; ``steal_chunks=K`` cuts the campaign into K finer ones
(pick ``K ≈ 4–8× workers``) that feed the executor's shared queue.
Idle workers pull the next block the moment they finish one, so a
straggler block delays only itself instead of serializing the whole
tail.  The
executor journals which worker ran each block and a ``steal_summary``
event with the per-worker block/state tallies, so imbalance is visible
after the fact.

Crash safety: ``checkpoint_every=k`` caps blocks at k states and
checkpoints the running cloud each time k more have merged, at any
worker count.  When a block crashes (or the campaign is interrupted),
the parent salvages every block that *did* complete into an atomic
checkpoint whose campaign metadata records exactly which
``(start, stop, step)`` blocks it contains; a resume —
``resume_from``, ``resume_cloud`` or ``repro cloud --resume`` — later
plans blocks over only the missing indices and merges them in, so a
crashed campaign loses at most the in-flight blocks.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
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
from repro.perf.flight import install_flight_recorder
from repro.perf.journal import events_enabled, journal_event, reset_sinks
from repro.perf.registry import collecting, get_registry
from repro.perf.tracing import span
from repro.rng import SeedLike, freeze_seed
from repro.trees.sampler import TreeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.cloud.checkpoint import CampaignMeta

__all__ = ["run_campaign", "sample_cloud_pool"]

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


def _init_worker_process(flight_dir: str | None) -> None:
    """Reset fork-inherited observability state, arm the worker's
    flight recorder when the campaign asked for one, and tie the
    worker's life to its parent's.

    Fork-start workers inherit the parent's event sinks (its journal,
    its trace collector, its flight recorder) by memory copy; they are
    the *parent's* identity and must not be written from here.  Outside
    a child process (an initializer called in-process, as the tests do)
    there is nothing inherited to drop and no parent to outlive, so it
    does nothing.
    """
    if multiprocessing.parent_process() is None:
        return
    reset_sinks()
    if flight_dir is not None:
        install_flight_recorder(flight_dir, role="pool-worker")
    _exit_with_parent()


def _exit_with_parent() -> None:
    """Start a daemon thread that ends this process once its parent is
    gone (the parent pid changes when it dies), so a SIGKILLed campaign
    or daemon leaves no orphaned workers.  Polling, once a second, not
    ``PR_SET_PDEATHSIG``: that fires when the forking *thread* exits,
    and request threads can start a daemon's pool."""
    parent = os.getppid()

    def _watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=_watch, name="repro-parent-watch",
                     daemon=True).start()


def _init_worker(
    graph: SignedGraph,
    fingerprint: str | None = None,
    flight_dir: str | None = None,
) -> None:
    """Legacy initializer: install a pickled graph in the worker slot."""
    global _WORKER_GRAPH, _WORKER_FINGERPRINT, _WORKER_STORE
    _init_worker_process(flight_dir)
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
    _init_worker_process(flight_dir)
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
    cloud — the block task of every cloud campaign (the one driver,
    :func:`run_campaign`, and serve growth).  Pure compute: the
    executor's envelope (:mod:`repro.parallel.supervisor`) adds the
    span, metrics window, flight marks and trace shard around it."""

    method: str
    seed: int
    store_states: bool
    swaps_per_state: int = 1

    def sampler(self, graph: SignedGraph) -> TreeSampler:
        """The campaign's tree sampler over *graph*.  This task object
        keeps it between blocks, so consecutive in-process blocks of a
        swap campaign walk on along the chain instead of replaying its
        segment; it never travels to a pool worker."""
        sampler = self.__dict__.get("_sampler")
        if sampler is None or sampler.graph is not graph:
            sampler = TreeSampler(
                graph, method=self.method, seed=self.seed,
                swaps_per_state=self.swaps_per_state,
            )
            object.__setattr__(self, "_sampler", sampler)
        return sampler

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_sampler"}

    def __call__(self, graph: SignedGraph, block: Block) -> FrustrationCloud:
        sampler = self.sampler(graph)
        cloud = FrustrationCloud(graph, store_states=self.store_states)
        # Chain states are pure functions of (seed, index), so any
        # block shape is correct; a swap block enters the chain at its
        # segment and walks it forward in chunks.
        for _folded in ingest_states(cloud, sampler, range(*block)):
            pass
        # Counted inside the envelope's detached window, so the block's
        # state count travels with its snapshot through salvage and
        # resume.
        get_registry().count("cloud.states_total", cloud.num_states)
        return cloud

    def pack(self, cloud: FrustrationCloud) -> FrustrationCloud:
        cloud.graph = None  # the parent holds it; most of the pickle
        return cloud

    def unpack(self, graph: SignedGraph, cloud: FrustrationCloud):
        cloud.graph = graph
        return cloud

    def journal_fields(self, block: Block, cloud: FrustrationCloud) -> dict:
        """The block's state count and, for swap blocks, the chain
        segment its start index enters at."""
        fields = {"states": cloud.num_states}
        if self.method == "swap":
            chain = self.sampler(cloud.graph).swap_chain()
            fields["chain_segment_start"] = chain.segment_base(block[0])
        return fields


def accept_batch_size(batch_size) -> None:
    """Campaigns accept and ignore ``batch_size`` (the engine picks its
    chunks); a value no earlier release accepted still raises."""
    if not (batch_size in (None, "auto") or (
        isinstance(batch_size, (int, np.integer))
        and not isinstance(batch_size, bool) and batch_size >= 1
    )):
        raise EngineError("batch_size must be a positive int or 'auto'")


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
    done: Sequence[Block], target: int, pieces: int, most: int = 0
) -> list[Block]:
    """Cut the indices of ``[0, target)`` no *done* block covers into
    *pieces* near-equal contiguous step-1 blocks, in index order.

    The uncovered indices are cut as if they were one range (so with
    nothing done this is :func:`_contiguous_blocks`), and a piece that
    would span a covered index is split there instead.  ``most > 0``
    adds pieces until none holds more than *most* states (the
    campaign's ``checkpoint_every``, so checkpoints fall on block
    boundaries).  Contiguous blocks keep each swap block's chain
    replay to at most ``segment_length - 1`` states.
    """
    runs = _uncovered_runs(done, target)
    total = sum(stop - start for start, stop in runs)
    if most > 0:
        pieces = max(pieces, -(-total // most))
    blocks: list[Block] = []
    run, offset = 0, 0  # the run holding virtual index `offset`
    for lo, hi, _step in _contiguous_blocks(total, pieces):
        while lo < hi:
            start, stop = runs[run]
            size = stop - start
            take = min(hi, offset + size)
            blocks.append((start + lo - offset, start + take - offset, 1))
            lo = take
            if take == offset + size:
                run, offset = run + 1, offset + size
    return blocks


@dataclass
class _RunningCloud:
    """A campaign's one running cloud and its checkpoint.

    Each completed block is merged in exactly once, in completion
    order (:meth:`fold`); the cloud's accumulators are sums, so the
    order moves no bit.  Every checkpoint — periodic, final, salvage
    or partial — is one :meth:`write`."""

    cloud: FrustrationCloud
    campaign: "CampaignMeta"
    path: object = None
    every: int = 0
    keep: int = 1
    #: Blocks the cloud holds, in merge order.
    done: list = field(default_factory=list)
    since: int = 0  # states merged since the last periodic write
    ran: int = 0  # blocks this run completed

    def fold(self, block: Block, local: FrustrationCloud) -> None:
        """Merge one completed block; journal a convergence snapshot
        and write a periodic checkpoint when one is due."""
        if self.cloud.num_states or self.done:
            self.cloud.merge(local)
        else:
            # A fresh campaign's first block becomes the running cloud:
            # no O(n + m) merge into zeros.
            self.cloud = local
        self.done.append(block)
        self.since += local.num_states
        self.ran += 1
        if events_enabled():
            journal_event(
                "convergence",
                states=self.cloud.num_states,
                frustration_upper_bound=self.cloud.frustration_upper_bound(),
            )
        if self.path is not None and 0 < self.every <= self.since:
            self.write(partial=False)

    def write(
        self, partial: bool, quarantined: tuple | None = None
    ) -> "CampaignMeta":
        """Checkpoint the running cloud (when there is a path) and
        return its campaign metadata.  A periodic or final write whose
        blocks are exactly ``[0, num_states)`` records no
        ``done_blocks``; salvage and partial writes always list them."""
        from repro.cloud.checkpoint import save_cloud

        meta = self.campaign
        if partial or _uncovered_runs(self.done, self.cloud.num_states):
            meta = dataclasses.replace(
                meta, done_blocks=tuple(sorted(self.done)),
                quarantined_blocks=quarantined,
            )
        if self.path is not None:
            self.cloud.metrics = get_registry().snapshot()
            save_cloud(self.cloud, self.path, campaign=meta, keep=self.keep)
        self.since = 0
        return meta

    def salvage(self) -> bool:
        """Write every merged block with its ``done_blocks``; False when
        there is nothing to save or nowhere to put it."""
        if self.path is None or not self.done:
            return False
        self.write(partial=True)
        journal_event(
            "salvage_written", blocks=self.ran, states=self.cloud.num_states,
            path=str(self.path),
        )
        return True


def run_campaign(
    graph: SignedGraph,
    num_states: int,
    *,
    workers: int = 1,
    method: str | None = None,
    seed: SeedLike = None,
    store_states: bool | None = None,
    swaps_per_state: int | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    keep_checkpoints: int = 1,
    resume_from=None,
    fault: Callable[[Block], None] | None = None,
    policy: "RetryPolicy | None" = None,
    graph_store: StoreLike | None = None,
    steal_chunks: int | None = None,
    flight_dir: str | None = None,
) -> FrustrationCloud:
    """The one campaign driver: Alg. 2 over ``num_states`` tree indices,
    cut by :func:`plan_blocks` and run on the supervisor's ladder.

    :func:`~repro.cloud.cloud.sample_cloud` is this driver at one
    worker, :func:`~repro.cloud.checkpoint.resume_cloud` is it resuming
    a loaded cloud, :func:`sample_cloud_pool` is it at any worker count,
    and ``repro cloud`` calls it directly.  Every worker count gives
    ``sample_cloud(graph, num_states, method, seed)`` byte for byte,
    checkpoint included; ``workers=1`` runs in-process without
    spawning.  Campaign parameters (``method``, ``seed``,
    ``store_states``, ``swaps_per_state``) left ``None`` inherit the
    stored campaign on resume and take the defaults (``bfs``, seed 0,
    no stored states, one swap per state) otherwise; explicit ones are
    validated against the stored campaign
    (:func:`~repro.cloud.checkpoint.validate_campaign`).  Each block
    stacks its trees in chunks the engine picks, which move no bits.

    ``checkpoint_path`` writes a self-describing checkpoint when the
    campaign completes and, with ``checkpoint_every=k``, each time k
    more states have merged (the campaign is then cut into blocks of at
    most k states, so every worker count checkpoints on block
    boundaries).  If a block crashes mid-campaign (or the campaign is
    interrupted), a *salvage* checkpoint holds every block that did
    complete (the raised :class:`~repro.errors.EngineError` names it; a
    :class:`KeyboardInterrupt` is re-raised unchanged after the salvage
    is written).  A checkpoint whose blocks are not one prefix of the
    campaign records them as ``done_blocks``.  ``resume_from`` loads a
    checkpoint (falling back through its rotation backups) or takes a
    loaded cloud, validates the campaign parameters against the stored
    metadata, reruns only the missing indices, and merges (a loaded
    cloud is extended in place).  *fault* is a fault-injection hook for
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
    either way — the merged cloud's accumulators are exact integer
    sums, so neither the grouping nor the order of merges moves a bit.

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
        validate_campaign,
    )

    if num_states < 0:
        raise EngineError(f"num_states must be non-negative, got {num_states}")
    if workers < 1:
        raise EngineError("workers must be positive")
    if steal_chunks is not None and steal_chunks < 1:
        raise EngineError("steal_chunks must be positive")
    base, stored = None, None
    if isinstance(resume_from, FrustrationCloud):
        base, stored = resume_from, getattr(resume_from, "campaign_meta", None)
        graph = base.graph
    elif resume_from is not None:
        base, stored, _source = recover_cloud(resume_from, graph)
    if store_states is None and base is not None:
        store_states = base.store_states
    params = validate_campaign(
        stored, method=method,
        seed=None if seed is None else freeze_seed(seed),
        store_states=store_states, swaps_per_state=swaps_per_state,
    )
    task = CampaignTask(**params)
    task.sampler(graph)  # rejects an unknown method or swaps_per_state < 1

    store: GraphStore | None = None
    if graph_store is not None:
        with span("store_open"):
            store = (
                graph_store
                if isinstance(graph_store, GraphStore)
                else GraphStore.open(graph_store)
            )
    prior: tuple[Block, ...] = ()
    if base is not None:
        prior = (stored.done_blocks if stored is not None else None) or (
            (0, base.num_states, 1),
        )
    blocks = plan_blocks(
        prior, num_states, steal_chunks or workers, checkpoint_every
    )
    base_states = base.num_states if base is not None else 0
    remaining = sum(len(range(*b)) for b in blocks)
    if base_states + remaining != num_states:
        raise CheckpointError(
            f"resume accounting mismatch: checkpoint holds {base_states} "
            f"states and {remaining} remain, but the target is "
            f"{num_states} (was the checkpoint produced by a larger "
            "campaign?)"
        )

    # Hash the graph only when something checks it: pool workers, a
    # store, or a resume whose recorded store is still around.
    recorded = stored.graph_store if stored is not None else None
    if recorded is not None and not os.path.exists(recorded):
        recorded = None
    fingerprint = None
    if store is not None or recorded is not None or (
        workers > 1 and len(blocks) > 1
    ):
        fingerprint = graph_fingerprint(graph)
    if store is not None and store.fingerprint != fingerprint:
        raise EngineError(
            f"graph store {store.path} holds a different graph "
            f"(fingerprint {store.fingerprint[:12]}...) than the one "
            "passed to the campaign; pass store.graph() to guarantee "
            "agreement"
        )
    if recorded is not None and (
        GraphStore.read_header(recorded).fingerprint != fingerprint
    ):
        # A repacked store means someone changed the graph under the
        # campaign.
        raise CheckpointError(
            f"checkpoint records graph store {recorded}, whose current "
            "contents hold a different graph (fingerprint mismatch); "
            "refusing to resume against it"
        )

    running = _RunningCloud(
        base if base is not None
        else FrustrationCloud(graph, store_states=task.store_states),
        CampaignMeta(
            **params,
            graph_store=str(store.path) if store is not None else None,
        ),
        checkpoint_path, checkpoint_every, keep_checkpoints, list(prior),
    )
    driver = "sequential" if workers == 1 else "pool"
    journal_event(
        "campaign_started",
        driver=driver,
        num_states=num_states,
        workers=workers,
        method=task.method,
        seed=task.seed,
        swaps_per_state=task.swaps_per_state,
        resumed_states=base_states,
        blocks=len(blocks),
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        graph_store=running.campaign.graph_store,
        steal_chunks=steal_chunks,
    )
    report = None
    with collecting() as metrics, span("campaign"):
        # A resume base's restored metrics join this campaign's window
        # once; every block's snapshot is absorbed by the executor.
        get_registry().merge_snapshot(getattr(base, "metrics", None))
        if base is not None:
            base.metrics = None
        if blocks:
            supervisor = CampaignSupervisor(
                graph, blocks, task, seed=task.seed, workers=workers,
                policy=policy if policy is not None else _NO_RETRY,
                fault=fault, graph_store=store, flight_dir=flight_dir,
                on_complete=running.fold,
            )
            try:
                _blocks, report = supervisor.run()
            except BaseException:
                # An interrupt (parent-side ^C, or one raised by a
                # block): the ladder consumes block faults, so anything
                # escaping is a stop request — salvage, re-raise as is.
                running.salvage()
                raise
        cloud = running.cloud
        if report is None or report.ok:
            cloud.campaign_meta = running.write(partial=False)
        elif policy is None:
            # No-retry contract: a crashed block fails the campaign,
            # after every completed block is salvaged for resume_from.
            failed = min(report.quarantined, key=lambda q: q["block"])
            detail = f"pool block {failed['block']} crashed: {failed['error']}"
            if running.salvage():
                raise EngineError(
                    f"{detail}; salvaged {running.ran} completed block(s) "
                    f"({cloud.num_states} states) to {checkpoint_path} — "
                    "finish with sample_cloud_pool(..., resume_from=...)"
                )
            raise EngineError(detail)
        elif cloud.num_states == 0:
            raise SupervisorError(
                f"supervised campaign produced no states ({report.summary()})",
                report=report,
            )
        else:
            # Quarantined or deadline-abandoned blocks: the partial
            # cloud records done_blocks (and the quarantine list), so
            # resume_from re-attempts exactly the rest.
            cloud.campaign_meta = running.write(
                partial=True, quarantined=report.quarantined_blocks or None
            )
    journal_event("campaign_completed", driver=driver, states=cloud.num_states)
    # The closed campaign window supersedes what the checkpoint embedded.
    cloud.metrics = metrics.snapshot()
    if policy is not None and report is not None:
        report.metrics = cloud.metrics
        cloud.run_report = report
    return cloud


def sample_cloud_pool(
    graph: SignedGraph,
    num_states: int,
    workers: int = 2,
    method: str | None = "bfs",
    seed: SeedLike = 0,
    store_states: bool | None = False,
    batch_size: int | str | None = 1,
    checkpoint_path=None,
    keep_checkpoints: int = 1,
    resume_from=None,
    fault: Callable[[Block], None] | None = None,
    policy: "RetryPolicy | None" = None,
    swaps_per_state: int | None = 1,
    graph_store: StoreLike | None = None,
    steal_chunks: int | None = None,
    flight_dir: str | None = None,
    checkpoint_every: int = 0,
) -> FrustrationCloud:
    """Alg. 2 with tree-level process parallelism: :func:`run_campaign`
    at *workers* workers, for a positive ``num_states``.  See
    :func:`run_campaign` for the parameters; ``batch_size`` is accepted
    and ignored (:func:`accept_batch_size`)."""
    if num_states < 1:
        raise EngineError("num_states must be positive")
    accept_batch_size(batch_size)
    return run_campaign(
        graph, num_states, workers=workers, method=method, seed=seed,
        store_states=store_states,
        swaps_per_state=swaps_per_state, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints, resume_from=resume_from,
        fault=fault, policy=policy, graph_store=graph_store,
        steal_chunks=steal_chunks, flight_dir=flight_dir,
    )
