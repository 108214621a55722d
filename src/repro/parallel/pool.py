"""Process-pool cloud sampling — real cross-tree parallelism.

The simplest parallelization of Alg. 2 runs different trees on
different workers (§3.3's opening observation).  This driver does that
with a :class:`concurrent.futures.ProcessPoolExecutor`: each worker
builds and balances a block of tree indices, accumulates a local
:class:`FrustrationCloud`, and the parent merges the per-worker
clouds — producing results equivalent to the sequential
:func:`repro.cloud.sample_cloud` for the same seed (tested), because
:class:`TreeSampler` hands out tree *i* deterministically.

The graph reaches each worker exactly once, through the executor's
*initializer*, and blocks travel as three integers ``(start, stop,
step)`` — never a materialized index list.  Two initializers exist:
the legacy one ships a pickle of the graph per worker process, and the
zero-copy one (``graph_store=...``) ships only a path to a packed
:class:`~repro.graph.store.GraphStore` file that every worker reopens
as read-only ``np.memmap`` views — N workers then share one page-cache
copy of the graph, and pool rebuilds cost a header read instead of a
re-pickle.  Either way the worker slot records the graph's content
fingerprint, and every task carries the campaign's expected
fingerprint, so a stale slot (executor reuse after degradation, a
rebuilt pool, a swapped store file) is detected — and, for
store-backed workers, healed by reopening the mapping — instead of
silently computing against the wrong graph.  Within a worker,
``batch_size > 1`` runs the tree-batched engine on each block,
stacking the worker's trees into shared vectorized kernels.

Work-stealing: ``steal_chunks=K`` splits the campaign into K fine
contiguous blocks (pick ``K ≈ 4–8× workers``) that all enter the
executor's shared task queue up front; idle workers pull the next
block the moment they finish one, so a straggler block delays only
itself instead of serializing the whole tail the way a static
one-block-per-worker split does.  The parent journals which worker ran
each block and a ``steal_summary`` event with the per-worker block/
state tallies, so imbalance is visible after the fact.

Crash safety: when ``checkpoint_path`` is given and a worker dies, the
parent salvages every block that *did* complete into an atomic
checkpoint whose campaign metadata records exactly which
``(start, stop, step)`` blocks it contains; ``resume_from`` later
reruns only the missing indices and merges them in, so a crashed
campaign loses at most the in-flight blocks.  Sequential
:func:`~repro.cloud.checkpoint.resume_cloud` refuses such salvage
checkpoints (they are not a contiguous prefix of the campaign).

On this reproduction's single-core container the pool adds overhead
rather than speed; the value here is the verified-deterministic
parallel dataflow a multi-core deployment would use as-is.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING, Callable, Sequence, Tuple, Union

import numpy as np

from repro.cloud.cloud import (
    FrustrationCloud,
    balanced_states,
    check_batched_kernel,
)
from repro.errors import CheckpointError, EngineError, SupervisorError
from repro.graph.csr import SignedGraph
from repro.graph.store import GraphStore, graph_fingerprint
from repro.harary.bipartition import sides_from_sign_to_root
from repro.perf.flight import (
    get_flight_recorder,
    install_flight_recorder,
    set_flight_recorder,
)
from repro.perf.journal import journal_event
from repro.perf.registry import collecting, get_registry
from repro.perf.tracectx import (
    TraceContext,
    current_trace,
    pop_trace,
    push_trace,
)
from repro.perf.tracing import (
    TraceCollector,
    absorb_shard,
    collector_shard,
    get_trace_collector,
    set_trace_collector,
    span,
)
from repro.rng import SeedLike, freeze_seed
from repro.trees.sampler import TreeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.parallel.supervisor import RetryPolicy

__all__ = ["sample_cloud_pool"]

Block = Tuple[int, int, int]
StoreLike = Union[str, "Path", GraphStore]

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


#: Bound on the span events one block shard ships back with its cloud
#: (a straggler block can close thousands of tree_sample spans; the
#: shard keeps the first N and counts the rest as dropped).
_SHARD_MAX_EVENTS = 512


def _init_worker_flight(flight_dir: str | None) -> None:
    """Reset fork-inherited observability state and arm the worker's
    flight recorder when the campaign asked for one.

    Fork-start workers inherit the parent's trace collector and flight
    recorder by memory copy; both are the *parent's* identity (its
    dump path, its in-memory event sink) and must not be trusted here —
    the collector especially, because a worker only ships a span shard
    when no collector is installed.
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


def _run_block(
    graph: SignedGraph,
    method: str,
    kernel: str,
    seed: int,
    block: Block,
    store_states: bool,
    batch_size: int,
    fault: Callable[[Block], None] | None = None,
    swaps_per_state: int = 1,
    trace: dict | None = None,
) -> FrustrationCloud:
    """Balance the tree indices ``range(*block)`` and return the local
    cloud.  *fault* is the fault-injection hook (see
    :mod:`repro.util.faults`), invoked with the block before any work.

    *trace* is a :meth:`~repro.perf.tracectx.TraceContext.to_dict`
    payload naming the parent span this block hangs under.  In a worker
    process (no trace collector installed) the block records its spans
    into a bounded local collector and ships them back as
    ``cloud.trace_shard``; in the parent (in-process / degraded
    execution) spans chain under the ambient context directly.
    """
    recorder = get_flight_recorder()
    if recorder is not None:
        # Dumped before any work: a SIGKILL mid-block leaves a dump
        # naming exactly this block.
        recorder.mark_inflight(what="block", block=list(block),
                               method=method)
    if fault is not None:
        fault(block)
    indices = range(*block)
    sampler = TreeSampler(
        graph, method=method, seed=seed, swaps_per_state=swaps_per_state
    )
    cloud = FrustrationCloud(graph, store_states=store_states)
    ctx = TraceContext.from_dict(trace) if trace is not None else None
    shard: TraceCollector | None = None
    if ctx is not None and get_trace_collector() is None:
        shard = TraceCollector(_SHARD_MAX_EVENTS)
        set_trace_collector(shard)
    if ctx is not None:
        push_trace(ctx)
    try:
        cloud = _run_block_body(
            graph, kernel, sampler, indices, cloud, batch_size
        )
    finally:
        if ctx is not None:
            pop_trace()
        if shard is not None:
            set_trace_collector(None)
    if shard is not None:
        # Dynamic attribute like `metrics` below: survives pickling, so
        # the parent can stitch the worker's spans into its collector.
        cloud.trace_shard = collector_shard(shard)
    if recorder is not None:
        recorder.clear_inflight(block=list(block), states=cloud.num_states)
    return cloud


def _run_block_body(
    graph: SignedGraph,
    kernel: str,
    sampler: TreeSampler,
    indices: range,
    cloud: FrustrationCloud,
    batch_size: int,
) -> FrustrationCloud:
    """The measured heart of :func:`_run_block` (split out so the trace
    scope installed around it stays readable)."""
    # Detached metrics window: the snapshot rides back with the cloud
    # and the parent merges it exactly once (merge=True here would
    # double-count blocks that degrade to in-process execution).
    with collecting(merge=False) as metrics, span("block"):
        # Chain states are pure functions of (seed, index), so any
        # block shape is correct; a swap block enters the chain at its
        # segment and walks it forward in chunks.
        for signs, s2r in balanced_states(
            graph, sampler, indices, kernel=kernel, batch_size=batch_size
        ):
            with span("harary"):
                cloud.add_batch(signs, sides_from_sign_to_root(s2r))
        # Counted inside the detached window, so the block's state
        # count travels with its snapshot through salvage and resume.
        get_registry().count("cloud.states_total", cloud.num_states)
    cloud.metrics = metrics.snapshot()
    # Which process ran the block: dynamic attributes survive pickling
    # (like `metrics` above), so the parent can attribute every block
    # to a worker for the steal accounting.
    cloud.worker_pid = os.getpid()
    return cloud


def _worker(
    method: str,
    kernel: str,
    seed: int,
    block: Block,
    store_states: bool,
    batch_size: int,
    fault: Callable[[Block], None] | None = None,
    swaps_per_state: int = 1,
    fingerprint: str | None = None,
    trace: dict | None = None,
) -> FrustrationCloud:
    """Pool entry point: run a block against the worker-slot graph
    (fingerprint-checked; see :func:`_worker_graph`)."""
    graph = _worker_graph(fingerprint)
    return _run_block(
        graph, method, kernel, seed, block, store_states,
        batch_size, fault, swaps_per_state, trace,
    )


def _absorb_metrics(local: FrustrationCloud) -> None:
    """Fold a block cloud's metrics snapshot — and its span shard, when
    the parent is collecting a trace — into the active registry/
    collector, exactly once (both are cleared after merging, so
    re-merging a cloud — e.g. salvage followed by resume — is a
    no-op)."""
    snap = getattr(local, "metrics", None)
    if snap:
        get_registry().merge_snapshot(snap)
        local.metrics = None
    shard = getattr(local, "trace_shard", None)
    if shard:
        collector = get_trace_collector()
        if collector is not None:
            absorb_shard(collector, shard)
        local.trace_shard = None


def _merge_intervals(done: Sequence[Block]) -> list[tuple[int, int]]:
    intervals = sorted((s, e) for s, e, _ in done)
    merged: list[tuple[int, int]] = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _compress_runs(indices: np.ndarray) -> list[Block]:
    """Greedily compress a sorted index array into arithmetic blocks."""
    blocks: list[Block] = []
    i, n = 0, len(indices)
    while i < n:
        if i == n - 1:
            blocks.append((int(indices[i]), int(indices[i]) + 1, 1))
            break
        step = int(indices[i + 1] - indices[i])
        j = i + 1
        while j + 1 < n and int(indices[j + 1] - indices[j]) == step:
            j += 1
        blocks.append((int(indices[i]), int(indices[j]) + 1, step))
        i = j + 1
    return blocks


def _remaining_blocks(
    done: Sequence[Block], target: int, workers: int
) -> list[Block]:
    """The campaign indices of ``[0, target)`` not covered by *done*,
    as ``(start, stop, step)`` blocks ready to hand to workers.

    Fast paths keep the common shapes compact: no prior work (fresh
    strided split), a contiguous prefix (strided tail), and
    same-stride salvage blocks (per-residue tails).  Anything else
    falls back to materializing the remaining set once in the parent
    and compressing it into arithmetic runs.
    """
    target = int(target)
    done = [
        (int(s), int(e), int(st)) for s, e, st in done if int(e) > int(s)
    ]
    if not done:
        return [(w, target, workers) for w in range(min(workers, target))]
    steps = {st for _s, _e, st in done}
    if steps == {1}:
        merged = _merge_intervals(done)
        if len(merged) == 1 and merged[0][0] == 0:
            start = min(merged[0][1], target)
            return [
                (start + w, target, workers)
                for w in range(min(workers, target - start))
            ]
    elif len(steps) == 1:
        stride = steps.pop()
        stops: dict[int, int] = {}
        for s, e, _st in done:
            r = s % stride
            stops[r] = max(stops.get(r, 0), e)
        remaining: list[Block] = []
        for r in range(stride):
            if r in stops:
                behind = max(stops[r] - r, 0)
                nxt = r + stride * ((behind + stride - 1) // stride)
            else:
                nxt = r
            if nxt < target:
                remaining.append((nxt, target, stride))
        return remaining
    covered = np.zeros(target, dtype=bool)
    for s, e, st in done:
        covered[s:e:st] = True
    return _compress_runs(np.nonzero(~covered)[0])


def _block_len(block: Block) -> int:
    return len(range(*block))


def _contiguous_blocks(target: int, workers: int) -> list[Block]:
    """Split ``[0, target)`` into up to *workers* contiguous step-1
    blocks of near-equal size.

    The strided split is pathological for the swap chain: a stride-w
    block touches every w-th index, and reaching index ``k`` means
    walking the chain through all of ``k``'s segment predecessors — so
    each worker would replay almost the whole chain.  Contiguous blocks
    keep the replay to at most ``segment_length - 1`` states per block.
    """
    workers = min(workers, target)
    blocks: list[Block] = []
    lo = 0
    for w in range(workers):
        hi = lo + (target - lo) // (workers - w)
        if hi > lo:
            blocks.append((lo, hi, 1))
        lo = hi
    return blocks


def _split_blocks(blocks: Sequence[Block], num_chunks: int) -> list[Block]:
    """Subdivide *blocks* into about *num_chunks* same-stride pieces.

    Used by the work-stealing path on resume: the remaining blocks
    (arbitrary strides from a salvage checkpoint) are split
    proportionally to their index counts so the executor queue holds
    fine-grained work.  Zero-length inputs are dropped, never emitted.
    """
    blocks = [b for b in blocks if _block_len(b) > 0]
    total = sum(_block_len(b) for b in blocks)
    if total == 0 or num_chunks <= len(blocks):
        return list(blocks)
    out: list[Block] = []
    for start, _stop, step in blocks:
        n = _block_len((start, _stop, step))
        share = max(1, round(num_chunks * n / total))
        lo = 0
        for w in range(share):
            hi = lo + (n - lo) // (share - w)
            if hi > lo:
                out.append((start + lo * step, start + hi * step, step))
            lo = hi
    return out


def _chain_segment_start(index: int, segment_length: int = 256) -> int:
    """The swap-chain segment start covering *index* (recorded on block
    journal events so operators can see a block's chain entry point)."""
    return index - index % segment_length


def sample_cloud_pool(
    graph: SignedGraph,
    num_states: int,
    workers: int = 2,
    method: str = "bfs",
    kernel: str = "lockstep",
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

    Equivalent to ``sample_cloud(graph, num_states, method, kernel,
    seed)`` up to the (unordered) flip-count log.  ``workers=1`` runs
    in-process without spawning.  ``batch_size > 1`` additionally runs
    the tree-batched engine inside each worker.

    ``checkpoint_path`` writes a self-describing checkpoint when the
    campaign completes — and, if a worker crashes mid-campaign (or the
    parent is interrupted), a *salvage* checkpoint holding every block
    that did complete (the raised :class:`~repro.errors.EngineError`
    names it; a :class:`KeyboardInterrupt` is re-raised unchanged after
    the salvage is written).  ``resume_from`` loads such a checkpoint
    (falling back through its rotation backups), validates the campaign
    parameters against the stored metadata, reruns only the missing
    index blocks, and merges.  *fault* is a fault-injection hook for
    the crash tests (see :class:`repro.util.faults.WorkerCrash`); it is
    invoked in the worker with each ``(start, stop, step)`` block
    before processing.

    ``policy`` enables the self-healing supervisor
    (:mod:`repro.parallel.supervisor`): failed blocks are retried with
    backoff, hung blocks are timed out and their workers killed, a
    broken pool is rebuilt, stubborn blocks degrade to in-process
    execution, poison blocks are quarantined instead of sinking the
    campaign, and a campaign ``deadline`` checkpoints and stops
    cleanly.  The structured :class:`~repro.parallel.supervisor.
    RunReport` is attached to the returned cloud as
    ``cloud.run_report``.  When blocks were quarantined or abandoned to
    the deadline, the returned cloud holds fewer than ``num_states``
    states and its checkpoint records ``done_blocks`` (and the
    quarantined blocks), so ``resume_from`` re-attempts exactly the
    missing work.

    ``graph_store`` (a path or an open
    :class:`~repro.graph.store.GraphStore`) switches the pool to the
    zero-copy initializer: workers map the packed store file read-only
    instead of receiving a pickled graph, sharing one page-cache copy
    machine-wide.  The store's fingerprint must match *graph* (which is
    still used for the parent-side merge and checkpointing) — pass
    ``store.graph()`` as *graph* to guarantee it.

    ``steal_chunks=K`` enables work-stealing: the campaign is split
    into K fine contiguous blocks (recommend ``4–8 × workers``) that
    feed the executor's shared queue, so idle workers immediately pull
    the next block and stragglers delay only themselves.  Results stay
    bit-identical to the sequential campaign — blocks merge in sorted
    index order regardless of which worker ran them.

    ``flight_dir`` arms a crash flight recorder in every worker process
    (and uses the parent's, if one is installed, for in-process
    blocks): each block dumps ``flight-<pid>.json`` there before it
    starts, so a killed worker leaves a readable record naming its
    in-flight block (see :mod:`repro.perf.flight`).

    When a trace collector is installed in the parent
    (:func:`~repro.perf.tracing.collecting_trace` / ``--trace-out``),
    the campaign's trace context rides every task payload; workers
    ship their spans back as bounded shards on the block clouds, and
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
    check_batched_kernel(method, kernel, batch_size)
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
                kernel=kernel,
                seed=frozen,
                batch_size=batch_size,
                store_states=store_states,
                swaps_per_state=swaps_per_state,
            )
            prior_blocks = meta.done_blocks or ((0, base.num_states, 1),)
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
        else:
            prior_blocks = ((0, base.num_states, 1),)
        blocks = _remaining_blocks(prior_blocks, num_states, workers)
        if steal_chunks is not None:
            blocks = _split_blocks(blocks, steal_chunks)
    elif steal_chunks is not None:
        # Work-stealing: many fine contiguous blocks feed the shared
        # executor queue; contiguous also keeps swap-chain replay
        # bounded (see _contiguous_blocks).
        blocks = _contiguous_blocks(num_states, steal_chunks)
    elif method == "swap":
        # Contiguous partition: strided blocks would make every swap
        # worker replay nearly the whole chain (see _contiguous_blocks).
        blocks = _contiguous_blocks(num_states, workers)
    else:
        blocks = _remaining_blocks((), num_states, workers)

    campaign = CampaignMeta(
        method=method,
        kernel=kernel,
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
        bit-identical to a fault-free one.  Each block's metrics
        snapshot (and the resume base's restored one) is folded into
        the active registry on the way through."""
        merged = (
            base
            if base is not None
            else FrustrationCloud(graph, store_states=store_states)
        )
        _absorb_metrics(merged)
        for _block, local in sorted(completed, key=lambda pair: pair[0][0]):
            merged.merge(local)
            _absorb_metrics(local)
        return merged

    def _partial_campaign(
        done: Sequence[Block],
        quarantined: tuple[Block, ...] | None = None,
    ) -> CampaignMeta:
        return CampaignMeta(
            method=method,
            kernel=kernel,
            seed=frozen,
            batch_size=batch_size,
            store_states=store_states,
            swaps_per_state=swaps_per_state,
            graph_store=str(store.path) if store is not None else None,
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
        kernel=kernel,
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

    def _block_event(name: str, block: Block, **extra) -> None:
        """Journal a block event, tagging swap blocks with the chain
        segment their start index enters at."""
        if method == "swap":
            extra["chain_segment_start"] = _chain_segment_start(block[0])
        journal_event(
            name, block=block[0], stop=block[1], step=block[2], **extra
        )

    def _campaign() -> FrustrationCloud:
        if not blocks:
            return _finalize(base)

        if policy is not None:
            return _run_supervised_campaign(
                graph, blocks, workers=workers, method=method, kernel=kernel,
                frozen=frozen, store_states=store_states,
                batch_size=batch_size, swaps_per_state=swaps_per_state,
                policy=policy, fault=fault, finalize=_finalize,
                merge_completed=_merge_completed, salvage=_salvage,
                partial_campaign=_partial_campaign,
                checkpoint_path=checkpoint_path,
                keep_checkpoints=keep_checkpoints,
                graph_store=store,
                flight_dir=flight_dir,
            )

        if workers == 1 or len(blocks) == 1:
            # The in-process path never touches the worker slot, but a
            # slot populated by an earlier campaign in this process
            # must not leak into whatever runs here next.
            _reset_worker_slot()
            merged = (
                base
                if base is not None
                else FrustrationCloud(graph, store_states=store_states)
            )
            done: list[tuple[Block, FrustrationCloud]] = []
            block = blocks[0]
            try:
                _absorb_metrics(merged)
                for block in blocks:
                    local = _run_block(
                        graph, method, kernel, frozen, block, store_states,
                        batch_size, fault, swaps_per_state,
                    )
                    done.append((block, local))
                    _block_event(
                        "block_completed", block, states=local.num_states,
                        worker=getattr(local, "worker_pid", None),
                    )
                    merged.merge(local)
                    _absorb_metrics(local)
            except BaseException as exc:
                # Salvage exactly like the pool path: every block that
                # completed before the crash (or interrupt) is
                # checkpointed, so the campaign loses only the in-flight
                # block.  KeyboardInterrupt and kin re-raise unchanged.
                salvaged = None
                if checkpoint_path is not None and (
                    done or base is not None
                ):
                    merged.metrics = get_registry().snapshot()
                    save_cloud(
                        merged,
                        checkpoint_path,
                        campaign=_partial_campaign(
                            tuple(b for b, _c in done)
                        ),
                        keep=keep_checkpoints,
                    )
                    journal_event(
                        "salvage_written",
                        blocks=len(done),
                        states=merged.num_states,
                        path=str(checkpoint_path),
                    )
                    salvaged = merged
                if not isinstance(exc, Exception):
                    raise
                detail = (
                    f"in-process block {block} crashed: "
                    f"{type(exc).__name__}: {exc}"
                )
                if salvaged is not None:
                    raise EngineError(
                        f"{detail}; salvaged {len(done)} completed "
                        f"block(s) ({salvaged.num_states} states) to "
                        f"{checkpoint_path} — finish with "
                        "sample_cloud_pool(..., resume_from=...)"
                    ) from exc
                raise EngineError(detail) from exc
            return _finalize(merged)

        completed: list[tuple[Block, FrustrationCloud]] = []
        failures: list[tuple[Block, BaseException]] = []
        if store is not None:
            initializer, initargs = (
                _init_worker_store,
                (str(store.path), store.fingerprint, flight_dir),
            )
        else:
            initializer, initargs = (
                _init_worker, (graph, fingerprint, flight_dir),
            )
        # The campaign span's context (when a collector is installed)
        # is what every worker's block span chains under.
        ctx = current_trace()
        trace = ctx.to_dict() if ctx is not None else None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = {
                pool.submit(
                    _worker, method, kernel, frozen, block, store_states,
                    batch_size, fault, swaps_per_state, fingerprint, trace,
                ): block
                for block in blocks
            }
            try:
                for future in as_completed(futures):
                    block = futures[future]
                    try:
                        completed.append((block, future.result()))
                        _block_event(
                            "block_completed", block,
                            states=completed[-1][1].num_states,
                            worker=getattr(
                                completed[-1][1], "worker_pid", None
                            ),
                        )
                    except Exception as exc:
                        failures.append((block, exc))
                        _block_event(
                            "block_failed", block,
                            error=f"{type(exc).__name__}: {exc}",
                        )
            except BaseException:
                # A KeyboardInterrupt (parent-side ^C, or one shipped
                # back from a worker) bypasses the Exception handler
                # above.  Without this, every completed block would be
                # lost: write the salvage checkpoint, then re-raise
                # unchanged.
                pool.shutdown(wait=False, cancel_futures=True)
                _salvage(completed)
                raise

        if failures:
            failures.sort(key=lambda pair: pair[0][0])
            block, exc = failures[0]
            detail = (
                f"pool worker crashed on block {block}: "
                f"{type(exc).__name__}: {exc}"
            )
            salvage = _salvage(completed)
            if salvage is not None:
                raise EngineError(
                    f"{detail}; salvaged {len(completed)} completed "
                    f"block(s) ({salvage.num_states} states) to "
                    f"{checkpoint_path} — finish with "
                    "sample_cloud_pool(..., resume_from=...)"
                ) from exc
            raise EngineError(detail) from exc

        _steal_summary(completed, workers)
        return _finalize(_merge_completed(completed))

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


def _steal_summary(
    completed: Sequence[tuple[Block, FrustrationCloud]], workers: int
) -> None:
    """Journal the per-worker block/state tallies of a pool campaign
    and gauge the imbalance, so operators can see the dynamic schedule
    work-stealing actually produced."""
    per_worker: dict[int, list[int]] = {}
    for block, local in completed:
        pid = getattr(local, "worker_pid", None)
        if pid is None:
            continue
        tally = per_worker.setdefault(int(pid), [0, 0])
        tally[0] += 1
        tally[1] += _block_len(block)
    if not per_worker:
        return
    blocks_per_worker = [t[0] for t in per_worker.values()]
    registry = get_registry()
    registry.gauge("pool.workers_used", float(len(per_worker)))
    registry.gauge("pool.steal_max_blocks", float(max(blocks_per_worker)))
    registry.gauge("pool.steal_min_blocks", float(min(blocks_per_worker)))
    journal_event(
        "steal_summary",
        workers=workers,
        workers_used=len(per_worker),
        blocks={str(pid): t[0] for pid, t in sorted(per_worker.items())},
        states={str(pid): t[1] for pid, t in sorted(per_worker.items())},
    )


def _run_supervised_campaign(
    graph: SignedGraph,
    blocks: Sequence[Block],
    *,
    workers: int,
    method: str,
    kernel: str,
    frozen: int,
    store_states: bool,
    batch_size: int,
    swaps_per_state: int,
    policy,
    fault,
    finalize,
    merge_completed,
    salvage,
    partial_campaign,
    checkpoint_path,
    keep_checkpoints: int,
    graph_store: GraphStore | None = None,
    flight_dir: str | None = None,
) -> FrustrationCloud:
    """Drive *blocks* through the self-healing supervisor and shape the
    outcome back into :func:`sample_cloud_pool`'s contract.

    A fully-healed campaign finalizes exactly like an unfaulted one (so
    the result is bit-identical).  A campaign with quarantined or
    deadline-abandoned blocks returns the partial cloud with
    ``done_blocks`` (and the quarantine list) checkpointed and recorded
    in ``campaign_meta`` so ``resume_from`` re-attempts precisely the
    missing work.  Either way the :class:`~repro.parallel.supervisor.
    RunReport` rides along as ``cloud.run_report``.
    """
    from repro.cloud.checkpoint import save_cloud
    from repro.parallel.supervisor import CampaignSupervisor

    supervisor = CampaignSupervisor(
        graph, blocks, method=method, kernel=kernel, seed=frozen,
        store_states=store_states, batch_size=batch_size, workers=workers,
        policy=policy, fault=fault, swaps_per_state=swaps_per_state,
        graph_store=graph_store, flight_dir=flight_dir,
    )
    try:
        completed, report = supervisor.run()
    except BaseException:
        # Parent-side interrupt: the ladder consumes block faults, so
        # anything escaping is a stop request — salvage and re-raise.
        salvage(supervisor.completed)
        raise
    if report.ok:
        result = finalize(merge_completed(completed))
        result.run_report = report
        return result
    merged = merge_completed(completed)
    if merged.num_states == 0:
        raise SupervisorError(
            f"supervised campaign produced no states ({report.summary()})",
            report=report,
        )
    meta = partial_campaign(
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
