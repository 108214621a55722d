"""The one block executor: every process pool in the package runs
here, under a self-healing fault ladder.

Cloud campaigns (§3.3's trees-on-workers parallelism,
:func:`repro.parallel.pool.sample_cloud_pool`), serve growth rounds
(:mod:`repro.serve.growth`) and balanced-subgraph restarts
(:mod:`repro.balanced.runner`) each hand this module a picklable
:class:`BlockTask` that computes one ``(start, stop, step)`` block.
The executor owns the rest, once for every caller: the graph-slot
initializer (:mod:`repro.parallel.pool`), the worker-side envelope
(flight-recorder in-flight marks, a detached metrics window, a bounded
span shard under the caller's trace context, the worker pid), and the
parent-side absorb of each completed block (metrics and spans folded
in exactly once, a ``block_completed`` journal event, and one
``steal_summary`` per pooled run).  The ladder:

1. **Retry in the pool.**  A block whose worker raises is resubmitted
   up to ``max_retries`` times, after an exponential backoff with
   deterministic jitter (see :meth:`RetryPolicy.backoff_seconds`).
2. **Watchdog timeouts.**  With ``block_timeout`` set, the supervisor's
   wait loop acts as a watchdog over the executor's futures: a block
   that exceeds its wall-clock budget is declared hung, the worker
   processes are terminated (a hung future cannot be cancelled), the
   pool is rebuilt, and innocent in-flight blocks are requeued without
   burning one of their attempts.
3. **Fresh pool after a break.**  ``BrokenProcessPool`` poisons every
   in-flight future without saying *which* block killed the worker, so
   the suspects are re-run one at a time in a fresh pool — an attempt
   is charged only when a block fails alone and the attribution is
   unambiguous.  Innocent suspects complete; the poison block walks its
   own retry ladder.
4. **In-process degradation.**  A block that exhausts its pool retries
   with ordinary exceptions is re-run sequentially in the parent
   process (``degrade=True``), which removes the pool infrastructure —
   pickling, worker state, process scheduling — from the equation.
   Blocks that *hung* or *killed a worker process* never degrade: an
   in-process hang cannot be interrupted and an in-process hard crash
   would take the campaign down with it.
5. **Poison-block quarantine.**  A block that still fails is recorded
   in the :class:`RunReport` and *skipped* — the campaign completes
   with the surviving blocks rather than sinking.  The checkpoint
   records quarantined blocks (they are excluded from ``done_blocks``),
   so a later resume re-attempts exactly them.
6. **Campaign deadline.**  With ``deadline`` set, the supervisor stops
   submitting once the wall-clock budget expires, tears the pool down,
   and hands the completed blocks back for a clean checkpoint — the
   campaign stops on its own terms instead of being killed mid-flight.

With one worker (or one block) the ladder runs in-process, minus the
timeout and degrade rungs.  ``RetryPolicy(max_retries=0,
degrade=False)`` is the no-retry ladder: one attempt per block,
failures quarantined.  Only ``Exception`` is a block fault: a task's
``KeyboardInterrupt`` (or other ``BaseException``) propagates on every
rung, after the blocks harvested so far are recorded, so the caller
can salvage them and re-raise.

Determinism: a block's result depends only on its ``(start, stop,
step)`` indices and the task's parameters (:class:`~repro.trees.
sampler.TreeSampler` hands out tree *i* deterministically), so retries,
pool rebuilds, and in-process degradation cannot change what a block
computes — only *whether* it completes.  The campaign driver merges
blocks into exact integer accumulators and lays the flip-count log out
in index order, so a campaign that heals is bit-identical to one that
never faulted (tested in ``tests/parallel/test_supervisor.py``).

Every fault, retry, backoff, teardown, degradation, and quarantine is
recorded as a :class:`FaultEvent` in the :class:`RunReport`, which
supervised campaigns attach to the returned cloud
(``cloud.run_report``) and which dumps to JSON for operators.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, Tuple

from repro.errors import SupervisorError
from repro.graph.csr import SignedGraph
from repro.perf.flight import get_flight_recorder
from repro.perf.journal import get_journal, journal_event
from repro.perf.registry import collecting, get_registry
from repro.perf.tracectx import TraceContext, current_trace, trace_scope
from repro.perf.tracing import (
    absorb_shard,
    collecting_trace,
    collector_shard,
    get_trace_collector,
    span,
)

__all__ = [
    "BlockTask",
    "RetryPolicy",
    "FaultEvent",
    "RunReport",
    "run_supervised",
]

Block = Tuple[int, int, int]

#: Minimum wait-loop granularity: the supervisor never blocks longer
#: than this without re-checking timeouts, cooled retries, and the
#: campaign deadline.
_TICK = 0.05

#: Bound on the span events one block shard ships back with its result
#: (a straggler block can close thousands of tree_sample spans; the
#: shard keeps the first N and counts the rest as dropped).
_SHARD_MAX_EVENTS = 512


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-handling knobs for a supervised campaign.

    ``max_retries`` counts *re*-attempts: a block is tried at most
    ``max_retries + 1`` times in the pool before it degrades or is
    quarantined.  ``block_timeout`` (seconds, ``None`` = unlimited) is
    each attempt's wall-clock budget; ``deadline`` (seconds, ``None`` =
    unlimited) is the whole campaign's.  The backoff before retry *k*
    (1-based) is ``min(backoff_max, backoff_base * backoff_factor**(k-1))
    * (1 + j)`` where ``j ∈ [0, jitter)`` is deterministic in
    ``(seed, block, k)`` — reruns of a campaign sleep the same amounts.
    ``degrade=False`` disables the in-process fallback rung (stubborn
    blocks go straight to quarantine).
    """

    max_retries: int = 2
    block_timeout: float | None = None
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    deadline: float | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SupervisorError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.block_timeout is not None and self.block_timeout <= 0:
            raise SupervisorError(
                f"block_timeout must be positive, got {self.block_timeout}"
            )
        if self.backoff_base < 0:
            raise SupervisorError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise SupervisorError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise SupervisorError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SupervisorError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise SupervisorError(
                f"deadline must be positive, got {self.deadline}"
            )

    def backoff_seconds(self, seed: int, block: Block, retry: int) -> float:
        """Deterministic backoff before the *retry*-th re-attempt
        (1-based) of *block*: exponential growth, capped, with a jitter
        fraction drawn from a hash of ``(seed, block, retry)`` so two
        runs of the same campaign back off identically."""
        if retry < 1:
            raise SupervisorError(f"retry must be >= 1, got {retry}")
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (retry - 1),
        )
        if base <= 0 or self.jitter == 0:
            return base
        key = f"{seed}:{block[0]}:{block[1]}:{block[2]}:{retry}"
        digest = hashlib.sha256(key.encode("ascii")).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter * frac)


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the supervisor's structured fault log."""

    t: float  #: seconds since campaign start
    kind: str  #: failure | timeout | backoff | suspect | pool_rebuild |
    #:  requeue | degrade | quarantine | deadline | stop
    block: Block | None
    attempt: int
    detail: str


@dataclass
class RunReport:
    """What a supervised campaign survived.

    Attached to the returned cloud as ``cloud.run_report``; dump with
    :meth:`to_json` / :meth:`dump` for operators.  ``completed`` holds
    every block that produced states (in merge order), ``quarantined``
    the blocks given up on (with attempt counts and last error),
    ``remaining`` the blocks abandoned un-attempted when the deadline
    expired, and ``events`` the full chronological fault log.

    Timestamps: every duration in the report (event ``t`` offsets,
    ``wall_seconds``, backoff delays) is measured on the monotonic
    clock, so NTP steps and DST changes mid-campaign cannot corrupt
    them; ``started_at_unix`` is the single wall-clock anchor (one
    ``time.time()`` read at campaign start) that lets operators place
    the monotonic offsets in calendar time.  ``metrics`` carries the
    campaign's merged metrics snapshot when the pool driver ran with
    metrics enabled.
    """

    policy: RetryPolicy
    blocks_total: int = 0
    completed: list[Block] = field(default_factory=list)
    quarantined: list[dict] = field(default_factory=list)
    remaining: list[Block] = field(default_factory=list)
    degraded: list[Block] = field(default_factory=list)
    events: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    deadline_hit: bool = False
    stopped: bool = False
    wall_seconds: float = 0.0
    started_at_unix: float = 0.0
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        """True when every block completed: nothing quarantined,
        nothing abandoned to the deadline or a stop request."""
        return not self.quarantined and not self.remaining

    @property
    def quarantined_blocks(self) -> tuple[Block, ...]:
        return tuple(sorted(tuple(q["block"]) for q in self.quarantined))

    def to_dict(self) -> dict:
        """JSON-ready dict: policy knobs, per-block outcomes, counters,
        and the chronological fault log."""
        return {
            "policy": asdict(self.policy),
            "blocks_total": self.blocks_total,
            "completed": [list(b) for b in self.completed],
            "quarantined": [
                {**q, "block": list(q["block"])} for q in self.quarantined
            ],
            "remaining": [list(b) for b in self.remaining],
            "degraded": [list(b) for b in self.degraded],
            "events": [
                {**asdict(e), "block": list(e.block) if e.block else None}
                for e in self.events
            ],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "deadline_hit": self.deadline_hit,
            "stopped": self.stopped,
            "wall_seconds": self.wall_seconds,
            "started_at_unix": self.started_at_unix,
            "metrics": self.metrics,
            "ok": self.ok,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def dump(self, path) -> None:
        """Write the report as JSON to *path*."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def summary(self) -> str:
        """One line for logs/CLI output."""
        parts = [
            f"{len(self.completed)}/{self.blocks_total} blocks completed",
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.pool_rebuilds} pool rebuilds",
        ]
        if self.degraded:
            parts.append(f"{len(self.degraded)} degraded in-process")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.deadline_hit:
            parts.append("deadline hit")
        if self.stopped:
            parts.append("stopped on request")
        return "; ".join(parts)


class BlockTask:
    """Picklable work the executor runs one ``(start, stop, step)``
    block at a time: ``task(graph, block)`` returns the block's result.

    ``what`` names the unit of work in the block's span and its
    flight-recorder mark.  :meth:`journal_fields` adds task-specific
    fields to the block's ``block_completed`` journal event.  Every
    block's result passes through :meth:`pack` where it ran (a pool
    worker ships the packed result) and through :meth:`unpack` in the
    parent, over the parent's graph.
    """

    what = "block"

    def __call__(self, graph: SignedGraph, block: Block) -> Any:
        raise NotImplementedError

    def pack(self, result: Any) -> Any:
        """*result* as a pool worker ships it to the parent."""
        return result

    def unpack(self, graph: SignedGraph, result: Any) -> Any:
        """A block's *result* back in the parent, over its *graph*."""
        return result

    def journal_fields(self, block: Block, result: Any) -> dict:
        """Extra ``block_completed`` fields for *block*'s *result*."""
        return {}


class _Outcome(NamedTuple):
    """What the envelope ships back: the task's result plus the
    block's detached metrics snapshot, its span shard (worker-side
    runs under a trace only) and the pid that ran it."""

    result: Any
    metrics: dict | None
    shard: dict | None
    pid: int


def _envelope(
    task: BlockTask,
    fault: Callable[[Block], None] | None,
    graph: SignedGraph,
    block: Block,
) -> _Outcome:
    """Run *task* on *block* with the per-block observability around
    it.  *fault* is the fault-injection hook (see
    :mod:`repro.util.faults`), invoked with the block before any work.
    """
    recorder = get_flight_recorder()
    if recorder is not None:
        # Dumped before any work: a SIGKILL mid-block leaves a dump
        # naming exactly this block.
        recorder.mark_inflight(what=task.what, block=list(block))
    if fault is not None:
        fault(block)
    # Detached metrics window: the snapshot rides back with the result
    # and the parent merges it exactly once (merge=True here would
    # double-count blocks that degrade to in-process execution).
    with collecting(merge=False) as metrics, span(task.what):
        result = task(graph, block)
    if recorder is not None:
        recorder.clear_inflight(what=task.what, block=list(block))
    return _Outcome(task.pack(result), metrics.snapshot(), None, os.getpid())


def _run_in_worker(
    task: BlockTask,
    fault: Callable[[Block], None] | None,
    fingerprint: str,
    block: Block,
    trace: dict | None,
) -> _Outcome:
    """Worker entry point: the envelope over the worker-slot graph
    (fingerprint-checked; see :func:`repro.parallel.pool._worker_graph`).

    *trace* is a :meth:`~repro.perf.tracectx.TraceContext.to_dict`
    payload naming the parent span the block hangs under; the worker
    records its spans into a bounded local collector and ships them
    back as the outcome's shard.
    """
    from repro.parallel.pool import _worker_graph

    graph = _worker_graph(fingerprint)
    if trace is None:
        return _envelope(task, fault, graph, block)
    with collecting_trace(_SHARD_MAX_EVENTS) as shard, trace_scope(
        TraceContext.from_dict(trace)
    ):
        outcome = _envelope(task, fault, graph, block)
    return outcome._replace(shard=collector_shard(shard))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool whose workers may be hung.  ``Future.cancel`` cannot
    stop a running call, so the worker processes are terminated
    directly and the executor abandoned."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best-effort teardown
        pass


class CampaignSupervisor:
    """One supervised run of *task* over *blocks*.  See the module
    docstring for the ladder; :func:`run_supervised` is the entry point
    for cloud campaigns.

    *seed* keys the deterministic backoff jitter.  ``graph_store`` (a
    path or an open :class:`~repro.graph.store.GraphStore` holding
    *graph*) switches workers to the zero-copy initializer.  The graph
    is hashed only when workers or a store need it.
    ``stop_event`` requests a cooperative stop (see
    :func:`run_supervised`); ``flight_dir`` arms a flight recorder in
    every worker process.  ``on_complete(block, result)`` takes each
    block's result the moment it completes (the campaign driver folds
    it into its running cloud); :attr:`completed` then holds the block
    with ``None`` in place of the result.

    ``keep_pool=True`` lets the process pool outlive the run: *pool*
    (an executor a previous run of the same graph, workers and
    ``flight_dir`` left behind, or ``None``) is used instead of a fresh
    one, a clean run leaves it running, and :attr:`pool` afterwards
    holds the pool to pass to the next run — the same one, the one
    rebuilt after a break, or ``None`` when it was torn down.  The
    caller shuts it down.
    """

    def __init__(
        self,
        graph: SignedGraph,
        blocks: Sequence[Block],
        task: BlockTask,
        *,
        seed: int,
        workers: int,
        policy: RetryPolicy,
        fault: Callable[[Block], None] | None = None,
        graph_store=None,
        stop_event: "threading.Event | None" = None,
        flight_dir: str | None = None,
        on_complete: Callable[[Block, Any], None] | None = None,
        pool: ProcessPoolExecutor | None = None,
        keep_pool: bool = False,
    ) -> None:
        from repro.graph.store import GraphStore, graph_fingerprint

        self.graph = graph
        self.blocks = [tuple(int(x) for x in b) for b in blocks]
        # The pool rung engages only when there is parallel work; one
        # worker or one block runs the in-process ladder.
        self.pooled = workers > 1 and len(self.blocks) > 1
        # Zero-copy mode: workers map the packed store file instead of
        # receiving a pickled graph, and every pool rebuild reopens the
        # mapping (a header read) instead of re-pickling.  The campaign
        # fingerprint pins the graph identity either way; each task
        # carries it so a stale worker slot is detected (and, for
        # store-backed workers, healed) rather than trusted.
        if graph_store is not None and not isinstance(graph_store, GraphStore):
            graph_store = GraphStore.open(graph_store)
        self.graph_store: GraphStore | None = graph_store
        self.fingerprint = (
            graph_fingerprint(graph)
            if self.pooled or graph_store is not None else None
        )
        if graph_store is not None and (
            graph_store.fingerprint != self.fingerprint
        ):
            raise SupervisorError(
                f"graph store {graph_store.path} holds a different graph "
                "than the one being supervised (fingerprint mismatch)"
            )
        self.task = task
        self.seed = seed
        self.workers = workers
        self.policy = policy
        self.fault = fault
        self.stop_event = stop_event
        self.flight_dir = flight_dir
        self.on_complete = on_complete
        # The ambient trace context (the campaign span's, or a serve
        # request's) at construction time is what every pool task's
        # block span chains under; None when no trace is being
        # collected, keeping task payloads unchanged.
        ctx = current_trace()
        self.trace = ctx.to_dict() if ctx is not None else None

        self.report = RunReport(policy=policy, blocks_total=len(self.blocks))
        self.completed: list[tuple[Block, Any]] = []
        # Which process ran each completed block, for the steal summary.
        self.ran_on: list[tuple[Block, int]] = []
        # (block, attempt) ready to submit; attempt is 1-based.
        self.pending: deque[tuple[Block, int]] = deque(
            (b, 1) for b in self.blocks
        )
        # (ready_time, block, attempt) sleeping out a backoff.
        self.cooling: list[tuple[float, Block, int]] = []
        # Blocks in flight when the pool broke: re-run one at a time so
        # the poison block is attributed unambiguously.
        self.suspects: deque[tuple[Block, int]] = deque()
        # Blocks that exhausted pool retries and degrade in-process.
        self.degrade_queue: deque[tuple[Block, int]] = deque()
        self.pool = pool
        self.keep_pool = keep_pool
        # Monotonic origin for every duration; the one-and-only
        # wall-clock read anchors the report in calendar time.
        self.start = time.monotonic()
        self.report.started_at_unix = time.time()

    # -- bookkeeping ---------------------------------------------------

    #: FaultEvent kind -> campaign-journal event kind.  Kinds absent
    #: here (backoff, degrade) have dedicated journal events emitted at
    #: the sites where the matching RunReport counter changes, so a
    #: summarized journal reconciles exactly with the report.
    _JOURNAL_KINDS = {
        "failure": "block_failed",
        "crash": "block_failed",
        "timeout": "block_timeout",
        "suspect": "worker_suspected",
        "requeue": "block_requeued",
        "pool_rebuild": "pool_rebuilt",
        "quarantine": "block_quarantined",
        "deadline": "deadline_hit",
        "stop": "campaign_stopped",
    }

    def _event(
        self, kind: str, block: Block | None, attempt: int, detail: str
    ) -> None:
        self.report.events.append(
            FaultEvent(
                t=round(time.monotonic() - self.start, 4),
                kind=kind,
                block=block,
                attempt=attempt,
                detail=detail,
            )
        )
        journal_kind = self._JOURNAL_KINDS.get(kind)
        if journal_kind is not None:
            journal_event(
                journal_kind,
                block=block[0] if block is not None else None,
                attempt=attempt,
                detail=detail,
            )

    def _complete(self, block: Block, outcome: _Outcome) -> None:
        """Record one completed block (all ladder rungs funnel here):
        fold its metrics snapshot and span shard into the parent's
        registry and collector, exactly once."""
        if outcome.metrics:
            get_registry().merge_snapshot(outcome.metrics)
        collector = get_trace_collector()
        if outcome.shard and collector is not None:
            absorb_shard(collector, outcome.shard)
        result = self.task.unpack(self.graph, outcome.result)
        self.ran_on.append((block, outcome.pid))
        if get_journal() is not None:
            journal_event(
                "block_completed", block=block[0], stop=block[1],
                step=block[2], worker=outcome.pid,
                **self.task.journal_fields(block, result),
            )
        if self.on_complete is not None:
            self.on_complete(block, result)
            result = None
        self.completed.append((block, result))

    def _steal_summary(self) -> None:
        """Journal the per-worker block/state tallies of a pooled run
        and gauge the imbalance, so operators can see the dynamic
        schedule the shared queue actually produced.  Blocks that ran
        in this process (degraded) are not a worker's."""
        per_worker: dict[int, list[int]] = {}
        for block, pid in self.ran_on:
            if pid == os.getpid():
                continue
            tally = per_worker.setdefault(pid, [0, 0])
            tally[0] += 1
            tally[1] += len(range(*block))
        if not per_worker:
            return
        blocks_per_worker = [t[0] for t in per_worker.values()]
        registry = get_registry()
        registry.gauge("pool.workers_used", float(len(per_worker)))
        registry.gauge("pool.steal_max_blocks", float(max(blocks_per_worker)))
        registry.gauge("pool.steal_min_blocks", float(min(blocks_per_worker)))
        journal_event(
            "steal_summary",
            workers=self.workers,
            workers_used=len(per_worker),
            blocks={str(pid): t[0] for pid, t in sorted(per_worker.items())},
            states={str(pid): t[1] for pid, t in sorted(per_worker.items())},
        )

    def _deadline_left(self) -> float | None:
        if self.policy.deadline is None:
            return None
        return self.policy.deadline - (time.monotonic() - self.start)

    def _quarantine(self, block: Block, attempt: int, detail: str) -> None:
        self.report.quarantined.append(
            {"block": block, "attempts": attempt, "error": detail}
        )
        get_registry().count("supervisor.quarantined_total", 1)
        self._event("quarantine", block, attempt, detail)

    def _register_failure(
        self, block: Block, attempt: int, kind: str, detail: str
    ) -> None:
        """One attempt of *block* failed; climb the ladder: backoff +
        retry, then in-process degradation (plain pool failures only),
        then quarantine."""
        if kind == "timeout":
            self.report.timeouts += 1
            get_registry().count("supervisor.timeouts_total", 1)
        self._event(kind, block, attempt, detail)
        if attempt <= self.policy.max_retries:
            delay = self.policy.backoff_seconds(self.seed, block, attempt)
            self.report.retries += 1
            get_registry().count("supervisor.retries_total", 1)
            journal_event(
                "block_retried", block=block[0], attempt=attempt,
                backoff_seconds=delay,
            )
            if delay > 0:
                self._event(
                    "backoff", block, attempt,
                    f"backing off {delay:.3f}s before attempt {attempt + 1}",
                )
            self.cooling.append((time.monotonic() + delay, block, attempt + 1))
            return
        # Retries exhausted.  Hung blocks cannot be interrupted
        # in-process and crash blocks would kill the parent, so only
        # ordinary pool failures take the degradation rung.
        if self.policy.degrade and kind == "failure" and self.pooled:
            self.degrade_queue.append((block, attempt + 1))
            self._event(
                "degrade", block, attempt,
                "pool retries exhausted; falling back to in-process "
                "sequential execution",
            )
            return
        self._quarantine(block, attempt, detail)

    # -- pool management -----------------------------------------------
    def _pool_size(self) -> int:
        return max(1, min(self.workers, len(self.blocks)))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            from repro.parallel.pool import _init_worker, _init_worker_store

            if self.graph_store is not None:
                # Rebuilds cost a header read + mmap per worker, not a
                # graph pickle; the page-cache copy is shared.
                initializer = _init_worker_store
                initargs = (
                    str(self.graph_store.path), self.fingerprint,
                    self.flight_dir,
                )
                mode = "store"
            else:
                initializer = _init_worker
                initargs = (self.graph, self.fingerprint, self.flight_dir)
                mode = "pickle"
            self.pool = ProcessPoolExecutor(
                max_workers=self._pool_size(),
                initializer=initializer,
                initargs=initargs,
            )
            journal_event(
                "pool_initialized", mode=mode, workers=self._pool_size()
            )
        return self.pool

    def _submit(self, inflight: dict, block: Block, attempt: int) -> None:
        fut = self._ensure_pool().submit(
            _run_in_worker, self.task, self.fault, self.fingerprint, block,
            self.trace,
        )
        inflight[fut] = (block, attempt, time.monotonic())

    def _teardown_pool(self, graceful: bool = False) -> None:
        """Close the pool: *graceful* waits for idle workers to exit
        (nothing left running), otherwise they are killed — a hung or
        abandoned block cannot be cancelled."""
        if self.pool is not None:
            if graceful:
                self.pool.shutdown(wait=True)
            else:
                _terminate_pool(self.pool)
            self.pool = None

    def _rebuild_after(self, reason: str) -> None:
        self._teardown_pool()
        self.report.pool_rebuilds += 1
        get_registry().count("supervisor.pool_rebuilds_total", 1)
        self._event("pool_rebuild", None, 0, reason)

    def _run_here(self, block: Block) -> _Outcome:
        """Run one block in this process (in-process and degrade
        rungs); spans chain under the ambient trace context."""
        return _envelope(self.task, self.fault, self.graph, block)

    # -- main loop -----------------------------------------------------
    def run(self) -> tuple[list[tuple[Block, Any]], RunReport]:
        """Drive every block through the ladder; returns ``(completed,
        report)``.  A task's ``BaseException`` that is not an
        ``Exception`` propagates, with :attr:`completed` holding the
        blocks harvested before it."""
        from repro.parallel.pool import _reset_worker_slot

        # In-process execution bypasses the worker slot, but clear it
        # anyway: a slot left behind by an earlier executor in this
        # process must not survive into in-process or degraded reuse.
        _reset_worker_slot()
        clean = False
        try:
            if self.pooled:
                self._run_pooled()
            else:
                self._run_inprocess()
            self._run_degraded()
            clean = True
        finally:
            if not (clean and self.keep_pool):
                self._teardown_pool()
            self.report.completed = sorted(b for b, _c in self.completed)
            self.report.wall_seconds = round(
                time.monotonic() - self.start, 4
            )
        self._steal_summary()
        return self.completed, self.report

    def _promote_cooled(self) -> None:
        now = time.monotonic()
        still: list[tuple[float, Block, int]] = []
        for ready, block, attempt in self.cooling:
            if ready <= now:
                self.pending.append((block, attempt))
            else:
                still.append((ready, block, attempt))
        self.cooling = still

    def _sleep_until_cooled(self) -> None:
        """Nothing to run: sleep until the first retry is ready
        (bounded so deadlines and stop requests stay live)."""
        if not self.cooling:
            return
        ready = min(r for r, _b, _a in self.cooling)
        pause = max(0.0, ready - time.monotonic())
        left = self._deadline_left()
        if left is not None:
            pause = min(pause, max(left, 0.0))
        time.sleep(min(pause, 1.0))

    def _halted(self, inflight: dict) -> bool:
        """Abandon the run when a stop was requested or the deadline
        expired; True when it was."""
        if self.stop_event is not None and self.stop_event.is_set():
            self._abandon(inflight, kind="stop")
            return True
        left = self._deadline_left()
        if left is not None and left <= 0:
            self._abandon(inflight, kind="deadline")
            return True
        return False

    def _abandon(self, inflight: dict, kind: str) -> None:
        """The campaign deadline expired (or an external stop was
        requested, ``kind="stop"``): stop cleanly, recording every
        block that did not finish."""
        if kind == "stop":
            self.report.stopped = True
        else:
            self.report.deadline_hit = True
        left: list[Block] = []
        left += [b for b, _a in self.pending]
        left += [b for _r, b, _a in self.cooling]
        left += [b for b, _a in self.suspects]
        left += [b for b, _a in self.degrade_queue]
        left += [b for b, _a, _t in inflight.values()]
        self.report.remaining = sorted(set(left))
        self.pending.clear()
        self.cooling.clear()
        self.suspects.clear()
        self.degrade_queue.clear()
        inflight.clear()
        self._teardown_pool()
        if kind == "stop":
            detail = "external stop requested"
        else:
            detail = (
                f"campaign deadline of {self.policy.deadline:.3f}s expired"
            )
        self._event(
            kind, None, 0,
            f"{detail}; {len(self.report.remaining)} block(s) abandoned "
            "for a clean checkpointed stop",
        )

    def _harvest(
        self, block: Block, attempt: int, fut
    ) -> BaseException | None:
        """Settle one finished future: complete the block or climb the
        ladder.  A non-``Exception`` (an interrupt shipped back from
        the worker) is returned for the caller to re-raise once the
        rest of the batch is harvested — it is a stop request, never a
        block fault."""
        try:
            outcome = fut.result(timeout=0)
        except Exception as exc:
            self._register_failure(
                block, attempt, "failure", f"{type(exc).__name__}: {exc}"
            )
        except BaseException as exc:
            return exc
        else:
            self._complete(block, outcome)
        return None

    def _run_pooled(self) -> None:
        inflight: dict = {}  # Future -> (block, attempt, t_submit)
        while self.pending or self.cooling or self.suspects or inflight:
            if self._halted(inflight):
                return
            self._promote_cooled()

            # Submit.  While suspects exist, run exactly one block at a
            # time so a repeat pool break is attributed unambiguously.
            try:
                if self.suspects:
                    if not inflight:
                        block, attempt = self.suspects.popleft()
                        self._submit(inflight, block, attempt)
                else:
                    while self.pending and len(inflight) < self._pool_size():
                        block, attempt = self.pending.popleft()
                        self._submit(inflight, block, attempt)
            except (BrokenProcessPool, RuntimeError) as exc:
                # The pool broke between our bookkeeping and submit;
                # requeue and rebuild.
                self.pending.appendleft((block, attempt))
                for f, (b, a, _t) in list(inflight.items()):
                    self.suspects.append((b, a))
                inflight.clear()
                self._rebuild_after(
                    f"executor rejected submissions: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue

            if not inflight:
                self._sleep_until_cooled()
                continue

            # Wait for completions, bounded by the nearest of: a block
            # timeout expiring, a cooled retry becoming ready, the
            # campaign deadline, and the watchdog tick.
            timeout = _TICK if self.cooling else 1.0
            now = time.monotonic()
            if self.policy.block_timeout is not None:
                nearest = min(
                    t0 + self.policy.block_timeout - now
                    for _b, _a, t0 in inflight.values()
                )
                timeout = min(timeout, max(nearest, 0.0))
            left = self._deadline_left()
            if left is not None:
                timeout = min(timeout, max(left, 0.0))
            n_inflight = len(inflight)
            done, _not_done = wait(
                list(inflight), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )

            broken = False
            interrupt: BaseException | None = None
            for fut in done:
                block, attempt, _t0 = inflight.pop(fut)
                exc = fut.exception(timeout=0)
                if isinstance(exc, BrokenProcessPool):
                    broken = True
                    if n_inflight == 1:
                        # Running alone: the attribution is certain.
                        self._register_failure(
                            block, attempt, "crash",
                            f"worker process died: {exc}",
                        )
                    else:
                        self.suspects.append((block, attempt))
                        self._event(
                            "suspect", block, attempt,
                            "pool broke with this block in flight; will "
                            "re-run isolated for attribution",
                        )
                else:
                    interrupt = self._harvest(block, attempt, fut) or interrupt
            if interrupt is not None:
                raise interrupt
            if broken:
                for fut, (block, attempt, _t0) in list(inflight.items()):
                    self.suspects.append((block, attempt))
                    self._event(
                        "suspect", block, attempt,
                        "pool broke with this block in flight; will "
                        "re-run isolated for attribution",
                    )
                inflight.clear()
                self._rebuild_after("BrokenProcessPool: worker died")
                continue

            # Watchdog: declare blocks past their wall-clock budget
            # hung.  A running future cannot be cancelled, so the pool
            # is torn down; innocents are requeued without charge.
            if self.policy.block_timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    (fut, entry)
                    for fut, entry in inflight.items()
                    if now - entry[2] >= self.policy.block_timeout
                    and not fut.done()
                ]
                if expired:
                    for fut, (block, attempt, t0) in expired:
                        inflight.pop(fut)
                        self._register_failure(
                            block, attempt, "timeout",
                            f"block exceeded block_timeout="
                            f"{self.policy.block_timeout:.3f}s "
                            f"(ran {now - t0:.3f}s); worker terminated",
                        )
                    for fut, (block, attempt, _t0) in list(inflight.items()):
                        if fut.done():
                            # Completed while we were deciding; harvest.
                            continue
                        inflight.pop(fut)
                        self.pending.appendleft((block, attempt))
                        self._event(
                            "requeue", block, attempt,
                            "requeued without charge: pool torn down to "
                            "kill a hung sibling",
                        )
                    # Harvest any finished-but-unprocessed futures
                    # before the teardown discards them.
                    for fut, (block, attempt, _t0) in list(inflight.items()):
                        inflight.pop(fut)
                        interrupt = (
                            self._harvest(block, attempt, fut) or interrupt
                        )
                    self._rebuild_after(
                        f"terminated {len(expired)} hung worker(s)"
                    )
                    if interrupt is not None:
                        raise interrupt
        # Every block settled: the workers are idle, so let them exit
        # cleanly instead of killing them (or keep them for the next run).
        if not self.keep_pool:
            self._teardown_pool(graceful=True)

    def _run_inprocess(self) -> None:
        """Sequential ladder for ``workers == 1`` (or a single block):
        retries and backoff apply, but there is no timeout rung — an
        in-process block cannot be interrupted — and no degradation
        rung, because execution is already in-process."""
        while self.pending or self.cooling:
            if self._halted({}):
                return
            self._promote_cooled()
            if not self.pending:
                self._sleep_until_cooled()
                continue
            block, attempt = self.pending.popleft()
            try:
                outcome = self._run_here(block)
            except Exception as exc:
                self._register_failure(
                    block, attempt, "failure", f"{type(exc).__name__}: {exc}"
                )
            else:
                self._complete(block, outcome)

    def _run_degraded(self) -> None:
        """Final rung: re-run stubborn blocks sequentially in the
        parent process."""
        while self.degrade_queue:
            if self._halted({}):
                return
            block, attempt = self.degrade_queue.popleft()
            try:
                outcome = self._run_here(block)
            except Exception as exc:
                self._quarantine(
                    block, attempt,
                    f"in-process fallback failed: "
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                self._complete(block, outcome)
                self.report.degraded.append(block)
                journal_event("block_degraded", block=block[0])
                self._event(
                    "degrade", block, attempt,
                    "in-process fallback succeeded",
                )


def run_supervised(
    graph: SignedGraph,
    blocks: Sequence[Block],
    *,
    method: str,
    seed: int,
    store_states: bool,
    workers: int,
    policy: RetryPolicy,
    fault: Callable[[Block], None] | None = None,
    swaps_per_state: int = 1,
    graph_store=None,
    stop_event: "threading.Event | None" = None,
    flight_dir: str | None = None,
) -> tuple[list[tuple[Block, object]], RunReport]:
    """Run cloud-campaign *blocks* under the fault-handling ladder.

    Returns ``(completed, report)`` where *completed* is a list of
    ``(block, local_cloud)`` pairs for every block that produced states
    (callers must merge them in sorted block order for determinism) and
    *report* is the structured :class:`RunReport`.  Exceptions raised
    by blocks are consumed by the ladder; a :class:`KeyboardInterrupt`
    (and kin) — parent-side or raised by a block — propagates, so the
    caller can salvage-checkpoint and re-raise.  Each block's metrics
    and span shard are already folded into the caller's registry and
    trace collector.

    ``stop_event`` (a :class:`threading.Event`) requests a cooperative
    stop from outside — e.g. the serve daemon draining on SIGTERM: the
    supervisor finishes nothing new once the event is set, abandons
    remaining blocks exactly like an expired deadline (clean teardown,
    ``report.remaining`` populated, ``report.stopped = True``), and
    returns the blocks that did complete so the caller can checkpoint
    them.
    """
    from repro.parallel.pool import CampaignTask

    task = CampaignTask(
        method=method, seed=seed, store_states=store_states,
        swaps_per_state=swaps_per_state,
    )
    return CampaignSupervisor(
        graph, blocks, task, seed=seed, workers=workers, policy=policy,
        fault=fault, graph_store=graph_store, stop_event=stop_event,
        flight_dir=flight_dir,
    ).run()
