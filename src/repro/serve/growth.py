"""Background cloud growth for the serve daemon.

The growth worker owns the daemon's *private* mutable cloud and runs
the campaign toward its target state count one small round at a time.
Each round:

1. checks the circuit breaker — when queries are degraded the round is
   shed (the worker sleeps instead of sampling), mirroring the
   supervisor's in-process degradation ledger;
2. runs the next contiguous block of tree indices through the existing
   self-healing supervisor (:func:`repro.parallel.supervisor.
   run_supervised`) so growth inherits its retry/backoff ladder — and
   its new ``stop_event`` rung, which lets a SIGTERM drain interrupt a
   round between blocks;
3. merges the completed block, writes an atomic rotated checkpoint
   (the daemon's crash-only persistence: a SIGKILL at any instant
   leaves a loadable chain), and publishes a fresh read-only
   :class:`~repro.serve.state.QuerySnapshot`.

One block per round keeps the recovered-prefix invariant trivially
true: the checkpoint chain only ever holds contiguous prefixes of the
campaign, so a restarted daemon resumes from ``cloud.num_states`` and
reproduces the exact states an uninterrupted run would have — which is
what makes recovered query answers byte-identical.

Checkpoint failures (e.g. a full disk) degrade, not crash: the round's
states still publish, the failure is journaled/counted, and the worker
keeps trying on later rounds.
"""

from __future__ import annotations

import threading

from repro.cloud.checkpoint import CampaignMeta, save_cloud
from repro.cloud.cloud import FrustrationCloud
from repro.errors import CheckpointError, ServeError
from repro.graph.csr import SignedGraph
from repro.parallel.supervisor import RetryPolicy, run_supervised
from repro.perf.flight import flight_clear_inflight, flight_mark_inflight
from repro.perf.journal import journal_event
from repro.perf.registry import get_registry
from repro.perf.tracing import span
from repro.serve.breaker import CircuitBreaker
from repro.serve.state import SnapshotStore

__all__ = ["GrowthWorker"]

#: How long a shed/failed round sleeps before re-checking, seconds.
_SHED_POLL = 0.05


class GrowthWorker:
    """Daemon thread growing the cloud to ``target_states``.

    The worker is the *only* writer of the cloud and the only
    checkpoint author; readers exclusively consume published
    snapshots.  ``stop()`` is cooperative and bounded: the stop event
    reaches the supervisor between blocks, so join returns within one
    block's compute time.
    """

    def __init__(
        self,
        graph: SignedGraph,
        cloud: FrustrationCloud,
        snapshots: SnapshotStore,
        fingerprint: str,
        *,
        target_states: int,
        grow_step: int = 16,
        method: str = "bfs",
        kernel: str = "lockstep",
        seed: int = 0,
        batch_size: int = 1,
        swaps_per_state: int = 1,
        checkpoint_path=None,
        keep_checkpoints: int = 2,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        round_delay: float = 0.0,
        max_round_failures: int = 5,
        workers: int = 1,
        flight_dir=None,
    ) -> None:
        """Configure a worker growing *cloud* to *target_states*.

        ``workers > 1`` fans each round's block over the supervised
        process pool (the round is split into per-worker sub-blocks so
        the pool rung actually engages); ``flight_dir`` rides into the
        supervisor so pool workers arm flight recorders there.
        """
        if grow_step < 1:
            raise ServeError(f"grow_step must be >= 1, got {grow_step}")
        if target_states < 0:
            raise ServeError(
                f"target_states must be >= 0, got {target_states}"
            )
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.graph = graph
        self.cloud = cloud
        self.snapshots = snapshots
        self.fingerprint = fingerprint
        self.target_states = target_states
        self.grow_step = grow_step
        self.method = method
        self.kernel = kernel
        self.seed = seed
        self.batch_size = batch_size
        self.swaps_per_state = swaps_per_state
        self.checkpoint_path = checkpoint_path
        self.keep_checkpoints = keep_checkpoints
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self.round_delay = round_delay
        self.max_round_failures = max_round_failures
        self.workers = workers
        self.flight_dir = str(flight_dir) if flight_dir is not None else None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._failures = 0
        self.abandoned = False
        # Serializes (round, checkpoint, publish) between the
        # background loop and grow_once() callers — the worker stays
        # the only writer even when a debug request drives a round.
        self._round_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the target is reached (or growth gave up)."""
        return self.abandoned or self.cloud.num_states >= self.target_states

    @property
    def running(self) -> bool:
        """True while the worker thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background thread (no-op when nothing to grow)."""
        if self.done:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-growth", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = None) -> bool:
        """Request a cooperative stop and join; True when joined."""
        self._stop.set()
        return self.join(timeout)

    def join(self, timeout: float | None = None) -> bool:
        """Wait (without stopping) for the worker thread to finish;
        True when it has — e.g. because the target was reached."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    # -- the campaign meta this worker's checkpoints describe -----------
    def campaign_meta(self) -> CampaignMeta:
        """The self-describing metadata stamped into every checkpoint."""
        return CampaignMeta(
            method=self.method,
            kernel=self.kernel,
            seed=self.seed,
            batch_size=self.batch_size,
            store_states=self.cloud.store_states,
            swaps_per_state=self.swaps_per_state,
        )

    def checkpoint(self) -> None:
        """Write an atomic rotated checkpoint of the current cloud.

        Failures degrade: a :class:`~repro.errors.CheckpointError`
        (including the disk-full path) is journaled and counted, never
        propagated — the daemon keeps serving.
        """
        if self.checkpoint_path is None or self.cloud.num_states == 0:
            return
        try:
            save_cloud(
                self.cloud,
                self.checkpoint_path,
                campaign=self.campaign_meta(),
                keep=self.keep_checkpoints,
            )
        except CheckpointError as exc:
            get_registry().count("serve.checkpoint_errors_total", 1)
            journal_event(
                "serve_checkpoint_failed",
                path=str(self.checkpoint_path),
                error=str(exc),
            )

    def final_checkpoint(self) -> None:
        """Checkpoint under the round lock, for the drain.

        ``stop()`` may time out while a round is still merging blocks;
        taking the lock first makes the final checkpoint wait for that
        round, so it never saves a half-merged cloud.
        """
        with self._round_lock:
            self.checkpoint()

    # -- growth loop ----------------------------------------------------
    def _round_blocks(self, start: int, stop: int) -> list:
        """Split one round's index range into supervised blocks.

        ``workers == 1`` keeps the historical single block.  With more
        workers the range is chunked so the supervisor's pool rung
        engages (it requires more than one block) and the round's
        spans come back from real worker processes.  The round only
        merges when *every* chunk completed, so chunking cannot break
        the contiguous-prefix checkpoint invariant.
        """
        count = stop - start
        chunks = min(self.workers, count)
        if chunks <= 1:
            return [(start, stop, 1)]
        size = -(-count // chunks)  # ceil
        blocks = []
        lo = start
        while lo < stop:
            hi = min(stop, lo + size)
            blocks.append((lo, hi, 1))
            lo = hi
        return blocks

    def _grow_round(self) -> bool:
        """Run one supervised round; True when states were merged."""
        start = self.cloud.num_states
        stop = min(self.target_states, start + self.grow_step)
        blocks = self._round_blocks(start, stop)
        # Dump-before-compute: a SIGKILL mid-round leaves a flight
        # dump naming exactly this block range as in-flight.
        flight_mark_inflight(
            what="growth_round", block_start=start, block_stop=stop
        )
        with span("serve_growth_round"):
            completed, report = run_supervised(
                self.graph,
                blocks,
                method=self.method,
                kernel=self.kernel,
                seed=self.seed,
                store_states=self.cloud.store_states,
                batch_size=self.batch_size,
                workers=self.workers,
                policy=self.policy,
                swaps_per_state=self.swaps_per_state,
                stop_event=self._stop,
                flight_dir=self.flight_dir,
            )
        flight_clear_inflight(
            what="growth_round", block_start=start, block_stop=stop,
            ok=report.ok, completed=len(completed),
        )
        whole_round = len(completed) == len(blocks)
        if report.stopped and not whole_round:
            return False
        if not report.ok or not whole_round:
            self._failures += 1
            get_registry().count("serve.growth_failures_total", 1)
            journal_event(
                "serve_growth_failed",
                block=start,
                failures=self._failures,
                detail=report.summary(),
            )
            if self._failures >= self.max_round_failures:
                self.abandoned = True
                journal_event(
                    "serve_growth_abandoned",
                    states=self.cloud.num_states,
                    target=self.target_states,
                )
            return False
        self._failures = 0
        from repro.parallel.pool import _absorb_metrics

        for _block, local in sorted(completed, key=lambda kv: kv[0]):
            self.cloud.merge(local)
            # Folds each block's metrics snapshot — and its span shard,
            # when the daemon is tracing — into the process registry/
            # collector, so worker-side spans stitch into the trace
            # the round ran under.
            _absorb_metrics(local)
        return True

    def _publish(self) -> None:
        snapshot = self.snapshots.publish(self.cloud, self.fingerprint)
        registry = get_registry()
        registry.gauge("serve.snapshot_epoch", float(snapshot.epoch))
        registry.gauge("serve.snapshot_states", float(snapshot.num_states))
        journal_event(
            "serve_snapshot_published",
            epoch=snapshot.epoch,
            states=snapshot.num_states,
        )

    def grow_once(self) -> bool:
        """Synchronously run one full round (grow, checkpoint, publish)
        on the *calling* thread; True when states were merged.

        This is the seam the gated ``/debug/grow`` endpoint uses: run
        inside a request's trace scope, the round's supervisor — and
        its pool workers — chain their spans under the request, so one
        stitched trace shows the HTTP request causing cross-process
        growth.  Serialized with the background loop via the round
        lock, preserving the single-writer contract.
        """
        if self.done:
            return False
        with self._round_lock:
            if self.done:
                return False
            if not self._grow_round():
                return False
            self.checkpoint()
            self._publish()
            return True

    def _run(self) -> None:
        while not self._stop.is_set() and not self.done:
            if self.breaker is not None and self.breaker.is_open:
                # Query latency is degraded: shed growth until the
                # breaker closes (transitions are journaled by it).
                get_registry().count("serve.growth_shed_total", 1)
                self._stop.wait(_SHED_POLL)
                continue
            with self._round_lock:
                grew = False
                if not self.done:
                    grew = self._grow_round()
                    if grew:
                        self.checkpoint()
                        self._publish()
            if grew:
                if self.round_delay > 0:
                    self._stop.wait(self.round_delay)
            elif not self._stop.is_set() and not self.abandoned:
                self._stop.wait(_SHED_POLL)
        if self.cloud.num_states >= self.target_states:
            journal_event(
                "serve_growth_completed", states=self.cloud.num_states
            )
