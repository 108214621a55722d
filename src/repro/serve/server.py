"""The crash-only HTTP daemon: transport, boot recovery, graceful drain.

This module glues the serve-layer parts into one process:

* **Boot is recovery.** There is no separate "load my saved session"
  path: the daemon *always* boots by attempting checkpoint recovery
  (:func:`repro.cloud.checkpoint.recover_cloud` walks the rotation
  chain) and reopening the JSONL journal (which truncates any torn
  tail from a previous crash).  A SIGKILL at any instant therefore
  leaves exactly the state the next boot starts from — crash-only by
  construction, and exercised that way by the chaos tests.
* **Transport hardening.** Every query passes token-bucket admission
  (refusals are ``503`` + ``Retry-After``), carries an optional
  ``X-Deadline-Ms`` budget enforced mid-query (``504`` on expiry),
  and is answered from an immutable snapshot — slow clients are
  bounded by a per-connection socket timeout, so one stalled reader
  cannot pin a handler thread forever.
* **Graceful drain.** SIGTERM (or SIGINT) flips the daemon into
  draining: ``/readyz`` goes 503 so load balancers stop routing, the
  listener closes, in-flight requests get up to ``drain_budget``
  seconds to finish, background growth is stopped cooperatively at the
  next block boundary, a final checkpoint is written, and the process
  exits 0.

The server thread model is ``ThreadingHTTPServer`` (one thread per
connection) with the accept loop in a *background* thread; the main
thread just waits for the stop signal and then runs the drain
sequence.  That inversion keeps all shutdown logic out of the signal
handler, which must do nothing but set an event.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.cloud.checkpoint import recover_cloud, validate_campaign
from repro.cloud.cloud import FrustrationCloud
from repro.errors import ServeError
from repro.graph.csr import SignedGraph
from repro.graph.store import graph_fingerprint
from repro.parallel.supervisor import RetryPolicy
from repro.perf.flight import (
    flight_dump,
    get_flight_recorder,
    install_flight_recorder,
    set_flight_recorder,
)
from repro.perf.journal import Journal, journal_event, journaling
from repro.perf.registry import get_registry
from repro.perf.trace_export import events_for_trace, spans_to_events
from repro.perf.tracectx import TraceContext, trace_scope
from repro.perf.tracing import (
    TraceCollector,
    get_trace_collector,
    set_trace_collector,
    span,
)
from repro.serve.admission import TokenBucket
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.growth import GrowthWorker
from repro.serve.handlers import (
    Deadline,
    DeadlineExceeded,
    render_metrics,
    route_query,
)
from repro.serve.state import SnapshotStore, canonical_json

__all__ = ["ServeConfig", "FrustrationServer", "run_server"]

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"


@dataclass
class ServeConfig:
    """Every knob of the daemon, with production-shaped defaults.

    Campaign parameters (``method``, ``kernel``, ``seed``,
    ``batch_size``, ``swaps_per_state``) default to ``None`` = "inherit
    from the recovered checkpoint's campaign, or the historical
    defaults on a fresh boot"; passing one explicitly on a resume must
    agree with the checkpoint or boot fails — silently diverging from
    the recorded campaign would break the byte-identical recovery
    contract.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the chosen port is printed + port-file'd
    port_file: Optional[Path] = None
    # -- campaign -------------------------------------------------------
    target_states: int = 256
    grow_step: int = 16
    grow: bool = True
    grow_delay_ms: float = 0.0
    method: Optional[str] = None
    kernel: Optional[str] = None
    seed: Optional[int] = None
    batch_size: Optional[int] = None
    swaps_per_state: Optional[int] = None
    # -- persistence ----------------------------------------------------
    checkpoint: Optional[Path] = None
    keep_checkpoints: int = 2
    journal: Optional[Path] = None
    # -- admission / caching / breaker ----------------------------------
    qps: float = 0.0  # 0 disables admission control
    burst: int = 32
    cache_size: int = 1024
    breaker_p99_ms: float = 0.0  # 0 disables the breaker
    breaker_window: int = 128
    breaker_cooldown: float = 2.0
    # -- lifecycle ------------------------------------------------------
    drain_budget: float = 10.0
    request_timeout: float = 10.0  # slow-client guard, seconds
    # -- observability --------------------------------------------------
    access_log: Optional[Path] = None  # JSONL, one line per query
    debug_trace: bool = False  # /debug/trace + /debug/grow + collector
    flight_dir: Optional[Path] = None  # crash flight-recorder dumps
    trace_max_events: int = 4096  # span buffer bound while tracing
    grow_workers: int = 1  # >1 fans growth rounds over a process pool

    def __post_init__(self) -> None:
        """Normalize paths and reject nonsensical combinations early."""
        if self.port < 0:
            raise ServeError(f"port must be >= 0, got {self.port}")
        if self.grow_workers < 1:
            raise ServeError(
                f"grow_workers must be >= 1, got {self.grow_workers}"
            )
        if self.trace_max_events < 0:
            raise ServeError(
                f"trace_max_events must be >= 0, got {self.trace_max_events}"
            )
        if self.drain_budget < 0:
            raise ServeError(
                f"drain_budget must be >= 0, got {self.drain_budget}"
            )
        if self.request_timeout <= 0:
            raise ServeError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.checkpoint is not None:
            self.checkpoint = Path(self.checkpoint)
        if self.journal is not None:
            self.journal = Path(self.journal)
        if self.port_file is not None:
            self.port_file = Path(self.port_file)
        if self.access_log is not None:
            self.access_log = Path(self.access_log)
        if self.flight_dir is not None:
            self.flight_dir = Path(self.flight_dir)


class _RequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the serve daemon.

    ``timeout`` (set per-server from the config) bounds slow clients:
    ``handle_one_request`` treats a socket timeout as a fatal
    connection error and closes, so a client trickling bytes cannot
    hold a handler thread past the budget.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate sends; without TCP_NODELAY
    # the Nagle + delayed-ACK interaction stalls keep-alive clients
    # ~40ms per response.
    disable_nagle_algorithm = True
    server: "FrustrationServer"

    # Per-request identity, minted in do_GET after the probe check.
    _request_id = ""
    _request_ctx: Optional[TraceContext] = None
    _status = 0
    _cache_state = ""
    _outcome = "ok"

    def setup(self) -> None:
        """Arm the per-connection slow-client timeout before reading."""
        self.timeout = self.server.config.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr chatter (metrics cover it)."""

    # -- request identity ----------------------------------------------
    def _mint_identity(self) -> None:
        """Adopt or mint this request's trace identity.

        A valid incoming ``traceparent`` joins the client's trace (the
        request span becomes its child); otherwise a fresh root trace
        is minted.  ``X-Request-Id`` is honoured when the client sent
        one, else the trace id doubles as the request id — either way
        both go back out as response headers on every answer.
        """
        header = self.headers.get("traceparent")
        ctx = TraceContext.from_traceparent(header) if header else None
        if ctx is None:
            ctx = TraceContext.mint()
        else:
            # Joining the client's trace: the response must name *our*
            # position in it, not echo the client's span id back.
            ctx = ctx.child()
        rid = (self.headers.get("X-Request-Id") or "").strip()
        self._request_ctx = ctx
        self._request_id = (rid or ctx.trace_id)[:128]

    # -- response plumbing ---------------------------------------------
    def _respond(
        self,
        status: int,
        ctype: str,
        body: bytes,
        retry_after: Optional[float] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header("X-Request-Id", self._request_id)
        if self._request_ctx is not None:
            self.send_header(
                "traceparent", self._request_ctx.to_traceparent()
            )
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        if self.server.draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        get_registry().count(f"serve.http_{status}_total", 1)

    def _respond_json(
        self,
        status: int,
        payload: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        self._respond(status, _JSON, canonical_json(payload), retry_after)

    # -- probes ---------------------------------------------------------
    def _probe(self, path: str) -> bool:
        """Answer /healthz, /readyz, /metrics; True when handled.

        Probes bypass admission control and the in-flight ledger: a
        load balancer must be able to observe a saturated or draining
        daemon, and probes must not delay its drain.
        """
        if path == "/healthz":
            self._respond(200, _TEXT, b"ok\n")
            return True
        if path == "/readyz":
            if self.server.draining:
                self._respond(503, _TEXT, b"draining\n")
            elif self.server.snapshots.get() is None:
                self._respond(503, _TEXT, b"no snapshot yet\n", retry_after=1)
            else:
                self._respond(200, _TEXT, b"ready\n")
            return True
        if path == "/metrics":
            status, ctype, body = render_metrics()
            self._respond(status, ctype, body)
            return True
        return False

    # -- the query path -------------------------------------------------
    def do_GET(self) -> None:
        """Route one GET through probes, debug, or the query path."""
        try:
            base = self.path.split("?", 1)[0]
            self._request_id = ""
            self._request_ctx = None
            self._status = 0
            if self._probe(base):
                return
            self._mint_identity()
            if base == "/debug/trace":
                start = time.monotonic()
                self._debug_trace()
                self._access(start, outcome="debug")
                return
            if base == "/debug/grow":
                self._debug_grow()
                return
            if not self.server.begin_request():
                self._respond_json(
                    503, {"error": "draining"}, retry_after=1
                )
                return
            try:
                self._handle_query()
            finally:
                self.server.end_request()
        except (BrokenPipeError, ConnectionResetError):
            # The client is gone; nothing to answer, nothing to log
            # loudly — the connection thread just winds down.
            self.close_connection = True

    # -- debug endpoints (gated behind config.debug_trace) --------------
    def _debug_trace(self) -> None:
        """Render one request's stitched spans as a Chrome trace doc.

        ``/debug/trace?request_id=<id>`` (or ``trace_id=<32hex>``)
        slices the daemon's long-lived collector down to one causal
        tree — HTTP request span, growth rounds it caused, and any
        absorbed worker-process spans — ready to save and load in
        Perfetto.  404 unless ``debug_trace`` is on.
        """
        server = self.server
        if not server.config.debug_trace:
            self._respond_json(404, {"error": "debug endpoints disabled"})
            return
        params = parse_qs(urlsplit(self.path).query)
        trace_id = (params.get("trace_id") or [""])[-1].strip()
        request_id = (params.get("request_id") or [""])[-1].strip()
        if not trace_id and request_id:
            trace_id = server.lookup_request(request_id) or ""
        if not trace_id:
            self._respond_json(
                404,
                {"error": "unknown request_id (pass request_id= or "
                          "trace_id=)"},
            )
            return
        collector = get_trace_collector()
        events = collector.events() if collector is not None else []
        selected = events_for_trace(events, trace_id)
        if not selected:
            self._respond_json(
                404, {"error": f"no spans recorded for trace {trace_id}"}
            )
            return
        doc = {
            "traceEvents": spans_to_events(
                selected, process_name="repro-serve"
            ),
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": trace_id, "request_id": request_id,
            },
        }
        body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        self._respond(200, _JSON, body)

    def _debug_grow(self) -> None:
        """Synchronously drive one growth round under this request's
        trace, so the stitched trace shows the request *causing* the
        cross-process growth work.  404 unless ``debug_trace`` is on."""
        server = self.server
        if not server.config.debug_trace or server.growth is None:
            self._respond_json(404, {"error": "debug endpoints disabled"})
            return
        ctx = self._request_ctx
        start = time.monotonic()
        with trace_scope(ctx), span("serve_request"):
            grew = server.growth.grow_once()
        server.remember_request(self._request_id, ctx.trace_id)
        self._respond_json(
            200,
            {
                "grew": bool(grew),
                "states": server.growth.cloud.num_states,
                "request_id": self._request_id,
                "trace_id": ctx.trace_id,
            },
        )
        self._access(start, outcome="ok" if grew else "no_growth")

    # -- access log ------------------------------------------------------
    def _access(self, wall_start: float, *, outcome: str) -> None:
        """Emit one structured access-log line (no-op when disabled)."""
        log = self.server.access_log
        if log is None:
            return
        ctx = self._request_ctx
        log.emit(
            "serve_access",
            request_id=self._request_id,
            trace_id=ctx.trace_id if ctx is not None else "",
            path=self.path,
            status=self._status,
            latency_ms=round((time.monotonic() - wall_start) * 1000.0, 3),
            cache=self._cache_state,
            outcome=outcome,
        )

    def _handle_query(self) -> None:
        server = self.server
        registry = get_registry()
        registry.count("serve.requests_total", 1)
        ctx = self._request_ctx
        wall_start = time.monotonic()
        self._cache_state = ""
        self._outcome = "ok"
        try:
            with trace_scope(ctx), span("serve_request"):
                self._answer_query()
        finally:
            server.remember_request(self._request_id, ctx.trace_id)
            self._access(wall_start, outcome=self._outcome)

    def _answer_query(self) -> None:
        server = self.server
        registry = get_registry()
        admitted, retry_after = server.bucket.try_acquire()
        if not admitted:
            registry.count("serve.throttled_total", 1)
            self._outcome = "shed"
            self._respond_json(
                503,
                {"error": "overloaded", "retry_after_s": round(retry_after, 3)},
                retry_after=retry_after,
            )
            return
        start = time.monotonic()
        try:
            deadline = Deadline.from_header(self.headers.get("X-Deadline-Ms"))
            snapshot = server.snapshots.get()
            if snapshot is None:
                self._outcome = "no_snapshot"
                self._respond_json(
                    503,
                    {"error": "no snapshot published yet; warming up"},
                    retry_after=1,
                )
                return
            key = (snapshot.fingerprint, snapshot.epoch, self.path)
            response = server.cache.get(key)
            if response is None:
                self._cache_state = "miss"
                response = route_query(self.path, snapshot, deadline)
                if response[0] == 200:
                    server.cache.put(key, response)
            else:
                self._cache_state = "hit"
            deadline.check()
            status, ctype, body = response
            self._respond(status, ctype, body)
        except DeadlineExceeded as exc:
            registry.count("serve.deadline_exceeded_total", 1)
            self._outcome = "deadline"
            self._respond_json(504, {"error": str(exc)})
        except ServeError as exc:
            self._outcome = "bad_request"
            self._respond_json(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # never let a handler bug kill the thread
            registry.count("serve.internal_errors_total", 1)
            self._outcome = "error"
            journal_event("serve_internal_error", error=repr(exc))
            with contextlib.suppress(Exception):
                self._respond_json(500, {"error": "internal error"})
        finally:
            duration = time.monotonic() - start
            registry.observe("serve.request_seconds", duration)
            if server.breaker is not None:
                server.breaker.record(duration)


class FrustrationServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying the daemon's shared state.

    ``daemon_threads`` + ``block_on_close=False`` mean lingering
    keep-alive connections never block shutdown; the drain sequence
    instead waits on the *in-flight request* ledger, which counts only
    requests actually being answered.
    """

    daemon_threads = True
    block_on_close = False

    #: How many recent request → trace mappings the daemon remembers
    #: for ``/debug/trace?request_id=`` lookups.
    RECENT_REQUESTS = 1024

    def __init__(
        self,
        address: Tuple[str, int],
        config: ServeConfig,
        snapshots: SnapshotStore,
        bucket: TokenBucket,
        cache: ResultCache,
        breaker: Optional[CircuitBreaker],
        access_log: Optional[Journal] = None,
    ) -> None:
        """Bind the listener and attach the serve-layer components."""
        super().__init__(address, _RequestHandler)
        self.config = config
        self.snapshots = snapshots
        self.bucket = bucket
        self.cache = cache
        self.breaker = breaker
        self.access_log = access_log
        self.growth: Optional[GrowthWorker] = None
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Condition()
        self._recent_lock = threading.Lock()
        self._recent: "collections.OrderedDict[str, str]" = (
            collections.OrderedDict()
        )

    # -- request → trace identity ring ----------------------------------
    def remember_request(self, request_id: str, trace_id: str) -> None:
        """Record one answered request's trace id (bounded LRU ring)."""
        if not request_id:
            return
        with self._recent_lock:
            self._recent[request_id] = trace_id
            self._recent.move_to_end(request_id)
            while len(self._recent) > self.RECENT_REQUESTS:
                self._recent.popitem(last=False)

    def lookup_request(self, request_id: str) -> Optional[str]:
        """The trace id of a recently answered request, or ``None``."""
        with self._recent_lock:
            return self._recent.get(request_id)

    # -- in-flight ledger (drives graceful drain) -----------------------
    def begin_request(self) -> bool:
        """Enter the in-flight ledger; False once draining started."""
        with self._inflight_lock:
            if self.draining:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        """Leave the in-flight ledger, waking any drain waiter."""
        with self._inflight_lock:
            self._inflight -= 1
            self._inflight_lock.notify_all()

    def start_draining(self) -> None:
        """Refuse new queries from now on (readyz flips to 503 too)."""
        with self._inflight_lock:
            self.draining = True

    def wait_idle(self, budget: float) -> bool:
        """Wait up to *budget* seconds for in-flight requests to finish."""
        limit = time.monotonic() + budget
        with self._inflight_lock:
            while self._inflight > 0:
                left = limit - time.monotonic()
                if left <= 0:
                    return False
                self._inflight_lock.wait(left)
            return True


# ----------------------------------------------------------------------
# Boot + drain orchestration
# ----------------------------------------------------------------------
def _checkpoint_exists(path: Path) -> bool:
    """Whether *path* or any of its rotation backups exists on disk."""
    if path.exists():
        return True
    return any(path.parent.glob(path.name + ".*"))


def _boot_cloud(
    graph: SignedGraph, config: ServeConfig
) -> Tuple[FrustrationCloud, dict]:
    """Crash-only boot: recover the cloud, or start a fresh campaign.

    Returns ``(cloud, resolved_campaign_params)``.  Recovery is the
    *only* load path — there is no "clean shutdown" state to prefer —
    and a checkpoint chain that exists but cannot be loaded raises
    instead of silently restarting the campaign from zero.
    """
    if config.checkpoint is not None and _checkpoint_exists(config.checkpoint):
        cloud, meta, source = recover_cloud(config.checkpoint, graph)
        resolved = validate_campaign(
            meta,
            method=config.method,
            kernel=config.kernel,
            seed=config.seed,
            batch_size=config.batch_size,
            store_states=False if meta is None else None,
            swaps_per_state=config.swaps_per_state,
        )
        journal_event(
            "server_recovered",
            states=cloud.num_states,
            source=str(source),
        )
        get_registry().count("serve.recoveries_total", 1)
        return cloud, resolved
    resolved = validate_campaign(
        None,
        method=config.method,
        kernel=config.kernel,
        seed=config.seed,
        batch_size=config.batch_size,
        store_states=False,
        swaps_per_state=config.swaps_per_state,
    )
    return FrustrationCloud(graph, store_states=False), resolved


def _write_port_file(config: ServeConfig, port: int) -> None:
    """Atomically publish the bound port for test/tooling discovery."""
    if config.port_file is None:
        return
    tmp = config.port_file.with_name(config.port_file.name + ".tmp")
    tmp.write_text(f"{port}\n", encoding="utf-8")
    tmp.replace(config.port_file)


def run_server(
    graph: SignedGraph,
    config: ServeConfig,
    stop_event: Optional[threading.Event] = None,
    ready_callback=None,
) -> int:
    """Boot, serve until stopped, drain gracefully; returns exit code 0.

    *stop_event* is the stop signal; when ``None`` one is created and
    wired to SIGTERM/SIGINT (only possible from the main thread —
    embedded/test callers running in a worker thread must pass their
    own event).  *ready_callback*, if given, is called with the bound
    port once the daemon is accepting connections — the seam the
    in-process tests use instead of polling the port file.
    """
    own_signals = (
        stop_event is None
        and threading.current_thread() is threading.main_thread()
    )
    stop = stop_event if stop_event is not None else threading.Event()
    fingerprint = graph_fingerprint(graph)
    with contextlib.ExitStack() as stack:
        if config.journal is not None:
            stack.enter_context(journaling(config.journal))
        # Observability plumbing, all opt-in: the bounded span
        # collector backs /debug/trace, the flight recorder leaves
        # crash dumps, the access log narrates every query.  Previous
        # process-global sinks are restored on exit (LIFO) so
        # embedded/test daemons don't leak state into their host.
        if config.debug_trace:
            stack.callback(set_trace_collector, get_trace_collector())
            set_trace_collector(TraceCollector(config.trace_max_events))
        if config.flight_dir is not None:
            stack.callback(set_flight_recorder, get_flight_recorder())
            install_flight_recorder(
                str(config.flight_dir), role="serve-daemon"
            )
        access_log = None
        if config.access_log is not None:
            access_log = stack.enter_context(Journal(config.access_log))
        cloud, campaign = _boot_cloud(graph, config)
        snapshots = SnapshotStore()
        if cloud.num_states > 0:
            snapshots.publish(cloud, fingerprint)
        breaker = (
            CircuitBreaker(
                p99_threshold=config.breaker_p99_ms / 1000.0,
                window=config.breaker_window,
                cooldown=config.breaker_cooldown,
            )
            if config.breaker_p99_ms > 0
            else None
        )
        growth = GrowthWorker(
            graph,
            cloud,
            snapshots,
            fingerprint,
            target_states=config.target_states,
            grow_step=config.grow_step,
            method=campaign["method"],
            kernel=campaign["kernel"],
            seed=campaign["seed"],
            batch_size=campaign["batch_size"],
            swaps_per_state=campaign["swaps_per_state"],
            checkpoint_path=config.checkpoint,
            keep_checkpoints=config.keep_checkpoints,
            policy=RetryPolicy(),
            breaker=breaker,
            round_delay=config.grow_delay_ms / 1000.0,
            workers=config.grow_workers,
            flight_dir=config.flight_dir,
        )
        server = FrustrationServer(
            (config.host, config.port),
            config,
            snapshots,
            TokenBucket(config.qps, config.burst),
            ResultCache(config.cache_size),
            breaker,
            access_log=access_log,
        )
        server.growth = growth
        stack.callback(server.server_close)
        port = server.server_address[1]
        _write_port_file(config, port)
        if own_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: stop.set())
        journal_event(
            "server_started",
            port=port,
            states=cloud.num_states,
            target=config.target_states,
            fingerprint=fingerprint,
        )
        get_registry().gauge("serve.listening_port", float(port))
        accept_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        accept_thread.start()
        if config.grow:
            growth.start()
        print(
            f"serving on http://{config.host}:{port} "
            f"({cloud.num_states}/{config.target_states} states)",
            flush=True,
        )
        if ready_callback is not None:
            ready_callback(port)
        stop.wait()
        # ---- graceful drain ------------------------------------------
        journal_event("server_draining", inflight=server._inflight)
        server.start_draining()  # readyz → 503, new queries refused
        server.shutdown()  # stop accepting; serve_forever returns
        accept_thread.join(timeout=5.0)
        drained = server.wait_idle(config.drain_budget)
        joined = growth.stop(timeout=max(config.drain_budget, 1.0))
        growth.final_checkpoint()  # even mid-campaign or mid-round
        journal_event(
            "server_stopped",
            drained=drained,
            growth_joined=joined,
            states=cloud.num_states,
        )
        flight_dump()  # last black-box write of a clean shutdown
        print(
            f"drained ({cloud.num_states} states checkpointed), exiting",
            flush=True,
        )
    return 0
