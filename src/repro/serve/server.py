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
import email.utils
import json
import math
import re
import signal
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
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
from repro.perf.flight import flight_recording
from repro.perf.journal import Journal, journal_event, journaling
from repro.perf.registry import get_registry
from repro.perf.trace_export import events_for_trace, spans_to_events
from repro.perf.tracectx import TraceContext, trace_scope
from repro.perf.tracing import TraceCollector, collecting_trace, span
from repro.serve.admission import TokenBucket
from repro.serve.breaker import CircuitBreaker
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

#: ``http.client``'s bounds on a request head: bytes in one line, and
#: lines in the head counting the blank line that ends it.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100
#: One ``name: value`` header line: a name of visible ASCII characters
#: but the colon, and a value with no bare CR (whitespace around it is
#: not part of it).
_FIELD = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*?)[ \t]*\r?\n?")


#: ``(second, Date header value)`` of the last answer's second.
_date = (math.nan, "")


def _http_date(now: float) -> str:
    """``email.utils.formatdate(now, usegmt=True)``, formatted once per
    second.  No lock: threads that race here write the same value, and
    each writes it with one tuple store."""
    global _date
    second = math.floor(now)
    memo_second, value = _date
    if second != memo_second:
        value = email.utils.formatdate(second, usegmt=True)
        _date = (second, value)
    return value


class _RequestHead(dict):
    """Request headers by lower-cased name; the first of duplicates wins."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The first value of header *name* (any case), or *default*."""
        return dict.get(self, name.lower(), default)


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` version, or None if bad.

    Each number is one to ten ASCII digits, as in the stdlib of
    Python 3.11.7, 3.12 and 3.13; that of 3.10.13 or 3.11.2 also takes
    ``+1``, ``1_1`` or a longer number, which the daemon answers 400.
    """
    if not version.startswith("HTTP/"):
        return None
    major, _, minor = version[5:].partition(".")
    if not (major.isdigit() and minor.isdigit()
            and len(major) <= 10 and len(minor) <= 10):
        return None  # also no dot, or more than one
    try:
        return int(major), int(minor)
    except ValueError:  # isdigit() takes digits int() does not, e.g. '²'
        return None


@dataclass
class ServeConfig:
    """Every knob of the daemon, with production-shaped defaults.

    Campaign parameters (``method``, ``seed``, ``swaps_per_state``)
    default to ``None`` = "inherit from the
    recovered checkpoint's campaign, or the historical defaults on a
    fresh boot"; passing one explicitly on a resume must
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
    seed: Optional[int] = None
    swaps_per_state: Optional[int] = None
    # -- persistence ----------------------------------------------------
    checkpoint: Optional[Path] = None
    keep_checkpoints: int = 2
    journal: Optional[Path] = None
    # -- admission / breaker --------------------------------------------
    qps: float = 0.0  # 0 disables admission control
    burst: int = 32
    breaker_p99_ms: float = 0.0  # 0 disables the breaker
    breaker_window: int = 128
    breaker_cooldown: float = 2.0
    # -- lifecycle ------------------------------------------------------
    drain_budget: float = 10.0
    request_timeout: float = 10.0  # slow-client guard, seconds
    # -- observability --------------------------------------------------
    access_log: Optional[Path] = None  # JSONL, one line per query
    debug_trace: bool = False  # /debug/trace + /debug/grow + record ring
    flight_dir: Optional[Path] = None  # crash flight-recorder dumps
    trace_max_events: int = 4096  # record ring bound while tracing
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
    # _respond sends each answer in one write, but an answer larger
    # than a segment, and the stdlib's error and 100-continue replies
    # (head and body in separate writes), still end on a partial
    # segment; without TCP_NODELAY the Nagle + delayed-ACK interaction
    # stalls keep-alive clients ~40ms on those.
    disable_nagle_algorithm = True
    server: "FrustrationServer"

    # Per-request identity, minted in do_GET after the probe check.
    _request_id = ""
    _request_ctx: Optional[TraceContext] = None
    _status = 0
    _outcome = "ok"

    def setup(self) -> None:
        """Arm the per-connection slow-client timeout before reading."""
        self.timeout = self.server.config.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr chatter (metrics cover it)."""

    def date_time_string(self, timestamp: Optional[float] = None) -> str:
        """The ``Date`` header value; the current one is kept per second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        return _http_date(time.time())

    # -- request head ---------------------------------------------------
    def parse_request(self) -> bool:
        """Parse the request line and head; False once an error is sent.

        The request line means what it means to
        ``BaseHTTPRequestHandler.parse_request``, error replies and
        their reason phrases included: 400 for bad syntax or version,
        505 from HTTP/2.0, ``GET`` only on HTTP/0.9, a leading ``//``
        collapsed, keep-alive by default from HTTP/1.1 on.  Header lines
        are read within ``http.client``'s bounds (431 past 100 lines or
        a 65,536-byte line), but without its general ``email`` parser:
        ``self.headers`` keeps the first of duplicate names.  Three
        cases are stricter than the stdlib: a line that is not one
        ``name: value`` field (no colon, a name that is not visible
        ASCII, a bare CR) is a 400 where the stdlib drops the rest of
        the head, an obs-fold continuation line is a 400, and
        whitespace around a value is stripped.  That 400 goes out once
        the head is read to its blank line: closing a socket with
        unread bytes makes the kernel send RST, which can reach the
        client before the answer.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad request version (%r)" % version)
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % version[5:])
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad HTTP/0.9 request type (%r)" % command)
                return False
        if path.startswith("//"):
            # An open-redirect guard: clients read //host/path as a URL.
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        headers = _RequestHead()
        bad = None
        readline = self.rfile.readline
        for count in range(1, _MAX_HEAD_LINES + 2):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    "got more than %d bytes when reading header line"
                    % _MAX_LINE)
                return False
            if count > _MAX_HEAD_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    "got more than %d headers" % _MAX_HEAD_LINES)
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            field = _FIELD.fullmatch(line)
            if field is None:
                bad = bad or line
            else:
                headers.setdefault(
                    field[1].decode("ascii").lower(),
                    field[2].decode("iso-8859-1"))
        if bad is not None:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                "Bad header line (%r)" % bad.rstrip(b"\r\n"))
            return False
        self.headers = headers

        conntype = headers.get("connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if (headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's error reply, counted and access-logged like
        every other answer.  Only a request the daemon cannot read
        reaches it: a bad head (400, 414, 431, 505) or a method it has
        no handler for (501)."""
        start = time.monotonic()
        self._request_id, self._request_ctx = "", None
        if not self.command:
            self.path = ""  # no request line was read
        super().send_error(code, message, explain)
        self._status = int(code)
        get_registry().count(f"serve.http_{self._status}_total", 1)
        self._access(start, outcome="bad_head")

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
        """Send one answer: status line, headers and body in one write.

        The headers are those ``send_response`` + ``send_header`` would
        send, in the same order; one write instead of a head write and
        a body write saves a send per answer.  HTTP/0.9 gets the body
        alone, as from the stdlib.
        """
        if self.request_version != "HTTP/0.9":
            head = [
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
            ]
            if self._request_id:
                head.append(f"X-Request-Id: {self._request_id}\r\n")
            if self._request_ctx is not None:
                head.append(
                    f"traceparent: {self._request_ctx.to_traceparent()}\r\n"
                )
            if retry_after is not None:
                head.append(
                    f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
                )
            if self.server.draining:
                head.append("Connection: close\r\n")
                self.close_connection = True
            head.append("\r\n")
            body = "".join(head).encode("latin-1") + body
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
        slices the daemon's bounded record ring down to one causal tree
        — HTTP request span, growth rounds it caused, and any absorbed
        worker-process spans — ready to save and load in Perfetto; its
        ``otherData.dropped`` counts the records the ring has let go.
        404 unless ``debug_trace`` is on.
        """
        server = self.server
        ring = server.trace_ring
        if ring is None:
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
        selected = events_for_trace(ring.events(), trace_id)
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
                "dropped": ring.dropped,
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
            outcome=outcome,
        )

    def _handle_query(self) -> None:
        server = self.server
        registry = get_registry()
        registry.count("serve.requests_total", 1)
        ctx = self._request_ctx
        wall_start = time.monotonic()
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
            status, ctype, body = route_query(self.path, snapshot, deadline)
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
    #: for ``/debug/trace?request_id=`` lookups (with ``debug_trace``
    #: on; nothing reads them otherwise, so nothing is kept).
    RECENT_REQUESTS = 1024

    def __init__(
        self,
        address: Tuple[str, int],
        config: ServeConfig,
        snapshots: SnapshotStore,
        bucket: TokenBucket,
        breaker: Optional[CircuitBreaker],
        access_log: Optional[Journal] = None,
    ) -> None:
        """Bind the listener and attach the serve-layer components."""
        super().__init__(address, _RequestHandler)
        self.config = config
        self.snapshots = snapshots
        self.bucket = bucket
        self.breaker = breaker
        self.access_log = access_log
        self.growth: Optional[GrowthWorker] = None
        #: The record ring behind ``/debug/trace`` (``debug_trace``).
        self.trace_ring: Optional[TraceCollector] = None
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Condition()
        self._recent_lock = threading.Lock()
        self._recent: "collections.OrderedDict[str, str]" = (
            collections.OrderedDict()
        )

    # -- request → trace identity ring ----------------------------------
    def remember_request(self, request_id: str, trace_id: str) -> None:
        """Record one answered request's trace id (bounded LRU ring),
        when ``debug_trace`` is on."""
        if not request_id or not self.config.debug_trace:
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
            seed=config.seed,
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
        seed=config.seed,
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
        # Observability plumbing, all opt-in: the bounded record ring
        # backs /debug/trace, the flight recorder leaves crash dumps
        # (and a last one on exit), the access log narrates every
        # query.  Each scope takes its process-global sink back on
        # exit, so embedded/test daemons don't leak state into their
        # host.
        trace_ring = stack.enter_context(
            collecting_trace(config.trace_max_events)
        ) if config.debug_trace else None
        if config.flight_dir is not None:
            stack.enter_context(flight_recording(
                str(config.flight_dir), role="serve-daemon"))
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
            seed=campaign["seed"],
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
            breaker,
            access_log=access_log,
        )
        server.growth = growth
        server.trace_ring = trace_ring
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
        print(
            f"drained ({cloud.num_states} states checkpointed), exiting",
            flush=True,
        )
    return 0
