"""Span-based tracing over the metrics registry.

A *span* is a timed, nested phase of work.  The campaign drivers wrap
their hot phases in spans forming the hierarchy::

    campaign > block > tree_sample > balance
             > accumulate > checkpoint_write

(in-process blocks nest under ``campaign``; the ``block`` span is
the root inside a pool worker, whose snapshot merges back into the
parent's ``campaign`` window).

Each span records three things into the *active*
:class:`~repro.perf.registry.MetricsRegistry` (resolved at span entry,
so a span opened inside a :func:`~repro.perf.registry.collecting`
scope lands in that scope):

* counter ``span.<path>.seconds`` — total wall seconds in the span,
* counter ``span.<path>.calls`` — number of entries,
* histogram ``span.<path>`` — the per-call duration distribution,

where ``<path>`` is the ``/``-joined nesting path on the current
thread (``campaign/tree_sample``).  Phase breakdowns aggregate these by
leaf name (see :func:`repro.perf.export.phase_seconds`), so the same
phase is comparable whether it ran under ``campaign`` or ``block``.

Overhead: when the active registry is disabled, ``__enter__`` does one
attribute check and returns — no clock read, no allocation beyond the
span object itself.  When enabled, a span costs two ``perf_counter``
reads plus three locked registry updates, paid once per *phase*, never
per edge or per vertex.

Each span end also goes, as one :class:`SpanEvent`, to every record
ring (:class:`TraceCollector`) in the event stream, in order with its
event records: the trace collector and the crash flight recorder
(:mod:`repro.perf.flight`).  While a trace collector is installed,
spans also mint/extend a :class:`~repro.perf.tracectx.TraceContext`
(rooting a trace, or attaching under an ambient one such as a serve
request's), so the flat list reassembles into causal trees keyed by
``trace_id``.  One serializer (:func:`collector_shard`) writes a ring
for a pool worker's shard and a flight dump alike; the parent folds
shards into its trace collectors with :func:`absorb_shard`, on its own
``perf_counter`` clock — one stitched timeline across processes.
"""

from __future__ import annotations

import collections
import contextlib
import os
import threading
import time
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.perf.journal import install_sink, remove_sink, watch_sinks
from repro.perf.registry import MetricsRegistry, get_registry
from repro.perf.tracectx import TraceContext, current_trace, pop_trace, push_trace

__all__ = [
    "SPAN_PREFIX",
    "Span",
    "SpanEvent",
    "Tracer",
    "TraceCollector",
    "get_tracer",
    "span",
    "collecting_trace",
    "collector_shard",
    "absorb_shard",
    "stitching_rings",
]

#: Registry-name prefix marking span-derived metrics.
SPAN_PREFIX = "span."


class Span:
    """One span occurrence; use as a context manager."""

    __slots__ = ("_tracer", "name", "path", "_registry", "_start",
                 "_ctx", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.path: Optional[str] = None
        self._registry: Optional[MetricsRegistry] = None
        self._start = 0.0
        self._ctx: Optional[TraceContext] = None
        self._parent_id = ""

    def __enter__(self) -> "Span":
        registry = get_registry()
        if not registry.enabled:
            return self
        self._registry = registry
        stack = self._tracer._stack()
        self.path = f"{stack[-1]}/{self.name}" if stack else self.name
        stack.append(self.path)
        if _STITCHERS:
            # Only pay for trace identity while a ring stitches it.
            parent = current_trace()
            if parent is None:
                self._ctx, self._parent_id = TraceContext.mint(), ""
            else:
                self._ctx, self._parent_id = parent.child(), parent.span_id
            push_trace(self._ctx)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        registry = self._registry
        if registry is None:
            return False
        end = time.perf_counter()
        elapsed = end - self._start
        self._tracer._stack().pop()
        path = self.path
        registry.count(f"{SPAN_PREFIX}{path}.seconds", elapsed)
        registry.count(f"{SPAN_PREFIX}{path}.calls", 1)
        registry.observe(f"{SPAN_PREFIX}{path}", elapsed)
        ctx = self._ctx
        if ctx is not None:
            pop_trace()
            self._ctx = None
        rings = _RINGS
        if rings:
            trace_id, span_id = (ctx.trace_id, ctx.span_id) if ctx else ("", "")
            event = SpanEvent(path, self._start, end, threading.get_ident(),
                              trace_id, span_id, self._parent_id)
            for ring in rings:
                ring.record_event(event)
        self._registry = None
        return False


class Tracer:
    """Per-thread span nesting over the active metrics registry.

    The process-global tracer (:func:`get_tracer`) is what the library
    instruments with; separate tracers exist only to isolate nesting
    paths in tests.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> Span:
        """A new span named *name*, nested under the current span (if
        any) on this thread."""
        return Span(self, name)

    def current_path(self) -> Optional[str]:
        """The innermost open span path on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None


class SpanEvent(NamedTuple):
    """One closed span occurrence: nesting path, ``perf_counter``
    start/end, the recording thread's id, and (when a trace collector
    was installed) its position in the causal tree.  A named tuple, as
    every span end builds one while a ring is installed.

    ``pid`` is 0 for events recorded in this process; events absorbed
    from a worker shard carry the worker's pid so export can lay them
    on their own process row."""

    path: str
    start: float
    end: float
    thread: int
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    pid: int = 0

    @property
    def duration(self) -> float:
        """Seconds spent in this occurrence."""
        return self.end - self.start


class TraceCollector:
    """A ring of span ends and event records, in the order they closed
    or were emitted: the one in-memory record buffer of a process.

    In the event stream (:func:`~repro.perf.journal.install_sink`, or
    the :func:`collecting_trace` scope) it keeps every
    :func:`~repro.perf.journal.journal_event` record and every span
    that closes.  :meth:`events` returns the span ends alone, for
    Chrome/Perfetto export via
    :func:`repro.perf.trace_export.spans_to_events`.

    ``max_events`` bounds the ring for long-lived processes (the serve
    daemon traces indefinitely): once full, the oldest record falls off
    for each new one and is counted in ``dropped``.  The default 0
    keeps every record, for short campaign traces.
    """

    #: While a ring that stitches is in the stream, spans mint trace
    #: identity and pool workers' spans are absorbed into it.
    stitches = True

    def __init__(self, max_events: int = 0) -> None:
        if max_events < 0:
            raise ValueError(
                f"max_events must be >= 0 (0 = unbounded), got {max_events}"
            )
        self.max_events = max_events
        self.dropped = 0
        self._lock = threading.Lock()
        self._records: Deque[Any] = collections.deque(
            maxlen=max_events or None)

    def record_event(self, record: Any) -> None:
        """Keep one record: a closed span's :class:`SpanEvent` (from
        ``Span.__exit__`` or an absorbed shard) or an event record."""
        with self._lock:
            if self.max_events and len(self._records) == self.max_events:
                self.dropped += 1
            self._records.append(record)

    #: Sink side of the event stream: an event record is kept like a
    #: span end.
    append = record_event

    def records(self) -> List[Any]:
        """A snapshot copy of every record, oldest first."""
        with self._lock:
            return list(self._records)

    def events(self) -> List[SpanEvent]:
        """The span ends among the records, in close order."""
        return [r for r in self.records() if isinstance(r, SpanEvent)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


_TRACER = Tracer()

#: The rings among the event stream's sinks, and those that stitch.
_RINGS: Tuple[TraceCollector, ...] = ()
_STITCHERS: Tuple[TraceCollector, ...] = ()


def _watch_sinks(sinks: Tuple[Any, ...]) -> None:
    global _RINGS, _STITCHERS
    _RINGS = tuple(s for s in sinks if isinstance(s, TraceCollector))
    _STITCHERS = tuple(r for r in _RINGS if r.stitches)


watch_sinks(_watch_sinks)


def stitching_rings() -> Tuple[TraceCollector, ...]:
    """The installed rings that stitch traces: where shards go."""
    return _STITCHERS


@contextlib.contextmanager
def collecting_trace(max_events: int = 0) -> Iterator[TraceCollector]:
    """Scope that adds a fresh :class:`TraceCollector` to the event
    stream, yielding it::

        with collecting_trace() as trace:
            run_campaign(...)
        write_chrome_trace(spans_to_events(trace.events()), path)

    On exit it leaves the stream.  Note spans only record when the
    metrics registry is enabled — a disabled registry short-circuits
    ``Span.__enter__``.
    """
    collector = TraceCollector(max_events)
    install_sink(collector)
    try:
        yield collector
    finally:
        remove_sink(collector)


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str) -> Span:
    """Shorthand for ``get_tracer().span(name)`` — the way the library
    instruments its hot paths::

        with span("balance"):
            signs, s2r = balance_batch(graph, batch)
    """
    return _TRACER.span(name)


# -- the ring as plain data --------------------------------------------
#
# perf_counter timestamps are meaningless across processes, so the
# serializer writes span times on the wall clock (``perf_counter`` +
# ``time.time() - time.perf_counter()`` at write time) and the reader
# moves them back onto its own perf_counter (same machine, so clock
# skew is the NTP-level noise of ``time.time()``, far below span
# durations).

def collector_shard(collector: TraceCollector) -> Dict[str, Any]:
    """*collector*'s ring as plain JSON-able data: a pool worker's
    shard riding its block result, and the body of a flight dump.

    Holds this pid, the drop count, and the records oldest first: each
    event record as it is, each span end as a ``kind: "span"`` row
    with wall-clock ``start`` / ``end`` and its pid.
    """
    records = collector.records()
    anchor = time.time() - time.perf_counter()
    pid = os.getpid()
    return {
        "pid": pid,
        "dropped": collector.dropped,
        "events": [
            {"kind": "span", "path": r.path, "start": r.start + anchor,
             "end": r.end + anchor, "thread": r.thread,
             "pid": r.pid or pid, "trace_id": r.trace_id,
             "span_id": r.span_id, "parent_id": r.parent_id}
            if isinstance(r, SpanEvent) else r
            for r in records
        ],
    }


def absorb_shard(collector: TraceCollector, shard: Dict[str, Any]) -> int:
    """Fold the span ends of a worker's *shard* into *collector*,
    moved onto this process's ``perf_counter`` clock, and add the
    shard's drops to ``dropped``; returns the number of spans
    absorbed."""
    anchor = time.time() - time.perf_counter()
    spans = [row for row in shard.get("events", ())
             if row.get("kind") == "span"]
    for row in spans:
        collector.record_event(SpanEvent(
            str(row["path"]), float(row["start"]) - anchor,
            float(row["end"]) - anchor, int(row["thread"]),
            str(row["trace_id"]), str(row["span_id"]),
            str(row["parent_id"]), pid=int(row["pid"]),
        ))
    with collector._lock:
        collector.dropped += int(shard.get("dropped", 0))
    return len(spans)
