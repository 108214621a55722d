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

When a :class:`TraceCollector` is installed (``collecting_trace()`` /
``--trace-out``), every closed span additionally appends one
:class:`SpanEvent` (path, start, end, thread id, trace identity) to it
— the raw material for Chrome/Perfetto export via
:mod:`repro.perf.trace_export`.  While a collector is active, spans
also mint/extend a :class:`~repro.perf.tracectx.TraceContext`: the
first span on a thread roots a new trace (or attaches under an ambient
context installed by :func:`~repro.perf.tracectx.trace_scope`, e.g. a
serve request), and nested spans become its children, so the flat
event list reassembles into causal trees keyed by ``trace_id``.

Pool workers collect into their own bounded collector and ship it back
as a *shard* (:func:`collector_shard`) riding the block result; the
parent folds shards in with :func:`absorb_shard`, which rebases the
worker's ``perf_counter`` timestamps onto the parent's clock via each
shard's wall-clock anchor — one stitched timeline across processes.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

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
    "get_trace_collector",
    "set_trace_collector",
    "collecting_trace",
    "collector_shard",
    "absorb_shard",
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
        if _COLLECTOR is not None:
            # Only pay for trace identity while something records it.
            parent = current_trace()
            if parent is None:
                self._ctx = TraceContext.mint()
                self._parent_id = ""
            else:
                self._ctx = parent.child()
                self._parent_id = parent.span_id
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
        collector = _COLLECTOR
        if collector is not None:
            if ctx is not None:
                collector.record(path, self._start, end, ctx.trace_id,
                                 ctx.span_id, self._parent_id)
            else:
                collector.record(path, self._start, end)
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


@dataclass(frozen=True)
class SpanEvent:
    """One closed span occurrence: nesting path, ``perf_counter``
    start/end, the recording thread's id, and (when a trace context
    was active) its position in the causal tree.

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
    """Thread-safe sink of :class:`SpanEvent` records.

    Install one with :func:`set_trace_collector` (or the
    :func:`collecting_trace` scope) and every span closed while it is
    active appends an event.  Export to Chrome/Perfetto JSON with
    :func:`repro.perf.trace_export.spans_to_events`.

    ``max_events`` bounds the buffer for long-lived processes (the
    serve daemon traces indefinitely): once full, new events are
    dropped and counted in ``dropped`` rather than growing without
    limit.  The default 0 keeps the historical unbounded behaviour for
    short campaign traces.
    """

    def __init__(self, max_events: int = 0) -> None:
        if max_events < 0:
            raise ValueError(
                f"max_events must be >= 0 (0 = unbounded), got {max_events}"
            )
        self.max_events = max_events
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: List[SpanEvent] = []

    def record(self, path: str, start: float, end: float,
               trace_id: str = "", span_id: str = "",
               parent_id: str = "") -> None:
        """Append one closed-span event (called from ``Span.__exit__``).

        Drops (and counts) the event when the buffer is at capacity."""
        self.record_event(SpanEvent(path, start, end,
                                    threading.get_ident(),
                                    trace_id, span_id, parent_id))

    def record_event(self, event: SpanEvent) -> None:
        """Append an already-built event (the shard-absorb path uses
        this to preserve worker thread/pid/trace identity)."""
        with self._lock:
            if self.max_events and len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    def events(self) -> List[SpanEvent]:
        """A snapshot copy of the recorded events, in close order."""
        with self._lock:
            return list(self._events)

    def count_dropped(self, n: int) -> None:
        """Fold *n* drops from an absorbed shard into ``dropped``."""
        if n:
            with self._lock:
                self.dropped += n

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_TRACER = Tracer()
_COLLECTOR: Optional[TraceCollector] = None


def get_trace_collector() -> Optional[TraceCollector]:
    """The installed trace collector, or ``None`` (collection off)."""
    return _COLLECTOR


def set_trace_collector(collector: Optional[TraceCollector]) -> None:
    """Install *collector* as the process-global span-event sink
    (``None`` turns collection off)."""
    global _COLLECTOR
    _COLLECTOR = collector


@contextlib.contextmanager
def collecting_trace(max_events: int = 0) -> Iterator[TraceCollector]:
    """Scope that installs a fresh :class:`TraceCollector`, yielding it::

        with collecting_trace() as trace:
            run_campaign(...)
        write_chrome_trace(spans_to_events(trace.events()), path)

    The previous collector (usually ``None``) is restored on exit.
    Note spans only record when the metrics registry is enabled — a
    disabled registry short-circuits ``Span.__enter__``.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    collector = TraceCollector(max_events)
    _COLLECTOR = collector
    try:
        yield collector
    finally:
        _COLLECTOR = previous


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


# -- cross-process span shards -----------------------------------------
#
# perf_counter timestamps are meaningless across processes, so a shard
# carries a wall-clock *anchor* (``time.time() - time.perf_counter()``
# at ship time).  The parent rebases each event by the difference
# between the shard's anchor and its own, landing worker spans on the
# parent's perf_counter timeline (same machine, so clock skew is the
# NTP-level noise of ``time.time()``, far below span durations).

def collector_shard(collector: TraceCollector) -> Dict[str, Any]:
    """Package *collector*'s events for shipment to another process.

    The shard is plain JSON-able data (it rides pickled block results
    and flight-recorder dumps alike): the worker pid, the wall-clock
    anchor, the drop count, and one compact row per event.
    """
    return {
        "pid": os.getpid(),
        "anchor": time.time() - time.perf_counter(),
        "dropped": collector.dropped,
        "events": [
            [e.path, e.start, e.end, e.thread,
             e.trace_id, e.span_id, e.parent_id]
            for e in collector.events()
        ],
    }


def absorb_shard(collector: TraceCollector, shard: Dict[str, Any]) -> int:
    """Fold a worker's *shard* into *collector*, rebasing timestamps
    onto this process's ``perf_counter`` clock; returns the number of
    events absorbed."""
    offset = float(shard.get("anchor", 0.0)) - (
        time.time() - time.perf_counter()
    )
    pid = int(shard.get("pid", 0))
    absorbed = 0
    for row in shard.get("events", ()):
        path, start, end, thread = row[0], row[1], row[2], row[3]
        trace_id, span_id, parent_id = (
            (row[4], row[5], row[6]) if len(row) >= 7 else ("", "", "")
        )
        collector.record_event(SpanEvent(
            str(path), float(start) + offset, float(end) + offset,
            int(thread), str(trace_id), str(span_id), str(parent_id),
            pid=pid,
        ))
        absorbed += 1
    collector.count_dropped(int(shard.get("dropped", 0)))
    return absorbed
