"""Trace identity: W3C-traceparent contexts threaded across processes.

A :class:`TraceContext` is the identity half of distributed tracing —
a 128-bit ``trace_id`` naming one causal tree (a campaign, an HTTP
request) plus a 64-bit ``span_id`` naming the node the next child
hangs under.  The timing half stays in :mod:`repro.perf.tracing`:
spans read the ambient context at entry, derive a child id, and stamp
both ids on the :class:`~repro.perf.tracing.SpanEvent` they emit, so a
collector's flat event list reassembles into one tree per trace_id.

Wire format is the W3C ``traceparent`` header (version 00)::

    00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01

which is what the serve layer accepts and returns, and — via
:meth:`TraceContext.to_dict` — what rides pickled pool-task payloads
into workers.  Trace ids come from a private :class:`random.Random`
seeded from ``os.urandom`` at import and reseeded in every forked
child (no syscall per id, and a child never replays its parent's
sequence); child span ids come from a cheap per-process counter mixed
with the pid, cached at import and after each fork, so two workers can
never mint the same id.

The ambient context is a thread-local stack: :func:`current_trace`
reads the top, :func:`trace_scope` pushes one for a ``with`` body.
Everything here is allocation-light and lock-free; when tracing is off
nothing in this module runs at all (spans only consult it while a
trace collector is installed).
"""

from __future__ import annotations

import itertools
import os
import random
import re
import threading
from typing import Any, Callable, Dict, NamedTuple, Optional

__all__ = [
    "TraceContext",
    "current_trace",
    "trace_scope",
    "mint_trace",
    "new_span_id",
    "push_trace",
    "pop_trace",
    "clear_traces",
]

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

# Per-process span-id sequence.  Mixing the pid into the high half
# keeps ids unique across pool workers without coordination; the
# urandom seed keeps them unique across successive processes that
# happen to share a recycled pid.
_SPAN_SEQ = itertools.count(int.from_bytes(os.urandom(4), "big"))

#: Trace-id source and this process's pid (hex, the high half of every
#: span id); :func:`_after_fork` renews both in a forked child.
_IDS = random.Random(os.urandom(16))
_PID_HEX = f"{os.getpid() & 0xFFFFFFFF:08x}"


def _after_fork() -> None:
    global _PID_HEX
    _IDS.seed(os.urandom(16))
    _PID_HEX = f"{os.getpid() & 0xFFFFFFFF:08x}"


os.register_at_fork(after_in_child=_after_fork)


def new_span_id() -> str:
    """A 16-hex-char span id unique within (and across) processes."""
    return f"{_PID_HEX}{next(_SPAN_SEQ) & 0xFFFFFFFF:08x}"


def _new_trace_id() -> str:
    """32 random lower-case hex characters, never all zero (W3C's
    invalid trace id)."""
    bits = _IDS.getrandbits(128)
    while not bits:
        bits = _IDS.getrandbits(128)
    return f"{bits:032x}"


#: Builds a :class:`TraceContext` from its two fields without the
#: generated ``__new__``'s extra Python frame (the hot mint/child path).
_pair: Callable[..., Any] = tuple.__new__


class TraceContext(NamedTuple):
    """One position in a causal tree: ``trace_id`` names the tree,
    ``span_id`` the node new children attach under.

    A named pair: immutable, compared and hashed by value, and built at
    tuple cost."""

    trace_id: str
    span_id: str

    @staticmethod
    def mint() -> "TraceContext":
        """A fresh root context with a random 32-hex trace id."""
        return _pair(TraceContext, (_new_trace_id(), new_span_id()))

    def child(self) -> "TraceContext":
        """A context for work nested under this one (same trace, new
        span id)."""
        return _pair(TraceContext, (self.trace_id, new_span_id()))

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value (version 00,
        flags 01 = sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @staticmethod
    def from_traceparent(value: str) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` when malformed or
        carrying the all-zero invalid ids."""
        m = _TRACEPARENT_RE.match(value.strip().lower())
        if m is None:
            return None
        _, trace_id, span_id, _ = m.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return TraceContext(trace_id, span_id)

    def to_dict(self) -> Dict[str, str]:
        """A plain-dict form for pickled task payloads / JSON."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_dict(data: Optional[Dict[str, str]]) -> Optional["TraceContext"]:
        """Inverse of :meth:`to_dict`; tolerates ``None`` and junk."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None
        return TraceContext(str(trace_id), str(span_id))


_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_trace() -> Optional[TraceContext]:
    """The ambient context on this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


class trace_scope:
    """Make *ctx* the ambient context for the ``with`` body.

    Spans opened inside derive their ids from it; nested scopes stack
    (the serve handler pushes the request context, the growth worker
    pushes the campaign context, each restored on exit).
    """

    __slots__ = ("_ctx", "_stack")

    def __init__(self, ctx: TraceContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        self._stack = _stack()
        self._stack.append(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.pop()
        return False


def push_trace(ctx: TraceContext) -> None:
    """Push *ctx* without a ``with`` body (``Span.__enter__`` uses
    this; every push must be paired with one :func:`pop_trace`)."""
    _stack().append(ctx)


def pop_trace() -> None:
    """Undo one :func:`push_trace` (no-op on an empty stack, so an
    unbalanced teardown can't raise from ``__exit__``)."""
    stack = _stack()
    if stack:
        stack.pop()


def clear_traces() -> None:
    """Empty this thread's ambient stack (a forked pool worker drops
    the contexts its forking thread had open)."""
    _stack().clear()


def mint_trace() -> TraceContext:
    """Shorthand for :meth:`TraceContext.mint`."""
    return TraceContext.mint()
