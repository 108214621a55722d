"""Crash flight recorder: the event stream's black box.

A :class:`FlightRecorder` is a record ring
(:class:`~repro.perf.tracing.TraceCollector`) of the last 256 records —
the event stream's records (:func:`repro.perf.journal.journal_event`,
in the journal's shape: ``ts``, ``kind``, fields; no ``seq``) and the
span ends between them — plus the policy that dumps it *atomically* to
a per-pid JSON file.  The design is crash-only, so the dump discipline
matters more than the ring:

* :meth:`~FlightRecorder.mark_inflight` — called at the start of every
  unit of work (a pool block, a growth round) — records what is about
  to run and dumps **immediately**.  A worker killed with ``SIGKILL``
  mid-block therefore always leaves a readable dump naming its
  in-flight block, after the span ends of the phases that closed
  before it; no exit hook is needed because the hook already ran at
  entry.  In-flight marks go to the ring only, never the journal.
* unhandled exceptions (``sys.excepthook`` + ``threading.excepthook``)
  dump with the failure recorded, then chain to the previous hook so
  normal teardown still happens.
* every Nth event record re-dumps (``autodump_every``; span ends do
  not count), bounding how stale a crash dump can be in steady state.

Dumps are ``tmp + fsync + os.replace`` — a reader never sees a torn
file, and repeated dumps overwrite in place (one file per pid,
``flight-<pid>.json``), so a long campaign leaves one small file per
process, not a log.  Worker shards and dumps share one serializer
(:func:`~repro.perf.tracing.collector_shard`).

:func:`flight_recording` is the scope that arms a recorder: it joins
the stream with its crash hooks, and on exit dumps once and leaves the
stream, putting the hooks back.  Pool workers arm theirs for their
whole life with :func:`install_flight_recorder`.
:func:`read_flight_dump` is the validating loader the CLI and chaos
tests use; it also reads dumps written before the ring held journal
records (whose events carry ``wall`` instead of ``ts``).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.perf.journal import _jsonable, get_sinks, install_sink, remove_sink
from repro.perf.tracing import TraceCollector, collector_shard

__all__ = [
    "FlightRecorder",
    "flight_recording",
    "install_flight_recorder",
    "flight_mark_inflight",
    "flight_clear_inflight",
    "read_flight_dump",
    "find_flight_dumps",
    "iter_flight_dumps",
]

#: Dump-format version, checked by :func:`read_flight_dump`.
DUMP_VERSION = 1

#: Default ring capacity — enough for the tail of a campaign without
#: ever making a dump large.
DEFAULT_CAPACITY = 256


def _dump_default(value: Any) -> Any:
    """JSON fallback for a dump: the journal's coercions, else ``str``
    (a dump must never fail on an odd field)."""
    try:
        return _jsonable(value)
    except TypeError:
        return str(value)


class FlightRecorder(TraceCollector):
    """The last *capacity* records of the event stream and the spans
    between them, with atomic crash dumps."""

    stitches = False  # one process's black box: no trace, no shards

    def __init__(self, path: str, capacity: int = DEFAULT_CAPACITY,
                 autodump_every: int = 32) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(capacity)
        self.path = path
        self.autodump_every = autodump_every
        self._inflight: Optional[Dict[str, Any]] = None
        self._since_dump = 0
        self._hooks: Optional[tuple] = None

    # -- recording -----------------------------------------------------

    def append(self, record: Any) -> None:
        """Sink side of the event stream: keep *record* in the ring;
        every ``autodump_every`` event records the ring is re-dumped."""
        self.record_event(record)
        with self._lock:
            self._since_dump += 1
            dump_now = 0 < self.autodump_every <= self._since_dump
            if dump_now:
                self._since_dump = 0
        if dump_now:
            self.dump()

    def _note(self, kind: str, **fields: Any) -> None:
        """A record for this ring alone (process start, in-flight
        marks, crashes): the journal never sees it."""
        self.append({"ts": time.time(), "kind": kind, **fields})

    def mark_inflight(self, **info: Any) -> None:
        """Declare the unit of work about to run and dump immediately,
        so an abrupt kill mid-work leaves a dump naming it."""
        with self._lock:
            self._inflight = {"since": time.time(), **info}
        self._note("inflight", **info)
        self.dump()

    def clear_inflight(self, **fields: Any) -> None:
        """The in-flight work finished normally: recorded and dumped at
        once, so the last dump of a process that ended cleanly never
        names finished work as in flight."""
        with self._lock:
            self._inflight = None
        if fields:
            self._note("completed", **fields)
        self.dump()

    # -- dumping -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The dump document: versioned, self-describing JSON."""
        with self._lock:
            inflight = dict(self._inflight) if self._inflight else None
        return {
            "version": DUMP_VERSION,
            "wall": time.time(),
            "inflight": inflight,
            **collector_shard(self),
        }

    def dump(self) -> Optional[str]:
        """Atomically write the current snapshot to ``self.path``;
        returns the path, or ``None`` if the write failed (a flight
        recorder must never take the process down with it)."""
        # json.dump would stream through the pure-Python encoder: ~4x slower.
        text = json.dumps(self.snapshot(), separators=(",", ":"), default=_dump_default)
        directory = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(self.path) + ".", dir=directory)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            return None
        return self.path

    # -- crash hooks ---------------------------------------------------

    def install_hooks(self) -> None:
        """Arm dump-on-failure: an unhandled exception on any thread is
        recorded and dumped, then handed to the previous hook, so this
        never changes how the process dies.  While the recorder is out
        of the stream (after its scope, or in a forked child) its hooks
        only chain."""
        prev_sys, prev_thread = sys.excepthook, threading.excepthook

        def _excepthook(exc_type, exc, tb):
            self._crashed(error=repr(exc))
            prev_sys(exc_type, exc, tb)

        def _thread_hook(args):  # pragma: no cover - crash path
            self._crashed(error=repr(args.exc_value),
                          thread=getattr(args.thread, "name", None))
            prev_thread(args)

        sys.excepthook, threading.excepthook = _excepthook, _thread_hook
        self._hooks = (prev_sys, prev_thread, _excepthook, _thread_hook)

    def uninstall_hooks(self) -> None:
        """Put back the hooks :meth:`install_hooks` chained onto, each
        unless another hook has replaced ours since."""
        if self._hooks is None:
            return
        prev_sys, prev_thread, ours_sys, ours_thread = self._hooks
        if sys.excepthook is ours_sys:
            sys.excepthook = prev_sys
        if threading.excepthook is ours_thread:
            threading.excepthook = prev_thread
        self._hooks = None

    def _crashed(self, **fields: Any) -> None:
        if any(sink is self for sink in get_sinks()):
            self._note("unhandled_exception", **fields)
            self.dump()


def install_flight_recorder(directory: str, **first_event: Any) -> FlightRecorder:
    """Create a ``<directory>/flight-<pid>.json``-backed recorder, arm
    its crash hooks, add it to the event stream, and return it.  Extra
    kwargs are recorded as a ``started`` event (who/what this process
    is).  Nothing uninstalls it: this is for processes that record for
    their whole life (pool workers); scopes use
    :func:`flight_recording`."""
    os.makedirs(directory, exist_ok=True)
    recorder = FlightRecorder(
        os.path.join(directory, f"flight-{os.getpid()}.json"))
    recorder._note("started", argv0=sys.argv[0] if sys.argv else "",
                   **first_event)
    recorder.install_hooks()
    install_sink(recorder)
    return recorder


@contextlib.contextmanager
def flight_recording(directory: str, **first_event: Any) -> Iterator[FlightRecorder]:
    """Scope that arms a flight recorder (see
    :func:`install_flight_recorder`)::

        with flight_recording("flight/", role="campaign-driver"):
            run_campaign(...)

    On exit it records the exception that ends the scope, if any,
    leaves the event stream, puts back the crash hooks it replaced, and
    dumps once — the last black-box write of a clean shutdown.
    """
    recorder = install_flight_recorder(directory, **first_event)
    try:
        yield recorder
    except BaseException as exc:
        recorder._note("unhandled_exception", error=repr(exc))
        raise
    finally:
        remove_sink(recorder)
        recorder.uninstall_hooks()
        recorder.dump()


def flight_mark_inflight(**info: Any) -> None:
    """Mark in-flight work on every installed recorder (no-op when
    none); each dumps before the work runs."""
    for sink in get_sinks():
        if isinstance(sink, FlightRecorder):
            sink.mark_inflight(**info)


def flight_clear_inflight(**fields: Any) -> None:
    """Clear in-flight work on every installed recorder (no-op when
    none)."""
    for sink in get_sinks():
        if isinstance(sink, FlightRecorder):
            sink.clear_inflight(**fields)


# -- reading dumps -----------------------------------------------------

def read_flight_dump(path: str) -> Dict[str, Any]:
    """Load and validate one flight-recorder dump; raises
    :class:`~repro.errors.ReproError` on a torn or alien file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReproError(f"unreadable flight dump {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != DUMP_VERSION:
        raise ReproError(
            f"{path!r} is not a version-{DUMP_VERSION} flight dump"
        )
    for key in ("pid", "wall", "events"):
        if key not in doc:
            raise ReproError(f"flight dump {path!r} missing {key!r}")
    if not isinstance(doc["events"], list):
        raise ReproError(f"flight dump {path!r} events must be a list")
    return doc


def find_flight_dumps(directory: str) -> List[str]:
    """All ``flight-*.json`` dump paths under *directory*, sorted."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, n)
        for n in names
        if n.startswith("flight-") and n.endswith(".json")
    )


def iter_flight_dumps(directory: str) -> Iterator[Dict[str, Any]]:
    """Yield every readable dump under *directory* (torn files are
    skipped — a half-written tmp should never fail a post-mortem)."""
    for path in find_flight_dumps(directory):
        try:
            yield read_flight_dump(path)
        except ReproError:
            continue
