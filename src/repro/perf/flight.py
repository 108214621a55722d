"""Crash flight recorder: a black box that survives worker death.

A :class:`FlightRecorder` keeps a fixed-size ring of recent events
(journal-style dicts: kind + fields + wall time) in one process and
knows how to dump itself *atomically* to a per-pid JSON file.  The
design is crash-only, so the dump discipline matters more than the
ring:

* :meth:`mark_inflight` — called at the start of every unit of work
  (a pool block, a growth round) — records what is about to run and
  dumps **immediately**.  A worker killed with ``SIGKILL`` mid-block
  therefore always leaves a readable dump naming its in-flight block;
  no exit hook is needed because the hook already ran at entry.
* unhandled exceptions (``sys.excepthook`` + ``threading.excepthook``)
  and ``SIGTERM`` dump with the failure recorded, then chain to the
  previous hook/handler so normal teardown still happens.
* every Nth recorded event re-dumps (``autodump_every``), bounding how
  stale a crash dump can be in steady state.

Dumps are ``tmp + fsync + os.replace`` — a reader never sees a torn
file, and repeated dumps overwrite in place (one file per pid,
``flight-<pid>.json``), so a long campaign leaves one small file per
process, not a log.

The module-global recorder mirrors the journal's shape:
:func:`install_flight_recorder` arms it, :func:`flight_event` is a
cheap no-op until then, and :func:`read_flight_dump` is the validating
loader the CLI / chaos tests use.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.errors import ReproError

__all__ = [
    "FlightRecorder",
    "install_flight_recorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "flight_event",
    "flight_mark_inflight",
    "flight_clear_inflight",
    "flight_dump",
    "read_flight_dump",
    "find_flight_dumps",
    "iter_flight_dumps",
]

#: Dump-format version, checked by :func:`read_flight_dump`.
DUMP_VERSION = 1

#: Default ring capacity — enough for the tail of a campaign without
#: ever making a dump large.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded in-memory event ring with atomic crash dumps."""

    def __init__(self, path: str, capacity: int = DEFAULT_CAPACITY,
                 autodump_every: int = 32) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.path = path
        self.capacity = capacity
        self.autodump_every = autodump_every
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = collections.deque(
            maxlen=capacity)
        self._inflight: Optional[Dict[str, Any]] = None
        self._since_dump = 0
        self._prev_excepthook = None
        self._prev_thread_hook = None
        self._prev_sigterm = None

    # -- recording -----------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event to the ring (oldest events fall off); every
        ``autodump_every`` events the ring is re-dumped to disk."""
        event = {"kind": kind, "wall": time.time(), **fields}
        dump_now = False
        with self._lock:
            self._ring.append(event)
            self._since_dump += 1
            if self.autodump_every and self._since_dump >= self.autodump_every:
                self._since_dump = 0
                dump_now = True
        if dump_now:
            self.dump()

    def mark_inflight(self, **info: Any) -> None:
        """Declare the unit of work about to run and dump immediately,
        so an abrupt kill mid-work leaves a dump naming it."""
        with self._lock:
            self._inflight = {"since": time.time(), **info}
        self.record("inflight", **info)
        self.dump()

    def clear_inflight(self, **fields: Any) -> None:
        """The in-flight work finished normally: recorded and dumped at
        once, so the last dump of a process that ended cleanly never
        names finished work as in flight."""
        with self._lock:
            self._inflight = None
        if fields:
            self.record("completed", **fields)
        self.dump()

    # -- dumping -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The dump document: versioned, self-describing JSON."""
        with self._lock:
            events = list(self._ring)
            inflight = dict(self._inflight) if self._inflight else None
        return {
            "version": DUMP_VERSION,
            "pid": os.getpid(),
            "wall": time.time(),
            "inflight": inflight,
            "events": events,
        }

    def dump(self) -> Optional[str]:
        """Atomically write the current snapshot to ``self.path``;
        returns the path, or ``None`` if the write failed (a flight
        recorder must never take the process down with it)."""
        doc = self.snapshot()
        directory = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(self.path) + ".", dir=directory)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"), default=str)
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

    def install_hooks(self, sigterm: bool = False) -> None:
        """Arm dump-on-failure: unhandled exceptions on any thread
        always dump; ``sigterm=True`` additionally dumps on SIGTERM
        (only from the main thread — signal handlers can't be set
        elsewhere).  Previous hooks/handlers are chained after the
        dump, so this never changes how the process actually dies."""
        self._prev_excepthook = sys.excepthook

        def _excepthook(exc_type, exc, tb):  # pragma: no cover - crash path
            self.record("unhandled_exception", error=repr(exc))
            self.dump()
            (self._prev_excepthook or sys.__excepthook__)(exc_type, exc, tb)

        sys.excepthook = _excepthook

        self._prev_thread_hook = threading.excepthook

        def _thread_hook(args):  # pragma: no cover - crash path
            self.record("unhandled_exception",
                        error=repr(args.exc_value),
                        thread=getattr(args.thread, "name", None))
            self.dump()
            (self._prev_thread_hook or threading.__excepthook__)(args)

        threading.excepthook = _thread_hook

        if sigterm and threading.current_thread() is threading.main_thread():
            prev = signal.getsignal(signal.SIGTERM)
            self._prev_sigterm = prev

            def _on_sigterm(signum, frame):  # pragma: no cover - crash path
                self.record("sigterm")
                self.dump()
                if callable(prev):
                    prev(signum, frame)
                else:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, _on_sigterm)


# -- module-global recorder (journal-style) ----------------------------

_RECORDER: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The installed recorder, or ``None`` (recording off)."""
    return _RECORDER


def set_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Install *recorder* as the process-global flight recorder."""
    global _RECORDER
    _RECORDER = recorder


def install_flight_recorder(
    directory: str,
    capacity: int = DEFAULT_CAPACITY,
    sigterm: bool = False,
    **first_event: Any,
) -> FlightRecorder:
    """Create ``<directory>/flight-<pid>.json``-backed recorder, arm
    its crash hooks, install it globally, and return it.  Extra kwargs
    are recorded as a ``started`` event (who/what this process is)."""
    os.makedirs(directory, exist_ok=True)
    recorder = FlightRecorder(
        os.path.join(directory, f"flight-{os.getpid()}.json"),
        capacity=capacity,
    )
    recorder.install_hooks(sigterm=sigterm)
    recorder.record("started", argv0=sys.argv[0] if sys.argv else "",
                    **first_event)
    set_flight_recorder(recorder)
    return recorder


def flight_event(kind: str, **fields: Any) -> None:
    """Record into the global recorder; cheap no-op when none."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.record(kind, **fields)


def flight_mark_inflight(**info: Any) -> None:
    """Mark in-flight work on the global recorder (no-op when none)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.mark_inflight(**info)


def flight_clear_inflight(**fields: Any) -> None:
    """Clear in-flight work on the global recorder (no-op when none)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.clear_inflight(**fields)


def flight_dump() -> Optional[str]:
    """Force a dump of the global recorder; returns the path or
    ``None`` when no recorder is installed / the write failed."""
    recorder = _RECORDER
    if recorder is not None:
        return recorder.dump()
    return None


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
