"""Append-only campaign event journal (JSONL) with crash-safe reads.

Long campaigns need a durable, replayable record of *what happened* —
block retries, degradations, checkpoint writes, convergence snapshots —
that survives the process dying mid-line.  The journal is a plain JSONL
file:

* **append-only, line-buffered** — every event is one JSON object on
  one line, flushed as it is written; a crash can tear at most the
  final line;
* **self-numbering** — events carry a monotonically increasing ``seq``
  (continued across re-opens, so a resumed campaign appends after the
  crash point) plus a wall-clock ``ts``;
* **valid-prefix recovery** — :func:`read_journal` replays every intact
  line and tolerates a torn final line (``strict=True`` raises
  :class:`~repro.errors.JournalError` for corruption *before* the
  tail);
* **replayable** — :func:`summarize_journal` folds a journal into the
  same counts a live :class:`~repro.parallel.supervisor.RunReport`
  carries, so ``repro journal summarize`` cross-checks a finished (or
  half-finished) run without its process.

Emission is decoupled from the campaign code via one process-global
event stream: drivers call :func:`journal_event` unconditionally, which
builds one record (``ts``, ``kind``, fields) and hands it to every
installed sink — the journal (``--journal`` / :func:`journaling`),
which adds ``seq``, and the record rings, which also keep span ends
(:mod:`repro.perf.tracing`, :mod:`repro.perf.flight`).  With
no sink installed it is a single emptiness check.  Events therefore
never change results — they only append to side files.
"""

from __future__ import annotations

import contextlib
import errno
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import JournalError

__all__ = [
    "Journal",
    "events_enabled",
    "get_sinks",
    "install_sink",
    "journal_event",
    "journaling",
    "remove_sink",
    "reset_sinks",
    "read_journal",
    "summarize_journal",
    "render_summary",
    "watch_sinks",
]

PathLike = Union[str, Path]

# Fault-injection seam (see repro.util.faults): journal writes go
# through this module attribute so disk-full tests can fail them
# without touching the real file object.
_wrap_stream = lambda fh: fh  # noqa: E731 - deliberate seam, like checkpoint's


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays so campaign payloads serialize."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class Journal:
    """An open, line-buffered append-only event journal.

    Journal writes are best-effort by contract: an I/O failure on
    *emit* (classically ENOSPC) must never kill the campaign or daemon
    that was merely narrating its progress.  The first failed write
    flips the journal into a **degraded** state — the failure is
    counted (``journal.write_errors_total``) and every later emit
    becomes a cheap no-op — rather than raising into code that treats
    journaling as free.
    """

    def __init__(self, path: PathLike) -> None:
        """Open (creating or appending to) the journal at *path*.

        When the file already has events, numbering continues after the
        last intact line — a resumed campaign's events sort after the
        crash point.  A torn final line (crash mid-write) is
        truncated away first, so the next event starts on a fresh line
        instead of gluing itself onto the partial record.
        """
        self.path = Path(path)
        self.degraded = False
        # One journal is shared by every thread of a campaign or the
        # serve daemon; the lock keeps (seq assignment, line write)
        # atomic so records never interleave or reuse a seq.
        self._lock = threading.Lock()
        try:
            if self.path.exists():
                existing, torn, tail_offset = _read_lines(self.path)
                if torn:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(tail_offset)
            else:
                existing = []
            self._seq = (existing[-1]["seq"] + 1) if existing else 0
            # buffering=1: line-buffered — each event line is pushed to
            # the OS as soon as it is complete.
            self._fh = open(self.path, "a", buffering=1, encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot open journal {path}: {exc}") from exc

    def emit(self, kind: str, **fields: Any) -> int:
        """Append one event line; returns its sequence number (see
        :meth:`append`)."""
        return self.append({"ts": time.time(), "kind": kind, **fields})

    def append(self, record: Dict[str, Any]) -> int:
        """Sink side of the event stream: write *record* as one line
        under the next ``seq``; returns that sequence number.

        Returns ``-1`` without writing once the journal has degraded
        (a previous write failed); the event is dropped, never raised.
        """
        with self._lock:
            if self.degraded:
                return -1
            seq = self._seq
            line = json.dumps(
                {"seq": seq, **record}, default=_jsonable,
                separators=(",", ":"),
            )
            try:
                fh = _wrap_stream(self._fh)
                fh.write(line + "\n")
                fh.flush()
            except OSError as exc:
                self._degrade(exc)
                return -1
            self._seq += 1
            return seq

    def _degrade(self, exc: OSError) -> None:
        """Flip into drop-everything mode after a failed write."""
        # Import here: registry -> journal would otherwise be a cycle.
        from repro.perf.registry import get_registry

        self.degraded = True
        registry = get_registry()
        registry.count("journal.write_errors_total", 1)
        if exc.errno == errno.ENOSPC:
            registry.count("journal.disk_full_total", 1)
        registry.gauge("journal.degraded", 1.0)

    def close(self) -> None:
        """Flush and close the underlying file (best-effort: a full
        disk at close time is already recorded, not re-raised)."""
        if not self._fh.closed:
            with contextlib.suppress(OSError):
                self._fh.flush()
            with contextlib.suppress(OSError):
                self._fh.close()

    def __enter__(self) -> "Journal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close on scope exit; never swallows exceptions."""
        self.close()
        return False


# -- the one event stream ----------------------------------------------
#
# The sinks live in one tuple that is replaced, never mutated, so
# journal_event reads it without a lock; watchers see each new one.
_SINKS: Tuple[Any, ...] = ()
_SINKS_LOCK = threading.Lock()
_WATCHERS: List[Callable[[Tuple[Any, ...]], None]] = []


def _publish(sinks: Tuple[Any, ...]) -> None:
    global _SINKS
    _SINKS = sinks
    for watcher in _WATCHERS:
        watcher(sinks)


def watch_sinks(callback: Callable[[Tuple[Any, ...]], None]) -> None:
    """Call *callback* with the sink tuple now and at every change (the
    tracer keeps its record rings so)."""
    _WATCHERS.append(callback)
    callback(_SINKS)


def get_sinks() -> Tuple[Any, ...]:
    """The installed event sinks, in install order (empty: events off)."""
    return _SINKS


def events_enabled() -> bool:
    """Whether a :func:`journal_event` record reaches any sink — the
    guard for events whose fields cost work to compute."""
    return bool(_SINKS)


def install_sink(sink: Any) -> None:
    """Add *sink* (anything with ``append(record)``) to the stream."""
    with _SINKS_LOCK:
        _publish(_SINKS + (sink,))


def remove_sink(sink: Any) -> None:
    """Take *sink* out of the stream (a no-op when it is not in it)."""
    with _SINKS_LOCK:
        _publish(tuple(s for s in _SINKS if s is not sink))


def reset_sinks() -> None:
    """Drop every sink at once: what a fork-start pool worker does with
    the journal and recorders it inherited from its parent.  The parent
    may have held the lock at fork time, so it is replaced, not taken:
    an inherited held lock would block the worker's next
    :func:`install_sink` for ever."""
    global _SINKS_LOCK
    _SINKS_LOCK = threading.Lock()
    _publish(())


def journal_event(kind: str, **fields: Any) -> None:
    """Emit one event: build its record (``ts``, ``kind``, fields) and
    hand it to every installed sink.  A single emptiness check when
    none is installed — the instrumentation the campaign drivers call
    unconditionally."""
    sinks = _SINKS
    if sinks:
        record = {"ts": time.time(), "kind": kind, **fields}
        for sink in sinks:
            sink.append(record)


@contextlib.contextmanager
def journaling(path: PathLike) -> Iterator[Journal]:
    """Scope that opens a journal at *path* and installs it as a sink::

        with journaling("run.jsonl"):
            sample_cloud_pool(...)

    On exit, crash or not, the journal leaves the stream and the file
    is closed.
    """
    journal = Journal(path)
    install_sink(journal)
    try:
        yield journal
    finally:
        remove_sink(journal)
        journal.close()


# ----------------------------------------------------------------------
# Reading / replay


def _read_lines(path: Path) -> Tuple[List[Dict[str, Any]], bool, int]:
    """(intact events, torn_tail, tail_offset).  Stops at the first
    corrupt line; the corruption counts as a torn tail only if nothing
    intact follows it (i.e. it *is* the tail).  ``tail_offset`` is the
    byte offset where the torn tail starts (the file size when intact),
    which is where an appending re-open truncates to."""
    events: List[Dict[str, Any]] = []
    torn = False
    with open(path, "rb") as fh:
        data = fh.read()
    raw_lines = data.split(b"\n")
    offset = 0
    tail_offset = len(data)
    for i, raw in enumerate(raw_lines):
        try:
            if not raw.strip():
                continue
            try:
                event = json.loads(raw.decode("utf-8"))
                if not isinstance(event, dict) or "kind" not in event:
                    raise ValueError("not an event object")
            except (ValueError, UnicodeDecodeError):
                torn = True
                remainder = b"".join(raw_lines[i + 1:]).strip()
                if remainder:
                    # Corruption mid-file: the prefix is still valid,
                    # but this is worse than a torn tail.
                    raise JournalError(
                        f"{path}: corrupt journal line {i} with intact "
                        "lines after it"
                    ) from None
                tail_offset = offset
                break
            events.append(event)
        finally:
            offset += len(raw) + 1
    return events, torn, tail_offset


def read_journal(
    path: PathLike, strict: bool = False
) -> List[Dict[str, Any]]:
    """Replay the journal at *path*, returning its intact events.

    A torn final line (the signature of a crash mid-write) is silently
    dropped; corruption *before* intact lines always raises
    :class:`~repro.errors.JournalError`, and ``strict=True`` raises for
    a torn tail too.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    events, torn, _tail = _read_lines(path)
    if torn and strict:
        raise JournalError(f"{path}: torn final line")
    return events


#: Event kinds whose summary field counts their occurrences.
_COUNTED = {
    "block_retried": "retries", "block_timeout": "timeouts",
    "pool_rebuilt": "pool_rebuilds", "block_degraded": "degraded",
    "checkpoint_written": "checkpoints", "serve_degraded": "serve_degraded",
    "serve_recovered": "serve_recovered", "disk_full": "disk_full",
}


def summarize_journal(path: PathLike) -> Dict[str, Any]:
    """Fold a journal into campaign-level counts.

    The block/retry/timeout/quarantine counts are defined to match the
    corresponding :class:`~repro.parallel.supervisor.RunReport` fields,
    so a summarized journal cross-checks the live report of the run
    that wrote it.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    events, torn, _tail = _read_lines(path)
    kinds: Dict[str, int] = {}
    summary: Dict[str, Any] = {
        "path": str(path),
        "events": len(events),
        "torn_tail": torn,
        "kinds": kinds,
        "campaign": {},
        "states": 0,
        "blocks_completed": 0,
        "retries": 0,
        "timeouts": 0,
        "pool_rebuilds": 0,
        "quarantined": [],
        "degraded": 0,
        "deadline_hit": False,
        "checkpoints": 0,
        "completed": False,
        "frustration_bound": None,
        "serve_degraded": 0,
        "serve_recovered": 0,
        "disk_full": 0,
        "steal": None,
    }
    for event in events:
        kind = event["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "campaign_started":
            summary["campaign"] = {
                k: v for k, v in event.items()
                if k not in ("seq", "ts", "kind")
            }
        elif kind in _COUNTED:
            summary[_COUNTED[kind]] += 1
        elif kind == "block_completed":
            summary["blocks_completed"] += 1
            summary["states"] += int(event.get("states", 0))
        elif kind == "block_quarantined":
            summary["quarantined"].append(int(event.get("block", -1)))
        elif kind == "deadline_hit":
            summary["deadline_hit"] = True
        elif kind == "campaign_completed":
            summary["completed"] = True
            if "states" in event:
                summary["states"] = int(event["states"])
        elif kind == "convergence":
            if "frustration_upper_bound" in event:
                summary["frustration_bound"] = event["frustration_upper_bound"]
        elif kind == "steal_summary":
            # Keep the last summary: a resumed campaign's final steal
            # picture supersedes the pre-crash one.
            summary["steal"] = {
                "workers": int(event.get("workers", 0)),
                "workers_used": int(event.get("workers_used", 0)),
                "blocks": dict(event.get("blocks", {})),
                "states": dict(event.get("states", {})),
            }
    return summary


def render_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_journal` output."""
    lines = [f"journal: {summary['path']}"]
    lines.append(
        f"  events: {summary['events']}"
        + (" (torn final line dropped)" if summary["torn_tail"] else "")
    )
    campaign = summary["campaign"]
    if campaign:
        spec = ", ".join(f"{k}={v}" for k, v in sorted(campaign.items()))
        lines.append(f"  campaign: {spec}")
    lines.append(
        f"  completed: {'yes' if summary['completed'] else 'no'}; "
        f"states: {summary['states']}; "
        f"blocks completed: {summary['blocks_completed']}"
    )
    lines.append(
        f"  retries: {summary['retries']}; timeouts: {summary['timeouts']}; "
        f"pool rebuilds: {summary['pool_rebuilds']}; "
        f"degraded: {summary['degraded']}"
    )
    if summary["quarantined"]:
        lines.append(f"  quarantined blocks: {summary['quarantined']}")
    if summary["deadline_hit"]:
        lines.append("  deadline hit: campaign stopped early")
    if summary["checkpoints"]:
        lines.append(f"  checkpoints written: {summary['checkpoints']}")
    if summary["frustration_bound"] is not None:
        lines.append(
            f"  last frustration upper bound: {summary['frustration_bound']}"
        )
    if summary.get("serve_degraded") or summary.get("serve_recovered"):
        lines.append(
            f"  breaker: degraded {summary.get('serve_degraded', 0)}x, "
            f"recovered {summary.get('serve_recovered', 0)}x"
        )
    if summary.get("disk_full"):
        lines.append(f"  disk-full events: {summary['disk_full']}")
    steal = summary.get("steal")
    if steal:
        per_worker = ", ".join(
            f"pid {pid}: {count}"
            for pid, count in sorted(steal["blocks"].items())
        )
        lines.append(
            f"  steal: {steal['workers_used']}/{steal['workers']} workers "
            f"took blocks ({per_worker})"
        )
    shown = set(_COUNTED) | {
        "campaign_started", "campaign_completed", "block_completed",
        "block_quarantined", "deadline_hit", "convergence", "steal_summary",
    }
    other = {
        k: v for k, v in sorted(summary["kinds"].items()) if k not in shown
    }
    if other:
        lines.append(
            "  other events: "
            + ", ".join(f"{k}={v}" for k, v in other.items())
        )
    return "\n".join(lines)
