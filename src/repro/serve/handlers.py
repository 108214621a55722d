"""Request deadline plumbing and endpoint rendering for the daemon.

This module is the pure core of the HTTP layer: given a parsed request
(path, query string, deadline) and the current
:class:`~repro.serve.state.QuerySnapshot`, produce ``(status,
content-type, body-bytes)``.  Keeping it free of sockets makes every
endpoint unit-testable without a server and keeps ``server.py`` down
to transport concerns (admission, draining, connection hygiene).

Deadlines
---------

A client bounds a request with the ``X-Deadline-Ms`` header.  The
handler materializes it into a :class:`Deadline` anchored on the
monotonic clock and *checks it mid-query*: once after admission, once
before rendering, and — for the one answer whose size scales with the
graph (a full-membership bipartition) — again between build steps.  An
expired deadline raises :class:`DeadlineExceeded`, which the transport
maps to ``504 Gateway Timeout``; the contract tested in CI is that the
504 lands within the deadline plus a small scheduling slop, i.e. the
server never keeps burning cycles on an answer nobody is waiting for.

Responses
---------

Every JSON body is canonical JSON, equal to what
:func:`~repro.serve.state.canonical_json` gives for the answer's
payload, so equal payloads are equal bytes — the property the chaos
test's recovered-prefix diff builds on.  The snapshot renders them
(:meth:`~repro.serve.state.QuerySnapshot.vertex_json` and friends): a
point answer is written straight to bytes, a whole-snapshot answer is
rendered once per snapshot.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServeError
from repro.perf.registry import get_registry
from repro.serve.state import QuerySnapshot, canonical_json

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "render_metrics",
    "route_query",
]

#: Rendered response: (HTTP status, content type, body bytes).
Response = Tuple[int, str, bytes]

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"


class DeadlineExceeded(ServeError):
    """Raised mid-query when the request's deadline has passed."""


class Deadline:
    """A per-request budget anchored on the monotonic clock.

    ``Deadline(None)`` is the no-deadline sentinel: :meth:`check` is a
    no-op, so unbounded requests pay one attribute test per checkpoint.
    """

    __slots__ = ("expires_at", "budget_ms")

    def __init__(self, budget_ms: Optional[float]) -> None:
        """A deadline *budget_ms* milliseconds from now (None = none)."""
        if budget_ms is None:
            self.budget_ms = None
            self.expires_at = None
        else:
            # nan, inf and 1e400 (which parses as inf) would give a
            # deadline that never expires.
            if not math.isfinite(budget_ms) or budget_ms <= 0:
                raise ServeError(
                    f"X-Deadline-Ms must be positive and finite, "
                    f"got {budget_ms}"
                )
            self.budget_ms = float(budget_ms)
            self.expires_at = time.monotonic() + budget_ms / 1000.0

    @classmethod
    def from_header(cls, value: Optional[str]) -> "Deadline":
        """Parse an ``X-Deadline-Ms`` header value (absent = no deadline).

        Malformed values raise :class:`~repro.errors.ServeError`, which
        the transport maps to 400 — a client that asks for a bound it
        cannot spell should learn immediately, not time out silently.
        """
        if value is None:
            return cls(None)
        try:
            budget = float(value.strip())
        except ValueError:
            raise ServeError(
                f"X-Deadline-Ms must be a number of milliseconds, "
                f"got {value!r}"
            ) from None
        return cls(budget)

    @property
    def remaining(self) -> Optional[float]:
        """Seconds left, or None for the unbounded sentinel."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expires_at is not None and time.monotonic() > self.expires_at:
            raise DeadlineExceeded(
                f"deadline of {self.budget_ms:g} ms exceeded"
            )


# ----------------------------------------------------------------------
# Endpoint rendering
# ----------------------------------------------------------------------
def _id_from(path_rest: str, kind: str) -> int:
    """Parse the trailing integer id of a ``/vertex/<id>`` style path."""
    try:
        return int(path_rest)
    except ValueError:
        raise ServeError(f"{kind} id must be an integer, got {path_rest!r}") \
            from None


def _flag(query: str, name: str) -> bool:
    """True when query param *name* is present and truthy ("1"/"true")."""
    values = parse_qs(query).get(name) if query else None
    if not values:
        return False
    return values[-1].lower() in ("1", "true", "yes")


def route_query(
    path: str, snapshot: QuerySnapshot, deadline: Deadline
) -> Response:
    """Render one query endpoint against *snapshot*.

    *path* is the raw request target (path + optional query string).
    Unknown paths return 404; bad ids 400.  Raises
    :class:`DeadlineExceeded` when the deadline lapses mid-render.
    """
    deadline.check()
    parts = urlsplit(path)
    segments = [s for s in parts.path.split("/") if s]
    if not segments:
        body = snapshot.info_json()
    elif segments[0] == "snapshot" and len(segments) == 1:
        body = snapshot.info_json()
    elif segments[0] == "vertex" and len(segments) == 2:
        body = snapshot.vertex_json(_id_from(segments[1], "vertex"))
    elif segments[0] == "edge" and len(segments) == 2:
        body = snapshot.edge_json(_id_from(segments[1], "edge"))
    elif segments[0] == "frustration" and len(segments) == 1:
        body = snapshot.frustration_json()
    elif segments[0] == "bipartition" and len(segments) == 1:
        # The one answer whose size scales with the graph: re-check the
        # deadline between deciding to include members and building the
        # list, so an expired request stops before the expensive part.
        include_members = _flag(parts.query, "members")
        deadline.check()
        body = snapshot.bipartition_json(include_members)
    else:
        return (
            404,
            _JSON,
            canonical_json({"error": f"unknown path {parts.path!r}"}),
        )
    deadline.check()
    return 200, _JSON, body


# ----------------------------------------------------------------------
# Prometheus text export
# ----------------------------------------------------------------------
def render_metrics() -> Response:
    """Render the active metrics registry in Prometheus text format.

    A thin transport shim over :func:`repro.perf.export.to_prometheus`
    — the one renderer shared by ``/metrics``, ``--metrics-out``, and
    :func:`~repro.perf.export.write_metrics`, so the scrape endpoint
    can never drift from the file exporters (``# HELP``/``# TYPE``
    headers, label-value escaping, ``+Inf == _count`` and all).
    """
    from repro.perf.export import to_prometheus

    body = to_prometheus(get_registry().snapshot()).encode("utf-8")
    return 200, _TEXT, body
