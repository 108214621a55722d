"""Immutable query snapshots + the atomic snapshot store.

The daemon's readers and its background growth must never share a
mutable :class:`~repro.cloud.cloud.FrustrationCloud`: a query that
reads ``cloud.status()`` while a growth round is folding a batch in
would observe a half-grown cloud (majority counts from state ``k+1``
over a ``num_states`` of ``k``).  The serve layer therefore follows
the RCU pattern:

* growth mutates a *private* cloud, then builds a fresh
  :class:`QuerySnapshot` — a frozen bundle of the per-vertex /
  per-edge consensus arrays, all marked read-only — and publishes it
  with one :meth:`SnapshotStore.swap`;
* every request resolves its snapshot exactly once
  (:meth:`SnapshotStore.get`, a single attribute read under the GIL)
  and answers entirely from it, so a request sees one epoch from its
  first byte to its last even while growth keeps publishing.

Epochs increase monotonically with every swap.  A snapshot renders
each answer itself: a ``/vertex/<id>`` or ``/edge/<id>`` answer is
written straight to canonical-JSON bytes on every read, and each
whole-snapshot answer is rendered once and kept on the snapshot, so a
newly published epoch starts with none and an old one dies with its
answers.

Snapshot answers are deterministic: every payload is derived purely
from the cloud's accumulators, which are themselves a pure function of
``(graph, campaign, num_states)``.  This is what makes the chaos test
meaningful — a daemon restarted from a checkpoint serves byte-identical
responses for the recovered prefix.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.cloud.cloud import FrustrationCloud
from repro.errors import ServeError

__all__ = [
    "QuerySnapshot",
    "SnapshotStore",
    "canonical_json",
]


def canonical_json(payload: Dict[str, Any]) -> bytes:
    """Serialize a response payload to canonical (byte-stable) JSON.

    Keys are sorted and separators fixed, so two payloads with equal
    values serialize to identical bytes — the contract the chaos test's
    byte-for-byte comparison relies on, and the reference every
    :class:`QuerySnapshot` rendering is tested against.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _check_id(kind: str, index: int, count: int) -> None:
    """Raise :class:`ServeError` unless ``0 <= index < count``."""
    if not 0 <= index < count:
        raise ServeError(f"{kind} {index} out of range [0, {count})")


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    """A read-only contiguous copy of *values* as *dtype*."""
    out = np.ascontiguousarray(values, dtype=dtype)
    if out is values:  # defensive copy: never alias cloud internals
        out = out.copy()
    out.setflags(write=False)
    return out


class QuerySnapshot:
    """One immutable, fully materialized view of a frustration cloud.

    Built once per growth round (O(n + m), off the request path) and
    shared by every reader thereafter; all arrays are read-only copies,
    so a rogue handler cannot corrupt the published state and the
    source cloud can keep growing without tearing answers.
    """

    __slots__ = (
        "epoch",
        "fingerprint",
        "num_states",
        "num_vertices",
        "num_edges",
        "frustration_upper_bound",
        "status",
        "influence",
        "volatility",
        "vertex_agreement",
        "edge_agreement",
        "edge_coside",
        "edge_u",
        "edge_v",
        "edge_sign",
        "sides",
        "side_sizes",
        "contested_edges",
        "_rendered",
    )

    def __init__(
        self, cloud: FrustrationCloud, epoch: int, fingerprint: str
    ) -> None:
        """Materialize the cloud's consensus attributes at *epoch*."""
        if cloud.num_states < 1:
            raise ServeError("cannot snapshot an empty cloud")
        graph = cloud.graph
        self.epoch = int(epoch)
        self.fingerprint = fingerprint
        self.num_states = int(cloud.num_states)
        self.num_vertices = int(graph.num_vertices)
        self.num_edges = int(graph.num_edges)
        self.frustration_upper_bound = int(cloud.frustration_upper_bound())
        self.status = _frozen(cloud.status(), np.float64)
        self.influence = _frozen(cloud.influence(), np.float64)
        self.volatility = _frozen(cloud.status_volatility(), np.float64)
        self.vertex_agreement = _frozen(cloud.vertex_agreement(), np.float64)
        self.edge_agreement = _frozen(cloud.edge_agreement(), np.float64)
        self.edge_coside = _frozen(cloud.edge_coside(), np.float64)
        self.edge_u = _frozen(graph.edge_u, np.int64)
        self.edge_v = _frozen(graph.edge_v, np.int64)
        self.edge_sign = _frozen(graph.edge_sign, np.int8)
        # Consensus bipartition: a vertex sits with the majority side
        # when its status clears 0.5 (ties, status == 0.5 exactly, go
        # to side 0 deterministically).
        self.sides = _frozen(self.status > 0.5, np.bool_)
        # The whole-snapshot aggregates, counted once per publish.
        side1 = int(np.count_nonzero(self.sides))
        self.side_sizes = (self.num_vertices - side1, side1)
        self.contested_edges = int(np.count_nonzero(self.edge_agreement < 1.0))
        self._rendered: Dict[str, bytes] = {}

    # -- query payloads -------------------------------------------------
    def vertex_payload(self, vertex: int) -> Dict[str, Any]:
        """Consensus attributes of one vertex (status, influence, ...)."""
        _check_id("vertex", vertex, self.num_vertices)
        return {
            "vertex": vertex,
            "status": float(self.status[vertex]),
            "influence": float(self.influence[vertex]),
            "volatility": float(self.volatility[vertex]),
            "agreement": float(self.vertex_agreement[vertex]),
            "side": int(self.sides[vertex]),
            "states": self.num_states,
            "epoch": self.epoch,
        }

    def edge_payload(self, edge: int) -> Dict[str, Any]:
        """Consensus attributes of one edge (frustration, co-side, ...)."""
        _check_id("edge", edge, self.num_edges)
        agreement = float(self.edge_agreement[edge])
        return {
            "edge": edge,
            "u": int(self.edge_u[edge]),
            "v": int(self.edge_v[edge]),
            "sign": int(self.edge_sign[edge]),
            "agreement": agreement,
            "frustration": 1.0 - agreement,
            "coside": float(self.edge_coside[edge]),
            "states": self.num_states,
            "epoch": self.epoch,
        }

    def bipartition_payload(self, include_members: bool = False) -> Dict[str, Any]:
        """The consensus bipartition (sizes; members on request)."""
        payload: Dict[str, Any] = {
            "sizes": list(self.side_sizes),
            "states": self.num_states,
            "epoch": self.epoch,
        }
        if include_members:
            payload["members"] = [int(s) for s in self.sides]
        return payload

    def frustration_payload(self) -> Dict[str, Any]:
        """Cloud-level frustration summary (upper bound + contested edges)."""
        return {
            "frustration_upper_bound": self.frustration_upper_bound,
            "contested_edges": self.contested_edges,
            "edges": self.num_edges,
            "states": self.num_states,
            "epoch": self.epoch,
        }

    def info_payload(self) -> Dict[str, Any]:
        """Snapshot identity: epoch, states, graph shape, fingerprint."""
        return {
            "epoch": self.epoch,
            "states": self.num_states,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "fingerprint": self.fingerprint,
            "frustration_upper_bound": self.frustration_upper_bound,
        }

    # -- rendered answers -----------------------------------------------
    # Each equals canonical_json() of the payload above, byte for byte:
    # keys in sorted order, ints as str() and floats as repr() of a
    # Python float, as json.dumps writes them.  Every float here is a
    # count over a positive state count, so never NaN or infinite,
    # which json.dumps would spell differently.
    def vertex_json(self, vertex: int) -> bytes:
        """``canonical_json(self.vertex_payload(vertex))``, built
        without the dict."""
        _check_id("vertex", vertex, self.num_vertices)
        return (
            f'{{"agreement":{self.vertex_agreement.item(vertex)!r},'
            f'"epoch":{self.epoch},'
            f'"influence":{self.influence.item(vertex)!r},'
            f'"side":{int(self.sides.item(vertex))},'
            f'"states":{self.num_states},'
            f'"status":{self.status.item(vertex)!r},'
            f'"vertex":{vertex},'
            f'"volatility":{self.volatility.item(vertex)!r}}}\n'
        ).encode()

    def edge_json(self, edge: int) -> bytes:
        """``canonical_json(self.edge_payload(edge))``, built without
        the dict."""
        _check_id("edge", edge, self.num_edges)
        agreement = self.edge_agreement.item(edge)
        return (
            f'{{"agreement":{agreement!r},'
            f'"coside":{self.edge_coside.item(edge)!r},'
            f'"edge":{edge},'
            f'"epoch":{self.epoch},'
            f'"frustration":{1.0 - agreement!r},'
            f'"sign":{self.edge_sign.item(edge)},'
            f'"states":{self.num_states},'
            f'"u":{self.edge_u.item(edge)},'
            f'"v":{self.edge_v.item(edge)}}}\n'
        ).encode()

    def info_json(self) -> bytes:
        """``canonical_json(self.info_payload())``, rendered once."""
        return self._once("info", self.info_payload)

    def frustration_json(self) -> bytes:
        """``canonical_json(self.frustration_payload())``, rendered once."""
        return self._once("frustration", self.frustration_payload)

    def bipartition_json(self, include_members: bool = False) -> bytes:
        """``canonical_json(self.bipartition_payload(include_members))``,
        rendered once per value of *include_members*."""
        return self._once(
            "members" if include_members else "bipartition",
            lambda: self.bipartition_payload(include_members),
        )

    def _once(self, key: str, payload: Callable[[], Dict[str, Any]]) -> bytes:
        """The answer *key*, rendered from ``payload()`` on first use.

        No lock: threads that race here render the same bytes, and each
        stores them with one dict write.
        """
        body = self._rendered.get(key)
        if body is None:
            body = self._rendered[key] = canonical_json(payload())
        return body


class SnapshotStore:
    """Holder of the current :class:`QuerySnapshot`, swapped atomically.

    ``get`` is one attribute read (atomic under the GIL); ``swap``
    takes a lock only to serialize *publishers* and keep the epoch
    counter monotonic.  Readers are never blocked by a swap and a
    swap never waits for readers — old snapshots die by refcount once
    the last in-flight request drops them.
    """

    def __init__(self) -> None:
        """Start empty (no snapshot published, epoch 0)."""
        self._lock = threading.Lock()
        self._snapshot: Optional[QuerySnapshot] = None
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The epoch of the newest published snapshot (0 = none yet)."""
        return self._epoch

    def get(self) -> Optional[QuerySnapshot]:
        """The current snapshot, or ``None`` before the first publish."""
        return self._snapshot

    def require(self) -> QuerySnapshot:
        """The current snapshot; raises :class:`ServeError` when the
        daemon has not published one yet (readers should 503)."""
        snapshot = self._snapshot
        if snapshot is None:
            raise ServeError("no snapshot published yet; daemon warming up")
        return snapshot

    def publish(self, cloud: FrustrationCloud, fingerprint: str) -> QuerySnapshot:
        """Build a fresh snapshot of *cloud* and swap it in; returns it."""
        with self._lock:
            epoch = self._epoch + 1
            snapshot = QuerySnapshot(cloud, epoch, fingerprint)
            self._snapshot = snapshot
            self._epoch = epoch
        return snapshot
