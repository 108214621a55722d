"""Compressed-sparse-row storage for signed graphs.

The paper stores the single graph copy in CSR form (§3.2.1) and keeps
memory at O(n + m).  We mirror that layout:

* ``indptr``        — ``n + 1`` offsets into the adjacency arrays,
* ``adj_vertex``    — the neighbor of each directed half-edge (``2m``),
* ``adj_edge``      — the *undirected* edge id of each half-edge (``2m``),
* ``edge_u/edge_v`` — endpoint arrays of the ``m`` undirected edges,
* ``edge_sign``     — one ``int8`` sign (+1/−1) per undirected edge.

Signs live on undirected edges so that balancing — which flips a few
edge signs — touches exactly one memory location per flip, and both
directed views of an edge always agree.  A *balanced state* is therefore
just a fresh sign array of length ``m``; the structural arrays are
shared between the input graph and every balanced state derived from
it, matching the paper's single-copy design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["SignedGraph", "POSITIVE", "NEGATIVE"]

POSITIVE: int = 1
NEGATIVE: int = -1


@dataclass(frozen=True)
class SignedGraph:
    """An undirected signed graph in CSR form.

    Instances are immutable; operations that change signs (balancing)
    return a new sign array or a new :class:`SignedGraph` via
    :meth:`with_signs`.  Construct instances with
    :func:`repro.graph.build.from_edges` rather than directly — the
    builder validates, deduplicates, and sorts the input.
    """

    indptr: np.ndarray
    adj_vertex: np.ndarray
    adj_edge: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_sign: np.ndarray

    # ------------------------------------------------------------------
    # Shape & basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self.edge_sign)

    @property
    def num_fundamental_cycles(self) -> int:
        """``m − (n − 1)``: the number of fundamental cycles with respect
        to *any* spanning tree (the graph must be connected for this to
        be meaningful)."""
        return self.num_edges - (self.num_vertices - 1)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only degree array (cached; hot loops index it every
        level, so it is computed once per graph instead of per call)."""
        deg = np.diff(self.indptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def half_twin(self) -> np.ndarray:
        """Position of each half-edge's reverse (cached): the two
        half-edges of an edge sum to its first plus last position."""
        pos = np.arange(len(self.adj_edge), dtype=np.int64)
        ends = np.empty((2, self.num_edges), dtype=np.int64)
        ends[0, self.adj_edge[::-1]], ends[1, self.adj_edge] = pos[::-1], pos
        twin = ends[:, self.adj_edge].sum(axis=0) - pos
        twin.setflags(write=False)
        return twin

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 content hash of structure and signs (cached; see
        :func:`repro.graph.store.graph_fingerprint`)."""
        h = hashlib.sha256()
        for array in (self.indptr, self.edge_u, self.edge_v, self.edge_sign):
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of vertex *v*, or the full degree array if ``v is None``."""
        if v is None:
            return self.degrees
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(np.diff(self.indptr).max())

    @property
    def avg_degree(self) -> float:
        """``m / n`` — the paper's Table 1 convention (edges per vertex,
        *not* mean adjacency length which would be ``2m/n``)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def num_negative_edges(self) -> int:
        """Number of edges carrying a negative sign."""
        return int(np.count_nonzero(self.edge_sign == NEGATIVE))

    # ------------------------------------------------------------------
    # Adjacency views
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of *v* as a read-only view into the CSR arrays."""
        return self.adj_vertex[self.indptr[v] : self.indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        """Undirected edge ids incident to *v* (view, same order as
        :meth:`neighbors`)."""
        return self.adj_edge[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(u, v, sign)`` for every undirected edge."""
        for e in range(self.num_edges):
            yield int(self.edge_u[e]), int(self.edge_v[e]), int(self.edge_sign[e])

    def find_edge(self, u: int, v: int) -> int:
        """Return the undirected edge id of ``{u, v}``.

        Raises :class:`~repro.errors.GraphFormatError` if absent.  Scans
        the shorter adjacency list, so cost is ``O(min(deg u, deg v))``.
        """
        if self.degree(v) < self.degree(u):
            u, v = v, u
        lo, hi = self.indptr[u], self.indptr[u + 1]
        hits = np.nonzero(self.adj_vertex[lo:hi] == v)[0]
        if len(hits) == 0:
            raise GraphFormatError(f"edge {{{u}, {v}}} is not in the graph")
        return int(self.adj_edge[lo + hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        try:
            self.find_edge(u, v)
            return True
        except GraphFormatError:
            return False

    def sign_of(self, u: int, v: int) -> int:
        """Sign (+1/−1) of the undirected edge ``{u, v}``."""
        return int(self.edge_sign[self.find_edge(u, v)])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_signs(self, signs: np.ndarray) -> "SignedGraph":
        """A structurally identical graph carrying *signs*.

        The CSR arrays are shared (no copy); only the sign array is
        replaced.  This is how balanced states are materialized.
        """
        signs = np.asarray(signs, dtype=np.int8)
        if signs.shape != self.edge_sign.shape:
            raise GraphFormatError(
                f"sign array has shape {signs.shape}, expected {self.edge_sign.shape}"
            )
        if not np.all(np.abs(signs) == 1):
            raise GraphFormatError("signs must be +1 or -1")
        return replace(self, edge_sign=signs)

    def all_positive(self) -> "SignedGraph":
        """The same structure with every sign set to +1."""
        return self.with_signs(np.ones(self.num_edges, dtype=np.int8))

    def edges_array(self) -> np.ndarray:
        """``(m, 3)`` int64 array of ``(u, v, sign)`` rows (a copy)."""
        out = np.empty((self.num_edges, 3), dtype=np.int64)
        out[:, 0] = self.edge_u
        out[:, 1] = self.edge_v
        out[:, 2] = self.edge_sign
        return out

    # ------------------------------------------------------------------
    # Memory accounting (feeds the Table 4 model in repro.perf.memory)
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by this instance's arrays (actual, not modeled)."""
        return sum(
            a.nbytes
            for a in (
                self.indptr,
                self.adj_vertex,
                self.adj_edge,
                self.edge_u,
                self.edge_v,
                self.edge_sign,
            )
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SignedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"neg={self.num_negative_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.num_edges == other.num_edges
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_sign, other.edge_sign)
        )

    def __hash__(self) -> int:
        # Frozen dataclass would try to hash ndarrays; hash the shape
        # plus sign bytes, which is enough for set/dict membership of
        # balanced states over a fixed structure.
        return hash(
            (self.num_vertices, self.num_edges, self.edge_sign.tobytes())
        )
