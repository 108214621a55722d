"""Large balanced subgraph extraction (arXiv:2002.00775 style).

A signed graph is balanced iff its vertices split into two sides with
every intra-side edge positive and every inter-side edge negative
(Harary).  Fixing a candidate ±1 side assignment ``sides`` therefore
turns "find a large balanced subgraph" into a *vertex deletion*
problem: an edge ``(u, v, s)`` is **satisfied** when
``s * sides[u] * sides[v] == +1``, and any vertex subset whose induced
edges are all satisfied is balanced — ``sides`` restricted to the
subset is the switching certificate
(:func:`repro.core.verify.check_balance` agrees by construction).

The pipeline mirrors Ordozgoiti et al.'s eigenvector-guided approach:

1. **eigen** — seed assignments come from the bottom eigenvector of
   the signed normalized Laplacian (:mod:`repro.analysis.spectral`)
   and from spanning-tree switchings (the frustration-cloud parity
   kernels, :mod:`repro.balanced.seeds`).
2. **rounding** (:func:`peel_to_tolerance`) — greedily delete the
   vertices with the most unsatisfied incident edges, in rounds,
   until every survivor has at most ``tolerance`` unsatisfied
   incident edges (0 = exactly balanced).  Bad degrees are counted
   once and then updated from the deleted vertices' CSR half-edges
   only, exactly, so each round costs O(n + vol(deleted)).
3. **polish** (:func:`polish_subgraph`) — local search that re-admits
   any deleted vertex which fits the current subgraph on one of its
   two sides without creating a single new violation, until a fixed
   point.  The sequential admission rule is evaluated one vectorized
   level of pairwise non-adjacent candidates at a time, which admits
   exactly what a one-at-a-time loop would.

``tolerance > 0`` yields the Chen-Peng-Zhang relaxation (see
:mod:`repro.balanced.tolerance`); the machinery is shared, with the
exact workload being the ``tolerance == 0`` special case.

All steps are deterministic: ties break on vertex id, so the same
graph bytes (in-memory or ``.rsgs`` memmap) produce the same subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import BalancedSearchError
from repro.graph.csr import SignedGraph
from repro.perf.tracing import span
from repro.util.arrays import csr_positions, gather_adjacency

__all__ = [
    "BalancedSubgraph",
    "extract_balanced",
    "peel_to_tolerance",
    "polish_subgraph",
    "satisfied_edges",
    "search_from_sides",
]

#: Fraction of the over-tolerance vertices removed per peel round.
DEFAULT_PEEL_FRAC = 0.25


@dataclass(frozen=True)
class BalancedSubgraph:
    """One discovered subgraph: host vertex ids, their sides, and audit
    counts.

    ``sides[i]`` is the ±1 side of ``vertices[i]`` in the Harary
    bipartition witnessing (near-)balance; ``unsatisfied_edges`` counts
    induced edges that violate it (0 when ``tolerance == 0``).
    """

    vertices: np.ndarray
    sides: np.ndarray
    num_edges: int
    unsatisfied_edges: int
    tolerance: int
    seed_label: str

    @property
    def num_vertices(self) -> int:
        """Size of the subgraph (the objective being maximized)."""
        return len(self.vertices)

    @cached_property
    def side_of(self) -> dict:
        """``{host vertex id: ±1 side}`` for membership queries."""
        return {
            int(v): int(s) for v, s in zip(self.vertices, self.sides)
        }

    def score(self) -> tuple:
        """Lexicographic objective: more vertices, then more satisfied
        induced edges."""
        return (
            self.num_vertices,
            self.num_edges - self.unsatisfied_edges,
        )


def satisfied_edges(graph: SignedGraph, sides: np.ndarray) -> np.ndarray:
    """Boolean mask over edges: satisfied under the ±1 *sides*.

    ``sides`` must cover every vertex; an edge is satisfied when its
    sign equals the product of its endpoints' sides.
    """
    sides = np.asarray(sides, dtype=np.int8)
    if sides.shape != (graph.num_vertices,):
        raise BalancedSearchError(
            f"sides has shape {sides.shape}, expected "
            f"({graph.num_vertices},)"
        )
    if graph.num_vertices and not np.all(np.abs(sides) == 1):
        raise BalancedSearchError("sides must be +1 or -1")
    prod = (
        graph.edge_sign.astype(np.int16)
        * sides[graph.edge_u].astype(np.int16)
        * sides[graph.edge_v].astype(np.int16)
    )
    return prod > 0


def _bad_degrees(
    graph: SignedGraph, sat: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Per-vertex count of live unsatisfied incident edges (0 for dead
    vertices)."""
    live_bad = np.flatnonzero(
        alive[graph.edge_u] & alive[graph.edge_v] & ~sat
    )
    n = graph.num_vertices
    bad = np.bincount(graph.edge_u[live_bad], minlength=n)
    bad += np.bincount(graph.edge_v[live_bad], minlength=n)
    return bad


def peel_to_tolerance(
    graph: SignedGraph,
    sat: np.ndarray,
    tolerance: int = 0,
    peel_frac: float = DEFAULT_PEEL_FRAC,
    alive: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy vertex peel: returns the survivor mask.

    Each round deletes the worst ``ceil(peel_frac * |over-tolerance|)``
    vertices — highest bad degree first, ties broken toward the lowest
    vertex id — until every survivor has at most *tolerance*
    unsatisfied live incident edges.  ``peel_frac`` trades quality
    (small batches re-rank often) against rounds (large batches peel
    faster); 1 vertex per round is the classic greedy.

    Bad degrees are counted once over the edge arrays and then kept
    current incrementally: a round walks only the CSR half-edges of
    the vertices it deletes and takes one off each live neighbour per
    unsatisfied edge joining them.  The counts stay exact integers, so
    every round ranks — and removes — exactly what a from-scratch
    recount would, at O(n + vol(deleted)) per round instead of O(m).
    """
    if tolerance < 0:
        raise BalancedSearchError(
            f"tolerance must be >= 0, got {tolerance}"
        )
    if not 0.0 < peel_frac <= 1.0:
        raise BalancedSearchError(
            f"peel_frac must be in (0, 1], got {peel_frac}"
        )
    n = graph.num_vertices
    alive = (
        np.ones(n, dtype=bool) if alive is None else alive.copy()
    )
    # Invariant: bad[v] = unsatisfied edges from v to live neighbours
    # (0 for dead v).  Bad degrees only ever fall, so when the first
    # count fits 16 bits every later one does, and the stable argsort
    # below runs as numpy's radix sort.
    bad = _bad_degrees(graph, sat, alive)
    if n and bad.max() < 2**15:
        bad = bad.astype(np.int16)
    while True:
        over = np.nonzero(alive & (bad > tolerance))[0]
        if len(over) == 0:
            return alive
        k = max(1, math.ceil(peel_frac * len(over)))
        # Stable sort on descending bad degree keeps ties in ascending
        # vertex-id order (``over`` is sorted), so removal is
        # deterministic.
        order = np.argsort(-bad[over], kind="stable")
        gone = over[order[:k]]
        alive[gone] = False
        pos = csr_positions(graph.indptr, gone)
        nbr = graph.adj_vertex[pos]
        hit = np.flatnonzero(alive[nbr] & ~sat[graph.adj_edge[pos]])
        bad -= np.bincount(nbr[hit], minlength=n)
        bad[gone] = 0


def _candidate_levels(
    graph: SignedGraph, cand: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """Level of each ranked candidate in ``cand`` (``rank[cand[i]] ==
    i``, -1 off the candidates).

    A candidate's level is 0 when it has no earlier-ranked candidate
    neighbour, else 1 + the highest level among those neighbours, so
    adjacent candidates never share a level.
    """
    pos, src = gather_adjacency(graph.indptr, cand)
    src_rank = rank[src]
    nbr_rank = rank[graph.adj_vertex[pos]]
    dep = np.flatnonzero((nbr_rank >= 0) & (nbr_rank < src_rank))
    earlier, later = nbr_rank[dep], src_rank[dep]
    level = np.zeros(len(cand), dtype=np.int64)
    while True:
        before = level.copy()
        np.maximum.at(level, later, level[earlier] + 1)
        if np.array_equal(level, before):
            return level


def polish_subgraph(
    graph: SignedGraph,
    sides: np.ndarray,
    sat: np.ndarray,
    alive: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local-search re-admission of deleted vertices.

    A deleted vertex re-enters when one of its two possible sides
    satisfies *every* edge it has into the current subgraph (so no
    member's violation count grows, and the invariant maintained by the
    peel is preserved for any tolerance).  Candidate discovery is
    vectorized over the edge arrays, and candidates are ranked (most
    edges into the subgraph first, then lowest id).  Admission is
    defined by the sequential rule: in rank order, each candidate is
    rechecked against the subgraph as grown so far, so edges *between*
    newly admitted vertices can never introduce a violation.

    That rule only reads a candidate's earlier-ranked candidate
    neighbours, so it runs level by level (:func:`_candidate_levels`):
    candidates on one level are pairwise non-adjacent and all their
    earlier-ranked neighbours sit on lower levels, so one vectorized
    recheck per level admits exactly the vertices, on exactly the
    sides, that the one-at-a-time loop would.  Rounds repeat until no
    vertex is admissible.

    Returns ``(alive, sides, sat)`` with ``sides`` updated for admitted
    vertices and ``sat`` recomputed to match.
    """
    sides = np.asarray(sides, dtype=np.int8).copy()
    alive = alive.copy()
    eu, ev, sign = graph.edge_u, graph.edge_v, graph.edge_sign
    n = graph.num_vertices
    while True:
        # Edges with exactly one live endpoint, viewed from the dead
        # endpoint ``w``: satisfied with sides[w] = +1 iff
        # sign * sides[live endpoint] == +1.
        u_alive = alive[eu]
        e = np.flatnonzero(u_alive != alive[ev])
        u_live = u_alive[e]
        w = np.where(u_live, ev[e], eu[e])
        anchor = np.where(u_live, eu[e], ev[e])
        plus_ok = sign[e] * sides[anchor] > 0
        deg_in = np.bincount(w, minlength=n)
        plus = np.bincount(w[plus_ok], minlength=n)
        bad_plus = deg_in - plus  # violations if admitted with side +1
        bad_minus = plus          # ... with side -1
        # Vertices with no live edges (their whole neighborhood was
        # peeled) are trivially admissible too; the recheck below keeps
        # edges among them honest once some are re-admitted.
        fits = ~alive & ((bad_plus == 0) | (bad_minus == 0))
        cand = np.nonzero(fits)[0]
        if len(cand) == 0:
            break
        # Largest attachment first: those vertices constrain later
        # admissions the most, and the ordering is what makes parallel
        # and sequential runs agree.
        cand = cand[np.argsort(-deg_in[cand], kind="stable")]
        rank = np.full(n, -1, dtype=np.int64)
        rank[cand] = np.arange(len(cand))
        level = _candidate_levels(graph, cand, rank)
        has_neg = np.zeros(len(cand), dtype=bool)
        has_pos = np.zeros(len(cand), dtype=bool)
        admitted = 0
        for lv in range(int(level.max()) + 1):
            # Recheck this level against the subgraph grown by the
            # lower ones: admit on whichever side violates nothing.
            at = np.flatnonzero(level == lv)
            members = cand[at]
            pos, src = gather_adjacency(graph.indptr, members)
            nbr = graph.adj_vertex[pos]
            live = np.flatnonzero(alive[nbr])
            prod = sign[graph.adj_edge[pos[live]]] * sides[nbr[live]]
            has_neg[rank[src[live[prod < 0]]]] = True
            has_pos[rank[src[live[prod > 0]]]] = True
            side = np.where(~has_neg[at], 1, np.where(~has_pos[at], -1, 0))
            ok = side != 0
            alive[members[ok]] = True
            sides[members[ok]] = side[ok]
            admitted += int(np.count_nonzero(ok))
        if admitted == 0:
            break
    return alive, sides, satisfied_edges(graph, sides)


def _result_from_mask(
    graph: SignedGraph,
    sides: np.ndarray,
    sat: np.ndarray,
    alive: np.ndarray,
    tolerance: int,
    seed_label: str,
) -> BalancedSubgraph:
    live_edge = alive[graph.edge_u] & alive[graph.edge_v]
    vertices = np.nonzero(alive)[0].astype(np.int64)
    return BalancedSubgraph(
        vertices=vertices,
        sides=sides[vertices].astype(np.int8),
        num_edges=int(np.count_nonzero(live_edge)),
        unsatisfied_edges=int(np.count_nonzero(live_edge & ~sat)),
        tolerance=tolerance,
        seed_label=seed_label,
    )


def search_from_sides(
    graph: SignedGraph,
    sides: np.ndarray,
    tolerance: int = 0,
    peel_frac: float = DEFAULT_PEEL_FRAC,
    polish: bool = True,
    seed_label: str = "sides",
) -> BalancedSubgraph:
    """Run one full peel + polish search from the assignment *sides*.

    This is the unit of work a restart performs; the spans nest as
    ``balanced_extract > rounding`` and ``balanced_extract > polish``
    when called under the runner's outer span.
    """
    sides = np.asarray(sides, dtype=np.int8)
    with span("rounding"):
        sat = satisfied_edges(graph, sides)
        alive = peel_to_tolerance(
            graph, sat, tolerance=tolerance, peel_frac=peel_frac
        )
    if polish:
        with span("polish"):
            alive, sides, sat = polish_subgraph(graph, sides, sat, alive)
    return _result_from_mask(
        graph, sides, sat, alive, tolerance, seed_label
    )


def extract_balanced(
    graph: SignedGraph,
    tolerance: int = 0,
    restarts: int = 4,
    seed: int = 0,
    peel_frac: float = DEFAULT_PEEL_FRAC,
    polish: bool = True,
) -> BalancedSubgraph:
    """Best subgraph across the standard seed portfolio.

    Convenience single-process entry point; the pool-capable variant
    with reporting lives in :func:`repro.balanced.runner.run_balanced`.
    Seeds are the signed-spectral rounding plus *restarts* spanning-tree
    switchings (see :mod:`repro.balanced.seeds`); the winner is the
    lexicographically best :meth:`BalancedSubgraph.score`, ties going
    to the earliest seed.
    """
    from repro.balanced.seeds import seed_assignments

    with span("balanced_extract"):
        with span("eigen"):
            seeds = seed_assignments(graph, restarts=restarts, seed=seed)
        best: BalancedSubgraph | None = None
        for label, assignment in seeds:
            result = search_from_sides(
                graph,
                assignment,
                tolerance=tolerance,
                peel_frac=peel_frac,
                polish=polish,
                seed_label=label,
            )
            if best is None or result.score() > best.score():
                best = result
    assert best is not None  # seed_assignments never returns empty
    return best
