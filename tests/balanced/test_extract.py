"""Balanced-subgraph extraction: every returned subgraph must pass the
independent auditors (``check_balance`` on the induced subgraph, and a
from-scratch violation recount), the search must be deterministic, and
the search must recover obviously balanced structure in full."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.balanced.extract as extract_mod
from repro.balanced import run_balanced
from repro.balanced.extract import (
    BalancedSubgraph,
    extract_balanced,
    peel_to_tolerance,
    polish_subgraph,
    satisfied_edges,
    search_from_sides,
)
from repro.balanced.seeds import seed_assignments, spectral_sides, tree_sides
from repro.balanced.tolerance import tolerance_violations
from repro.core.verify import check_balance
from repro.errors import BalancedSearchError
from repro.graph.build import from_edges
from repro.graph.generators import ensure_connected, planted_partition_signed
from repro.graph.subgraph import induced_subgraph
from tests.conftest import make_connected_signed


def _audit(graph, result: BalancedSubgraph) -> None:
    """The full independent audit every test funnels through: the
    induced subgraph must be balanced per ``core/verify`` (when
    tolerance is 0) and the recounted per-vertex violations must stay
    within tolerance; the result's own counters must match the
    recount."""
    violations = tolerance_violations(graph, result.vertices, result.sides)
    max_violations = int(violations.max()) if len(violations) else 0
    assert max_violations <= result.tolerance
    if result.tolerance == 0 and result.num_vertices:
        sub, _ = induced_subgraph(graph, result.vertices)
        cert = check_balance(sub)
        assert cert.balanced, f"auditor found violating edge {cert.violating_edge}"
    # The result's own bookkeeping must agree with the recount.
    assert result.unsatisfied_edges == int(violations.sum()) // 2


def _reference_peel(graph, sat, tolerance=0, peel_frac=0.25, alive=None):
    """The from-scratch peel: every round recounts every bad degree
    over the whole edge list.  Oracle for :func:`peel_to_tolerance`."""
    n = graph.num_vertices
    alive = np.ones(n, dtype=bool) if alive is None else alive.copy()
    while True:
        live_bad = alive[graph.edge_u] & alive[graph.edge_v] & ~sat
        bad = np.bincount(graph.edge_u[live_bad], minlength=n)
        bad += np.bincount(graph.edge_v[live_bad], minlength=n)
        over = np.nonzero(alive & (bad > tolerance))[0]
        if len(over) == 0:
            return alive
        k = max(1, math.ceil(peel_frac * len(over)))
        order = np.argsort(-bad[over], kind="stable")
        alive[over[order[:k]]] = False


def _reference_polish(graph, sides, sat, alive):
    """The one-candidate-at-a-time polish: rank the admissible dead
    vertices, then admit each after rechecking it against the subgraph
    grown so far.  Oracle for :func:`polish_subgraph`."""
    sides = np.asarray(sides, dtype=np.int8).copy()
    alive = alive.copy()
    eu, ev, sign = graph.edge_u, graph.edge_v, graph.edge_sign
    n = graph.num_vertices
    while True:
        u_live = alive[eu] & ~alive[ev]
        v_live = alive[ev] & ~alive[eu]
        w = np.concatenate([ev[u_live], eu[v_live]])
        anchor = np.concatenate([eu[u_live], ev[v_live]])
        s = np.concatenate([sign[u_live], sign[v_live]])
        plus_ok = s * sides[anchor] > 0
        deg_in = np.bincount(w, minlength=n)
        plus = np.bincount(w[plus_ok], minlength=n)
        fits = ~alive & ((deg_in - plus == 0) | (plus == 0))
        cand = np.nonzero(fits)[0]
        if len(cand) == 0:
            break
        cand = cand[np.argsort(-deg_in[cand], kind="stable")]
        admitted = 0
        for v in cand:
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nbrs = graph.adj_vertex[lo:hi]
            eids = graph.adj_edge[lo:hi]
            live = alive[nbrs]
            prod = sign[eids[live]] * sides[nbrs[live]]
            if not np.any(prod < 0):
                side = 1
            elif not np.any(prod > 0):
                side = -1
            else:
                continue
            alive[v] = True
            sides[v] = side
            admitted += 1
        if admitted == 0:
            break
    return alive, sides, satisfied_edges(graph, sides)


@st.composite
def _signed_cases(draw):
    """A random signed graph on ``n`` vertices — often disconnected,
    with isolated vertices — plus random sides and a random start
    mask."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([-1, 1])),
        max_size=3 * n,
    ))
    graph = from_edges([(u, v, s) for u, v, s in pairs if u != v],
                       num_vertices=n)
    sides = np.array(draw(st.lists(st.sampled_from([-1, 1]),
                                   min_size=n, max_size=n)), dtype=np.int8)
    start = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return graph, sides, start


class TestAgainstSequentialOracle:
    """The incremental peel and level-scheduled polish must reproduce
    the from-scratch peel and one-candidate-at-a-time polish exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=_signed_cases(),
        tolerance=st.sampled_from([0, 1, 2]),
        peel_frac=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_peel_and_polish_match_oracle(self, case, tolerance, peel_frac):
        graph, sides, start = case
        sat = satisfied_edges(graph, sides)
        for alive0 in (None, start):
            alive = peel_to_tolerance(graph, sat, tolerance=tolerance,
                                      peel_frac=peel_frac, alive=alive0)
            expected = _reference_peel(graph, sat, tolerance, peel_frac,
                                       alive=alive0)
            np.testing.assert_array_equal(alive, expected)
        # Polish from the peel's survivors, and from an arbitrary mask
        # (live vertices with violations, dead ones with no live edge).
        for alive0 in (alive, start):
            got = polish_subgraph(graph, sides, sat, alive0)
            want = _reference_polish(graph, sides, sat, alive0)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


class TestPolishFixpoint:
    """One admission round is the polish fixed point: nothing dead fits
    the subgraph it returns."""

    @settings(max_examples=300, deadline=None)
    @given(case=_signed_cases())
    def test_output_is_a_fixed_point(self, case):
        graph, sides, start = case
        sat = satisfied_edges(graph, sides)
        alive, out_sides, out_sat = polish_subgraph(graph, sides, sat, start)
        # The looping oracle, started from the output, admits nothing.
        again = _reference_polish(graph, out_sides, out_sat, alive)
        for a, b in zip(again, (alive, out_sides, out_sat)):
            np.testing.assert_array_equal(a, b)
        # No dead vertex fits on either side: each has live neighbours
        # that rule out both.
        for v in np.flatnonzero(~alive):
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nbrs = graph.adj_vertex[lo:hi]
            live = alive[nbrs]
            prod = (graph.edge_sign[graph.adj_edge[lo:hi][live]]
                    * out_sides[nbrs[live]])
            assert np.any(prod < 0) and np.any(prod > 0), int(v)

    def test_schedules_candidates_once(self, monkeypatch):
        # Every scan for candidates ends in one _candidate_levels call,
        # empty or not, so one call means one scan.  The all-ones seed
        # on a planted partition peels a third of the graph, and polish
        # admits candidates on two levels.
        graph = ensure_connected(
            planted_partition_signed([40, 40], flip_noise=0.1, seed=5),
            seed=5,
        )
        sides = np.ones(graph.num_vertices, dtype=np.int8)
        sat = satisfied_edges(graph, sides)
        alive = peel_to_tolerance(graph, sat)
        calls = []
        levels = extract_mod._candidate_levels

        def counted(*args):
            calls.append(1)
            return levels(*args)

        monkeypatch.setattr(extract_mod, "_candidate_levels", counted)
        got = polish_subgraph(graph, sides, sat, alive)
        assert len(calls) == 1
        assert got[0].sum() > alive.sum()


def _digest(best) -> str:
    return hashlib.sha256(
        np.asarray(best.vertices, dtype=np.int64).tobytes()
        + np.asarray(best.sides, dtype=np.int8).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("workload,tolerance,digest", [
    ("extract", 0,
     "8aee7e72d82e15a34c8ca3863ae38ca49b8c6025975176f636aee67f7af90550"),
    ("tolerance", 2,
     "2b979c9b4772084576d86e1b8c9ae189447f98b6b38998f30b1d1ae88896f6cb"),
], ids=["extract", "tolerance"])
def test_golden_digest(workload, tolerance, digest):
    """Pinned ``best.vertices`` + ``best.sides`` on a fixed planted
    graph: any change to the search's output shows up here."""
    graph = ensure_connected(
        planted_partition_signed([150, 150], intra_degree=6.0,
                                 inter_degree=2.0, flip_noise=0.10, seed=11),
        seed=11,
    )
    report = run_balanced(graph, workload=workload, tolerance=tolerance,
                          restarts=6, seed=3, workers=0)
    assert _digest(report.best) == digest


class TestSatisfiedEdges:
    def test_positive_triangle_all_satisfied(self, triangle):
        sides = np.ones(3, dtype=np.int8)
        assert satisfied_edges(triangle, sides).all()

    def test_negative_edge_satisfied_across_sides(self):
        graph = from_edges([(0, 1, -1)])
        assert satisfied_edges(graph, np.array([1, -1])).all()
        assert not satisfied_edges(graph, np.array([1, 1])).any()

    def test_shape_mismatch_rejected(self, triangle):
        with pytest.raises(BalancedSearchError, match="shape"):
            satisfied_edges(triangle, np.ones(5, dtype=np.int8))

    def test_non_pm1_sides_rejected(self, triangle):
        with pytest.raises(BalancedSearchError, match=r"\+1 or -1"):
            satisfied_edges(triangle, np.array([1, 0, 1]))


class TestPeel:
    def test_balanced_graph_keeps_everything(self, triangle):
        sat = satisfied_edges(triangle, np.ones(3, dtype=np.int8))
        assert peel_to_tolerance(triangle, sat).all()

    def test_neg_triangle_peels_until_consistent(self, neg_triangle):
        sat = satisfied_edges(neg_triangle, np.ones(3, dtype=np.int8))
        alive = peel_to_tolerance(neg_triangle, sat)
        # One endpoint of the negative edge must go; survivors have no
        # live unsatisfied edge.
        assert alive.sum() < 3
        live_bad = (
            alive[neg_triangle.edge_u] & alive[neg_triangle.edge_v] & ~sat
        )
        assert not live_bad.any()

    def test_tolerance_one_keeps_neg_triangle_whole(self, neg_triangle):
        sat = satisfied_edges(neg_triangle, np.ones(3, dtype=np.int8))
        assert peel_to_tolerance(neg_triangle, sat, tolerance=1).all()

    def test_negative_tolerance_rejected(self, triangle):
        sat = satisfied_edges(triangle, np.ones(3, dtype=np.int8))
        with pytest.raises(BalancedSearchError, match="tolerance"):
            peel_to_tolerance(triangle, sat, tolerance=-1)

    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.5])
    def test_bad_peel_frac_rejected(self, triangle, frac):
        sat = satisfied_edges(triangle, np.ones(3, dtype=np.int8))
        with pytest.raises(BalancedSearchError, match="peel_frac"):
            peel_to_tolerance(triangle, sat, peel_frac=frac)


class TestPolish:
    def test_readmits_wrongly_seeded_leaf(self):
        # Path 0-1 positive: the all-wrong seed [1, -1] peels one
        # endpoint; polish must bring it back on the correct side.
        graph = from_edges([(0, 1, 1)])
        sides = np.array([1, -1], dtype=np.int8)
        sat = satisfied_edges(graph, sides)
        alive = peel_to_tolerance(graph, sat)
        assert alive.sum() == 1
        alive, sides, sat = polish_subgraph(graph, sides, sat, alive)
        assert alive.all()
        assert sat.all()

    def test_never_introduces_violations(self, medium_graph):
        sides = spectral_sides(medium_graph)
        sat = satisfied_edges(medium_graph, sides)
        alive = peel_to_tolerance(medium_graph, sat)
        before = alive.sum()
        alive, sides, sat = polish_subgraph(medium_graph, sides, sat, alive)
        assert alive.sum() >= before
        live_bad = (
            alive[medium_graph.edge_u] & alive[medium_graph.edge_v] & ~sat
        )
        assert not live_bad.any()

    def test_polish_never_shrinks_result(self, medium_graph):
        sides = spectral_sides(medium_graph)
        polished = search_from_sides(medium_graph, sides, polish=True)
        rough = search_from_sides(medium_graph, sides, polish=False)
        assert polished.num_vertices >= rough.num_vertices


class TestSeeds:
    def test_portfolio_order_and_shapes(self, medium_graph):
        seeds = seed_assignments(medium_graph, restarts=3, seed=0)
        labels = [label for label, _ in seeds]
        assert labels == ["spectral", "tree:0", "tree:1", "tree:2"]
        for _, assignment in seeds:
            assert assignment.shape == (medium_graph.num_vertices,)
            assert np.all(np.abs(assignment) == 1)

    def test_tree_seeds_satisfy_their_tree(self, medium_graph):
        # A sign-to-root switching satisfies every tree edge, so it can
        # leave at most the co-tree edges unsatisfied.
        rows = tree_sides(medium_graph, range(2), seed=0)
        m = medium_graph.num_edges
        cotree = m - (medium_graph.num_vertices - 1)
        for row in rows:
            unsat = int((~satisfied_edges(medium_graph, row)).sum())
            assert unsat <= cotree

    def test_tiny_graph_falls_back(self):
        graph = from_edges([(0, 1, 1)])
        seeds = seed_assignments(graph, restarts=2, seed=0)
        assert seeds, "portfolio must never be empty"
        assert seeds[0][0] != "spectral"  # below the eigensolver floor

    def test_restarts_zero_still_yields_a_seed(self, medium_graph):
        assert seed_assignments(medium_graph, restarts=0, seed=0)

    def test_negative_restarts_rejected(self, medium_graph):
        with pytest.raises(Exception, match="restarts"):
            seed_assignments(medium_graph, restarts=-1)


class TestExtract:
    def test_balanced_graph_kept_whole(self):
        # Noiseless planted partition is exactly balanced; the search
        # must keep every vertex.
        graph = ensure_connected(
            planted_partition_signed([30, 30], flip_noise=0.0, seed=3),
            seed=3,
        )
        assert check_balance(graph).balanced
        result = extract_balanced(graph)
        assert result.num_vertices == graph.num_vertices
        assert result.unsatisfied_edges == 0
        _audit(graph, result)

    def test_neg_triangle_keeps_two(self, neg_triangle):
        result = extract_balanced(neg_triangle)
        assert result.num_vertices == 2
        _audit(neg_triangle, result)

    def test_random_graph_audited(self):
        graph = make_connected_signed(120, 260, seed=9)
        result = extract_balanced(graph, restarts=3, seed=1)
        assert result.num_vertices > 0
        _audit(graph, result)

    def test_noisy_partition_recovers_most_vertices(self):
        graph = ensure_connected(
            planted_partition_signed([60, 60], flip_noise=0.05, seed=7),
            seed=7,
        )
        result = extract_balanced(graph)
        # 5% noise should cost well under half the graph.
        assert result.num_vertices > graph.num_vertices // 2
        _audit(graph, result)

    def test_deterministic_across_runs(self):
        graph = make_connected_signed(80, 170, seed=4)
        a = extract_balanced(graph, restarts=3, seed=2)
        b = extract_balanced(graph, restarts=3, seed=2)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.sides, b.sides)
        assert a.seed_label == b.seed_label

    def test_score_is_lexicographic(self):
        big = BalancedSubgraph(
            vertices=np.arange(5), sides=np.ones(5, dtype=np.int8),
            num_edges=2, unsatisfied_edges=0, tolerance=0, seed_label="a",
        )
        dense = BalancedSubgraph(
            vertices=np.arange(4), sides=np.ones(4, dtype=np.int8),
            num_edges=6, unsatisfied_edges=0, tolerance=0, seed_label="b",
        )
        assert big.score() > dense.score()

    def test_side_of_membership_map(self, triangle):
        result = extract_balanced(triangle)
        assert result.side_of == {
            int(v): int(s)
            for v, s in zip(result.vertices, result.sides)
        }
