"""The subtree-local swap must be bit-identical to the full-scan swap.

``TreeDeltaState.crossing_candidates`` reads only the moved subtree's
CSR rows, and ``cut_link`` rewrites IDs only in the window S moves
across.  The full-scan versions they replaced live here as
``_reference_*`` oracles: an m-edge range scan for the candidates, and
for the swap an inverse permutation, a ``parent == u_out`` scan and
three whole-array ID shifts.  Random swap sequences on random connected
signed graphs must leave both states identical field by field.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cloud import sample_cloud
from repro.core.balancer import balance
from repro.core.cycles_vectorized import sign_to_root
from repro.core.incremental import IncrementalBalancer, TreeDeltaState
from repro.core.labeling import label_tree
from repro.errors import ReproError
from repro.perf.registry import collecting
from repro.trees.sampler import TREE_METHODS, TreeSampler
from repro.trees.swap_chain import SwapChainSampler

from tests.conftest import make_connected_signed

#: Independent tree draws the oracle starts from (BFS trees are shallow,
#: DFS and Wilson trees deep, so the moved windows vary widely).
START_METHODS = tuple(sorted(m for m in TREE_METHODS if m != "swap"))


def _reference_crossing_candidates(st: TreeDeltaState, child: int):
    """The full-scan candidates: range-test both endpoints of every
    edge, keep the non-tree edges with exactly one inside."""
    lo, hi = st.subtree_range(child)
    u_ids = st.new_id[st.graph.edge_u]
    v_ids = st.new_id[st.graph.edge_v]
    u_in = (u_ids >= lo) & (u_ids <= hi)
    v_in = (v_ids >= lo) & (v_ids <= hi)
    return np.nonzero((u_in != v_in) & ~st.in_tree)[0]


def _reference_cut_link(st: TreeDeltaState, cut_edge, link_edge, slot):
    """The full-scan swap: members from an n-vertex inverse permutation,
    u_out's children from a ``parent == u_out`` scan, and the new IDs
    from three whole-array shift passes.  Leaves ``st.order`` stale."""
    graph = st.graph
    c = st.child_endpoint(cut_edge)
    p = int(st.parent[c])
    lo, hi = st.subtree_range(c)
    s = hi - lo + 1
    fu, fv = int(graph.edge_u[link_edge]), int(graph.edge_v[link_edge])
    fu_in = lo <= int(st.new_id[fu]) <= hi
    v_in, u_out = (fu, fv) if fu_in else (fv, fu)
    factor = int(st.s2r[u_out]) * int(st.s2r[v_in]) * int(st.signs[link_edge])

    inv = np.empty(graph.num_vertices, dtype=np.int64)
    inv[st.new_id] = np.arange(graph.num_vertices)
    members = inv[lo : hi + 1]

    ids = st.new_id
    start = int(ids[u_out]) - (s if ids[u_out] > hi else 0) + 1
    for w in np.nonzero(st.parent == u_out)[0]:
        w = int(w)
        if w == c or w >= v_in:
            continue
        w_lo, w_size = int(ids[w]), int(st.subtree_size[w])
        covers_s = w_lo <= lo and hi <= w_lo + w_size - 1
        start += w_size - (s if covers_s else 0)

    path = [v_in]
    while path[-1] != c:
        path.append(int(st.parent[path[-1]]))
    old_pe = [int(st.parent_edge[x]) for x in path]
    for i in range(len(path) - 1):
        st.parent[path[i + 1]] = path[i]
        st.parent_edge[path[i + 1]] = old_pe[i]
    st.parent[v_in] = u_out
    st.parent_edge[v_in] = link_edge
    st.in_tree[cut_edge] = False
    st.in_tree[link_edge] = True
    st.tree_edges[slot] = link_edge

    kids: dict[int, list[int]] = {}
    for x in np.sort(members):
        x = int(x)
        if x != v_in:
            kids.setdefault(int(st.parent[x]), []).append(x)
    local_id: dict[int, int] = {}
    local_size: dict[int, int] = {}
    stack = [v_in]
    while stack:
        x = stack.pop()
        if x < 0:
            x = ~x
            if x != v_in:
                local_size[int(st.parent[x])] += local_size[x]
            continue
        local_id[x] = len(local_id)
        local_size[x] = 1
        stack.append(~x)
        stack.extend(reversed(kids.get(x, ())))

    in_s = (ids >= lo) & (ids <= hi)
    ids -= s * (ids > hi)
    ids += s * (~in_s & (ids >= start))
    ids[members] = [start + local_id[int(x)] for x in members]

    v = p
    while v >= 0:
        st.subtree_size[v] -= s
        v = int(st.parent[v])
    v = u_out
    while v >= 0:
        st.subtree_size[v] += s
        v = int(st.parent[v])
    st.subtree_size[members] = [local_size[int(x)] for x in members]
    if factor < 0:
        st.s2r[members] = -st.s2r[members]


FIELDS = ("parent", "parent_edge", "in_tree", "tree_edges", "new_id",
          "subtree_size", "s2r")


def _assert_same_state(got: TreeDeltaState, want: TreeDeltaState) -> None:
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
    n = got.graph.num_vertices
    np.testing.assert_array_equal(got.order[got.new_id], np.arange(n))


@st.composite
def _swap_cases(draw):
    n = draw(st.integers(2, 40))
    extra = draw(st.integers(0, 3 * n))
    graph = make_connected_signed(n, extra, seed=draw(st.integers(0, 2**16)))
    method = draw(st.sampled_from(START_METHODS))
    tree = TREE_METHODS[method](graph, seed=draw(st.integers(0, 2**16)))
    return graph, tree, draw(st.integers(0, 2**16)), draw(st.integers(1, 30))


class TestAgainstFullScanOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_swap_cases())
    def test_random_swaps_match_full_scan(self, case):
        graph, tree, seed, num_swaps = case
        got = TreeDeltaState(graph, tree)
        want = TreeDeltaState(graph, tree)
        # The segment base is labeled by Alg. 4; it must equal the
        # serial pre-order the oracle was written against.
        np.testing.assert_array_equal(got.new_id, label_tree(tree).new_id)
        _assert_same_state(got, want)
        rng = np.random.default_rng(seed)
        for _ in range(num_swaps):
            slot = int(rng.integers(0, len(got.tree_edges)))
            cut = int(got.tree_edges[slot])
            child = got.child_endpoint(cut)
            cand = got.crossing_candidates(child)
            np.testing.assert_array_equal(
                cand, _reference_crossing_candidates(want, child)
            )
            if not len(cand):
                continue
            link = int(cand[int(rng.integers(0, len(cand)))])
            got.cut_link(cut, link, slot=slot)
            _reference_cut_link(want, cut, link, slot)
            _assert_same_state(got, want)
        # And both still equal a from-scratch labeling of the new tree.
        final = got.spanning_tree()
        np.testing.assert_array_equal(got.new_id, label_tree(final).new_id)
        np.testing.assert_array_equal(got.s2r, sign_to_root(graph, final))

    @settings(max_examples=60, deadline=None)
    @given(case=_swap_cases())
    def test_balancer_swaps_and_flips_stay_consistent(self, case):
        """``IncrementalBalancer.swap_tree_edge`` between sign flips:
        the balanced state always equals a fresh ``balance`` of the
        current input signs on the current tree."""
        graph, tree, seed, num_ops = case
        inc = IncrementalBalancer(graph, tree)
        rng = np.random.default_rng(seed)
        for _ in range(num_ops):
            delta = inc._delta
            if rng.random() < 0.3:
                inc.flip_sign(int(rng.integers(0, graph.num_edges)))
            else:
                cut = int(delta.tree_edges[rng.integers(0, len(delta.tree_edges))])
                cand = delta.crossing_candidates(delta.child_endpoint(cut))
                if not len(cand):
                    continue
                inc.swap_tree_edge(cut, int(cand[rng.integers(0, len(cand))]))
            fresh = balance(graph.with_signs(inc.input_signs()), inc.tree)
            np.testing.assert_array_equal(inc.balanced_signs(), fresh.signs)
            np.testing.assert_array_equal(
                delta.order[delta.new_id], np.arange(graph.num_vertices)
            )

    def test_non_crossing_link_rejected(self):
        graph = make_connected_signed(20, 40, seed=3)
        st_ = TreeDeltaState(graph, TREE_METHODS["bfs"](graph, seed=1))
        cut = int(st_.tree_edges[0])
        lo, hi = st_.subtree_range(st_.child_endpoint(cut))
        u_ids = st_.new_id[graph.edge_u]
        v_ids = st_.new_id[graph.edge_v]
        inside = (u_ids >= lo) & (u_ids <= hi)
        same_side = np.nonzero(
            (inside == ((v_ids >= lo) & (v_ids <= hi))) & ~st_.in_tree
        )[0]
        with pytest.raises(ReproError, match="does not cross"):
            st_.cut_link(cut, int(same_side[0]))


def _swap_digest() -> str:
    graph = make_connected_signed(300, 900, seed=17)
    cloud = sample_cloud(graph, 300, method="swap", batch_size=16, seed=5,
                         swaps_per_state=3)
    return hashlib.sha256(
        cloud.status().tobytes()
        + cloud.edge_coside().tobytes()
        + cloud.flip_counts().tobytes()
    ).hexdigest()


@pytest.mark.parametrize("digest", [
    "c783fa47e3de09e140c5cc4d6fcfbb9e3f5ca4aeeeba330c4587990a76cc61b5",
], ids=["swap"])
def test_golden_digest(digest):
    """Pinned status + edge_coside + flip_counts of a fixed swap
    campaign that crosses a segment boundary (300 states, segments of
    256): any change to the chain's trees or the cloud's counters
    shows up here."""
    assert _swap_digest() == digest


@pytest.mark.parametrize("indices", [
    pytest.param(lambda: iter(range(4)), id="iterator"),
    pytest.param(lambda: range(4), id="range"),
    pytest.param(lambda: 4, id="int"),
])
def test_swap_states_accepts_any_index_form(indices):
    """An iterator of chain indices is read once: counted and sampled
    from the same materialized list."""
    graph = make_connected_signed(30, 70, seed=2)
    sampler = TreeSampler(graph, method="swap", seed=8)
    with collecting(merge=False) as registry:
        signs, s2r = sampler.swap_states(indices())
    assert registry.counter("trees.sampled_total") == 4
    want_signs, want_s2r = SwapChainSampler(graph, seed=8).states(range(4))
    np.testing.assert_array_equal(signs, want_signs)
    np.testing.assert_array_equal(s2r, want_s2r)
