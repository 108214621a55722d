"""The O(n) parity-based Harary path against the BFS/2-coloring oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancer import balance
from repro.core.cycles_vectorized import sign_to_root
from repro.harary.bipartition import (
    harary_bipartition,
    positive_components,
    sides_from_sign_to_root,
)
from repro.trees.sampler import TREE_METHODS, TreeSampler

from tests.conftest import make_connected_signed


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_fast_sides_match_oracle(seed, n, extra, neg_frac):
    """On a random balanced state, the sign-to-root sides equal the
    positive-component + collapsed-graph 2-coloring oracle exactly, for
    every cycle kernel on a tree from every sampler method."""
    g = make_connected_signed(n, extra, negative_fraction=neg_frac, seed=seed % 97)
    for method in sorted(TREE_METHODS):
        tree = TreeSampler(g, method=method, seed=seed).tree(0)
        for kernel in ("walk", "lockstep", "parity"):
            labeling = "parallel" if kernel == "walk" else "none"
            result = balance(g, tree, kernel=kernel, labeling=labeling)
            s2r = sign_to_root(g, tree, signs=result.signs)
            # No kernel flips a tree edge: the input's sign-to-root agrees.
            assert np.array_equal(s2r, sign_to_root(g, tree))
            fast = sides_from_sign_to_root(s2r)
            oracle = harary_bipartition(g, result.signs)
            assert np.array_equal(fast, oracle.side), (method, kernel)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_fast_sides_batch_shape(seed):
    """Batched (B, n) input yields the per-row single-state answer."""
    g = make_connected_signed(15, 30, seed=seed % 31)
    sampler = TreeSampler(g, seed=seed)
    batch = sampler.batch(4)
    from repro.core.parity_batch import sign_to_root_batch

    s2r = sign_to_root_batch(g, batch)
    sides = sides_from_sign_to_root(s2r)
    assert sides.shape == s2r.shape
    for b in range(4):
        assert np.array_equal(sides[b], sides_from_sign_to_root(s2r[b]))


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_positive_components_match_reference(seed, n, neg_frac):
    """Multi-source min-label propagation labels components exactly like
    a seed-in-id-order BFS (consecutive ids, ordered by min vertex)."""
    g = make_connected_signed(n, n, negative_fraction=neg_frac, seed=seed % 53)
    comp = positive_components(g)

    # Reference: per-seed BFS in vertex-id order over positive edges.
    label = np.full(g.num_vertices, -1, dtype=np.int64)
    nxt = 0
    for s in range(g.num_vertices):
        if label[s] != -1:
            continue
        stack = [s]
        label[s] = nxt
        while stack:
            v = stack.pop()
            lo, hi = g.indptr[v], g.indptr[v + 1]
            for w, e in zip(g.adj_vertex[lo:hi], g.adj_edge[lo:hi]):
                if g.edge_sign[e] > 0 and label[w] == -1:
                    label[w] = nxt
                    stack.append(int(w))
        nxt += 1
    assert np.array_equal(comp, label)


def test_positive_components_fragmented_state():
    """An all-negative graph is maximally fragmented: every vertex is
    its own positive component, labeled by vertex id."""
    g = make_connected_signed(50, 80, negative_fraction=1.0, seed=0)
    if g.num_negative_edges == g.num_edges:
        comp = positive_components(g)
        assert np.array_equal(comp, np.arange(g.num_vertices))


def test_positive_components_empty_graph():
    from repro.graph.build import from_edges

    g = from_edges([], num_vertices=0)
    assert len(positive_components(g)) == 0
