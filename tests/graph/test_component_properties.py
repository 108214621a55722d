"""Property tests: the hook-and-jump component labeling, the sort-free
largest-component extraction and the one-key CSR builders against the
loops and two-key sorts they replaced (``tests/graph/oracles.py``).

Every comparison is array for array and dtype for dtype: the labels,
the six CSR arrays of the subgraph and ``old_ids``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import csr_from_undirected, from_arrays
from repro.graph.components import (
    connected_components,
    largest_connected_component,
)
from repro.graph.store import GraphStore

from tests.graph.oracles import (
    connected_components_oracle,
    csr_from_undirected_oracle,
    from_arrays_oracle,
    largest_connected_component_oracle,
)
from tests.serve.conftest import daemon

ARRAYS = ("indptr", "adj_vertex", "adj_edge", "edge_u", "edge_v", "edge_sign")


def _assert_same_graph(new, old):
    for name in ARRAYS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _check(u, v, s, n, dedup="first"):
    """Build both ways, then label and extract both ways."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    s = np.asarray(s, dtype=np.float64)
    graph = from_arrays(u, v, s, num_vertices=n, dedup=dedup)
    _assert_same_graph(
        graph, from_arrays_oracle(u, v, s, num_vertices=n, dedup=dedup))
    labels = connected_components(graph)
    expected = connected_components_oracle(graph)
    assert labels.dtype == expected.dtype
    np.testing.assert_array_equal(labels, expected)
    sub, ids = largest_connected_component(graph)
    sub_old, ids_old = largest_connected_component_oracle(graph)
    _assert_same_graph(sub, sub_old)
    assert ids.dtype == ids_old.dtype
    np.testing.assert_array_equal(ids, ids_old)
    return graph, sub


def _signs(draw, m):
    return draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 3.0]),
                         min_size=m, max_size=m))


@st.composite
def random_graphs(draw):
    """Sparse multigraphs with isolated vertices and parallel edges."""
    n = draw(st.integers(2, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=60))
    pairs = [(a, b) for a, b in pairs if a != b]
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    extra = draw(st.integers(0, 10))  # trailing isolated vertices
    dedup = draw(st.sampled_from(["product", "first", "last", "sum"]))
    return u, v, _signs(draw, len(pairs)), n + extra, dedup


@st.composite
def tiny_components(draw):
    """Many components of one or two vertices, in a shuffled layout."""
    k = draw(st.integers(1, 30))
    perm = draw(st.permutations(range(2 * k)))
    pairs = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    u = [perm[2 * i] for i in range(k) if pairs[i]]
    v = [perm[2 * i + 1] for i in range(k) if pairs[i]]
    return u, v, _signs(draw, len(u)), 2 * k


@st.composite
def paths(draw):
    """A path, its vertices in id order or permuted, plus spare ids."""
    n = draw(st.integers(2, 60))
    order = (list(range(n)) if draw(st.booleans())
             else draw(st.permutations(range(n))))
    spare = draw(st.integers(0, 5))
    return order[:-1], order[1:], _signs(draw, n - 1), n + spare


@st.composite
def stars(draw):
    n = draw(st.integers(2, 50))
    center = draw(st.integers(0, n - 1))
    leaves = [x for x in range(n) if x != center]
    return [center] * len(leaves), leaves, _signs(draw, len(leaves)), n


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_random_multigraphs(case):
    u, v, s, n, dedup = case
    _check(u, v, s, n, dedup=dedup)


@settings(max_examples=40, deadline=None)
@given(tiny_components())
def test_many_tiny_components(case):
    _check(*case)


@settings(max_examples=40, deadline=None)
@given(paths())
def test_paths_sorted_and_permuted(case):
    _check(*case)


@settings(max_examples=30, deadline=None)
@given(stars())
def test_stars(case):
    _, sub = _check(*case)
    assert sub.num_vertices == len(case[1]) + 1


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_vertex(n):
    _check([], [], [], n)


def test_long_permuted_path():
    """Deep enough that the old BFS ran one level per vertex."""
    perm = np.random.default_rng(3).permutation(5_000)
    _check(perm[:-1], perm[1:], np.ones(4_999), 5_000)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.randoms(use_true_random=False))
def test_edges_out_of_builder_order(case, rnd):
    """A graph assembled straight from edges in any order, some of them
    with ``u > v`` (the builders sort and orient them;
    ``csr_from_undirected`` need not)."""
    u, v, s, n, _ = case
    edges = sorted({(min(a, b), max(a, b)) for a, b in zip(u, v)})
    rnd.shuffle(edges)
    edges = [(b, a) if rnd.random() < 0.3 else (a, b) for a, b in edges]
    eu = np.array([a for a, _ in edges], dtype=np.int64)
    ev = np.array([b for _, b in edges], dtype=np.int64)
    es = np.where(np.arange(len(edges)) % 3 == 0, -1, 1).astype(np.int8)
    graph = csr_from_undirected(n, eu, ev, es)
    _assert_same_graph(graph, csr_from_undirected_oracle(n, eu, ev, es))
    sub, ids = largest_connected_component(graph)
    sub_old, ids_old = largest_connected_component_oracle(graph)
    _assert_same_graph(sub, sub_old)
    np.testing.assert_array_equal(ids, ids_old)


@pytest.fixture()
def connected_store(tmp_path):
    from repro.graph.io import write_edgelist

    from tests.conftest import make_connected_signed

    graph = make_connected_signed(30, 60, seed=4)
    text = tmp_path / "graph.txt"
    write_edgelist(graph, text)
    store = tmp_path / "graph.rsgs"
    GraphStore.pack(graph, store)
    return text, store


def test_connected_store_graph_comes_back_as_itself(connected_store):
    _, store = connected_store
    graph = GraphStore.open(store).graph()
    sub, ids = largest_connected_component(graph)
    assert sub is graph
    assert not sub.edge_sign.flags.writeable
    np.testing.assert_array_equal(ids, np.arange(graph.num_vertices))


def test_cloud_runs_on_read_only_store_arrays(connected_store, tmp_path):
    """``repro cloud`` on a store keeps its mmap arrays: any write into
    them raises, and the answer equals the text input's."""
    from repro.cli import main

    text, store = connected_store
    outputs = []
    for source in (store, text):
        out = tmp_path / f"{source.suffix[1:]}.csv"
        edges = tmp_path / f"{source.suffix[1:]}-edges.csv"
        assert main(["cloud", str(source), "--states", "12", "--seed", "3",
                     "--output", str(out), "--edge-output", str(edges)]) == 0
        outputs.append((out.read_text(), edges.read_text()))
    assert outputs[0] == outputs[1]


def test_serve_boots_and_grows_on_read_only_store_arrays(connected_store):
    import http.client
    import json

    from repro.cli import _lcc, load_graph_file

    _, store = connected_store
    graph, _ = _lcc(load_graph_file(str(store)))  # as `repro serve` boots
    assert not graph.indptr.flags.writeable
    with daemon(graph, target_states=8, grow_step=4) as handle:
        handle.wait_states(8)
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=10)
        try:
            for path in ("/vertex/3", "/edge/5", "/snapshot"):
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200, body
            assert json.loads(body)["states"] >= 8
        finally:
            conn.close()
