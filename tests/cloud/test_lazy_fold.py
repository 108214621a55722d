"""Swap-chain campaigns fold delta logs; the dense rows are the oracle.

``ingest_states`` hands swap-chain states to
``FrustrationCloud.add_deltas`` as the chain's delta log (a sign-to-root
base, then each factor −1 swap's moved subtree S and its cut edges
δ(S)).  The dense route — ``SwapChainSampler.states`` rows folded by
``add_batch`` — must give the same cloud bit for bit, on every
attribute, for any swap stride, segment split, chunking, block entry
point and resume boundary.  A delta entry that lies about δ(S) must be
caught.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.checkpoint import load_checkpoint, resume_cloud
from repro.cloud.cloud import FrustrationCloud, ingest_states, sample_cloud
from repro.errors import NotBalancedError, ReproError
from repro.harary.bipartition import sides_from_sign_to_root
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed

ATTRIBUTES = ("status", "influence", "status_volatility", "edge_agreement",
              "edge_coside", "vertex_agreement", "flip_counts")
ACCUMULATORS = ("_majority", "_coalition", "_edge_coside")


def assert_same_cloud(a: FrustrationCloud, b: FrustrationCloud) -> None:
    assert a.num_states == b.num_states
    for name in ACCUMULATORS:
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert lhs.dtype == rhs.dtype and np.array_equal(lhs, rhs), name
    assert a._ties == b._ties
    for name in ATTRIBUTES:
        lhs, rhs = getattr(a, name)(), getattr(b, name)()
        assert lhs.dtype == rhs.dtype and np.array_equal(lhs, rhs), name
    assert a.frustration_upper_bound() == b.frustration_upper_bound()


def dense_cloud(graph, indices, batch_size, **chain) -> FrustrationCloud:
    """The oracle: dense chain rows, one ``add_batch`` per chunk."""
    sampler = TreeSampler(graph, method="swap", **chain)
    cloud = FrustrationCloud(graph)
    for lo in range(0, len(indices), batch_size):
        signs, s2r = sampler.swap_states(indices[lo : lo + batch_size])
        cloud.add_batch(signs, sides_from_sign_to_root(s2r))
    return cloud


def lazy_cloud(graph, indices, batch_size, **chain) -> FrustrationCloud:
    sampler = TreeSampler(graph, method="swap", **chain)
    cloud = FrustrationCloud(graph)
    folded = list(ingest_states(cloud, sampler, indices, _chunk=batch_size))
    assert sum(folded) == len(indices)
    return cloud


@settings(max_examples=100, deadline=None)
@given(
    graph_seed=st.integers(0, 2**16),
    size=st.sampled_from([(12, 30), (30, 80), (45, 160)]),
    seed=st.integers(0, 2**16),
    swaps_per_state=st.sampled_from([1, 2, 3]),
    segment_length=st.sampled_from([1, 2, 3, 5, 8, 256]),
    start=st.integers(0, 12),
    count=st.integers(1, 30),
    step=st.sampled_from([1, 1, 1, 2, 3]),
    batch_size=st.integers(1, 9),
)
def test_lazy_equals_dense(graph_seed, size, seed, swaps_per_state,
                           segment_length, start, count, step, batch_size):
    """Blocks entering mid-segment (any *start*), strided blocks, and
    chunks that do not divide the segment all fold identically."""
    graph = make_connected_signed(*size, seed=graph_seed)
    chain = dict(seed=seed, swaps_per_state=swaps_per_state,
                 segment_length=segment_length)
    indices = range(start, start + count * step, step)
    assert_same_cloud(lazy_cloud(graph, indices, batch_size, **chain),
                      dense_cloud(graph, indices, batch_size, **chain))


@pytest.mark.parametrize("swaps_per_state", [1, 3])
def test_long_chunks_fold_exactly(swaps_per_state):
    """Chunks long enough that per-chunk class-size sums outgrow small
    integer types, crossing a segment base mid-chunk."""
    graph = make_connected_signed(150, 400, seed=3)
    chain = dict(seed=5, swaps_per_state=swaps_per_state,
                 segment_length=180)
    indices = range(10, 410)
    assert_same_cloud(lazy_cloud(graph, indices, 200, **chain),
                      dense_cloud(graph, indices, 200, **chain))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    swaps_per_state=st.sampled_from([1, 2, 3]),
    batch_size=st.integers(1, 7),
    total=st.integers(2, 40),
    data=st.data(),
)
def test_resume_at_any_boundary(tmp_path_factory, seed, swaps_per_state,
                                batch_size, total, data):
    """A swap campaign stopped at any state, checkpointed and resumed
    equals the dense oracle over the whole index range."""
    graph = make_connected_signed(30, 80, seed=seed % 7)
    stop = data.draw(st.integers(1, total), label="stop")
    path = tmp_path_factory.mktemp("resume") / "c.npz"
    sample_cloud(graph, stop, method="swap", seed=seed,
                 batch_size=batch_size, swaps_per_state=swaps_per_state,
                 checkpoint_path=path)
    cloud, _meta = load_checkpoint(path, graph)
    resumed = resume_cloud(cloud, total)
    assert_same_cloud(
        resumed,
        dense_cloud(graph, range(total), batch_size, seed=seed,
                    swaps_per_state=swaps_per_state),
    )


def test_store_states_clouds_fold_dense_rows():
    """Unique states need sign rows, so those clouds stay dense and
    still count the same states."""
    graph = make_connected_signed(20, 50, seed=4)
    stored = sample_cloud(graph, 20, method="swap", seed=2, batch_size=6,
                          store_states=True)
    assert sum(stored.unique_states().values()) == 20
    assert_same_cloud(stored, sample_cloud(graph, 20, method="swap",
                                           seed=2, batch_size=6))
    with pytest.raises(ReproError, match="store"):
        FrustrationCloud(graph, store_states=True).add_deltas(
            TreeSampler(graph, method="swap", seed=2).swap_deltas(range(3))
        )


def _log_with_a_move(graph, seed=0):
    """A 40-state chunk's delta log and the position of its first
    state, after the base, that made a factor −1 swap."""
    sampler = TreeSampler(graph, method="swap", seed=seed)
    log = sampler.swap_deltas(range(40))
    for b, entry in enumerate(log[1:], start=1):
        if isinstance(entry, list) and entry:
            return log, b
    raise AssertionError("no sign-changing swap in 40 states")


def test_tampered_cut_set_names_the_state():
    """An edge outside δ(S) listed as cut: its recheck fails at once,
    naming the state that carries the entry, not the chunk's end."""
    graph = make_connected_signed(40, 120, seed=9)
    log, b = _log_with_a_move(graph)
    members, cut = log[b][0]
    inside = set(members.tolist())
    both_in = [e for e in range(graph.num_edges)
               if int(graph.edge_u[e]) in inside
               and int(graph.edge_v[e]) in inside]
    both_out = [e for e in range(graph.num_edges)
                if int(graph.edge_u[e]) not in inside
                and int(graph.edge_v[e]) not in inside]
    intruder = (both_in or both_out)[0]
    log[b][0] = (members, np.append(cut, intruder))
    cloud = FrustrationCloud(graph)
    with pytest.raises(NotBalancedError,
                       match=f"state {b} .*cut edges disagree"):
        cloud.add_deltas(log)


def test_dropped_cut_edge_fails_the_flush():
    """A δ(S) edge left out of the chunk's last entry keeps a stale
    sign; the full check at the chunk's flush catches it."""
    graph = make_connected_signed(40, 120, seed=9)
    log, b = _log_with_a_move(graph)
    log = log[: b + 1]
    members, cut = log[b][0]
    log[b][0] = (members, cut[1:])
    cloud = FrustrationCloud(graph)
    with pytest.raises(NotBalancedError, match=f"states 0..{b} are not all"):
        cloud.add_deltas(log)
    # A clean copy of the same chunk folds fine after a fresh start.
    log[b][0] = (members, cut)
    FrustrationCloud(graph).add_deltas(log)


def _drop_a_cut_edge_no_later_swap_lists(log) -> int:
    """Drop, from a mid-chunk swap, a δ(S) edge that no later swap of
    *log* lists again (so no later recheck sees it); return its state."""
    listed_later = {int(e) for _members, cut in log[-1] for e in cut}
    for b in range(len(log) - 2, 0, -1):
        for j in range(len(log[b]) - 1, -1, -1):
            members, cut = log[b][j]
            fresh = [e for e in cut.tolist() if e not in listed_later]
            if fresh:
                log[b][j] = (members, cut[cut != fresh[0]])
                return b
            listed_later.update(cut.tolist())
    raise AssertionError("every cut edge is listed again later")


def test_dropped_cut_edge_mid_chunk_names_its_interval():
    """The flush at the chunk's end names the whole flushed interval,
    which holds the bad state."""
    graph = make_connected_signed(40, 120, seed=9)
    log = TreeSampler(graph, method="swap", seed=0).swap_deltas(range(40))
    b = _drop_a_cut_edge_no_later_swap_lists(log)
    assert 0 < b < 39
    cloud = FrustrationCloud(graph)
    cloud.num_states = 100
    with pytest.raises(NotBalancedError, match="states 100..139 are not"):
        cloud.add_deltas(log)


def test_log_must_open_with_a_base():
    graph = make_connected_signed(12, 30, seed=1)
    with pytest.raises(ReproError, match="opens"):
        FrustrationCloud(graph).add_deltas([[]])
