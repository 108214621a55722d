"""Campaign drivers read Harary sides off sign-to-root; the generic
bipartition behind ``add_signs`` is the oracle they must match, bit for
bit, on every accumulator."""

import numpy as np
import pytest

from repro.cloud.checkpoint import load_checkpoint, resume_cloud
from repro.cloud.cloud import FrustrationCloud, balanced_states, sample_cloud
from repro.core import balancer
from repro.core.balancer import balance
from repro.core.state import BalanceResult
from repro.errors import NotBalancedError
from repro.parallel.pool import sample_cloud_pool
from repro.perf.tracing import collecting_trace
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed

KERNELS = ("walk", "lockstep", "parity")
METHODS = ("bfs", "bfs-low-degree", "dfs", "wilson")

#: method x oracle kernel x batch size; the default cell (bfs, B=1)
#: keeps its bare kernel id.
ORACLE_CELLS = [
    pytest.param(
        method, kernel, batch_size,
        id=kernel if (method, batch_size) == ("bfs", 1)
        else f"{method}-{kernel}-B{batch_size}",
    )
    for method in METHODS
    for kernel in KERNELS
    for batch_size in (1, 3)
]


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(45, 120, negative_fraction=0.4, seed=23)


def oracle_cloud(graph, indices, seed, kernel="lockstep", method="bfs"):
    """The reference: one ``add_signs`` (generic bipartition) per state,
    balanced by a per-tree cycle *kernel*."""
    sampler = TreeSampler(graph, method=method, seed=seed)
    cloud = FrustrationCloud(graph, store_states=True)
    for i in indices:
        cloud.add_signs(balance(graph, sampler.tree(i), kernel=kernel).signs)
    return cloud


def assert_same_accumulators(a: FrustrationCloud, b: FrustrationCloud):
    assert a.num_states == b.num_states
    for name in ("_majority", "_coalition", "_edge_coside"):
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert lhs.dtype == rhs.dtype and np.array_equal(lhs, rhs), name
    assert a._ties == b._ties
    for name in ("status_volatility", "edge_agreement"):
        assert np.array_equal(getattr(a, name)(), getattr(b, name)()), name
    assert np.array_equal(a.flip_counts(), b.flip_counts())
    assert a.unique_states() == b.unique_states()


@pytest.mark.parametrize("method, kernel, batch_size", ORACLE_CELLS)
def test_pertree_sample_cloud_matches_oracle(graph, method, kernel, batch_size):
    cloud = sample_cloud(graph, 14, method=method, seed=5, store_states=True,
                         batch_size=batch_size)
    assert_same_accumulators(
        cloud, oracle_cloud(graph, range(14), 5, kernel, method)
    )


def test_pool_pertree_matches_oracle(graph):
    pooled = sample_cloud_pool(
        graph, 12, workers=2, seed=3, store_states=True, batch_size=1
    )
    # Contiguous blocks merge in index order, so the pool's flip-count
    # log lines up with one oracle campaign.
    assert_same_accumulators(pooled, oracle_cloud(graph, range(12), 3))


def test_resume_pertree_matches_oracle(graph, tmp_path):
    path = tmp_path / "mid.npz"
    sample_cloud(graph, 7, seed=11, store_states=True,
                 checkpoint_path=path, checkpoint_every=3)
    cloud, _meta = load_checkpoint(path, graph)
    resumed = resume_cloud(cloud, 16, batch_size=1)
    assert_same_accumulators(resumed, oracle_cloud(graph, range(16), 11))


def test_paths_yield_identical_states(graph):
    """Per-tree chunks of every kernel equal the batched parity chunks."""
    sampler = TreeSampler(graph, seed=8)
    batched = list(balanced_states(graph, sampler, range(6), batch_size=6))
    want_signs, want_s2r = batched[0]
    for kernel in KERNELS:
        chunks = list(balanced_states(graph, sampler, range(6)))
        assert len(chunks) == 6
        assert np.array_equal(np.vstack([s for s, _ in chunks]), want_signs)
        assert np.array_equal(np.vstack([r for _, r in chunks]), want_s2r)


def span_names(collector):
    return {event.path.split("/")[-1] for event in collector.events()}


#: The function behind each per-tree kernel in :func:`balance`.
KERNEL_FUNCTIONS = {
    "walk": "process_cycles_serial",
    "lockstep": "process_cycles_lockstep",
    "parity": "balance_by_parity",
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_pertree_runs_no_labeling(graph, kernel, monkeypatch):
    """A campaign runs neither Alg. 4's labeling nor the per-tree
    *kernel*, which fails here if called."""
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"the {kernel} kernel ran")

    monkeypatch.setattr(balancer, KERNEL_FUNCTIONS[kernel], refuse)
    with collecting_trace() as collector:
        sample_cloud(graph, 3, seed=0)
    names = span_names(collector)
    assert "labeling" not in names
    assert {"tree_sample", "balance", "accumulate"} <= names


def test_add_result_rejects_tampered_signs(graph):
    result = balance(graph, TreeSampler(graph, seed=2).tree(0))
    non_tree = result.tree.non_tree_edge_ids()
    signs = result.signs.copy()
    signs[non_tree[0]] *= -1  # its fundamental cycle turns negative
    tampered = BalanceResult(
        graph=graph, tree=result.tree, signs=signs, flipped=result.flipped,
        stats=None, counters=result.counters,
    )
    cloud = FrustrationCloud(graph)
    with pytest.raises(NotBalancedError):
        cloud.add_result(tampered)
    with pytest.raises(NotBalancedError):
        cloud.add_signs(signs)
    assert cloud.num_states == 0
    cloud.add_result(result)
    assert cloud.num_states == 1
