"""Property-based tests for the extension modules.

Hypothesis coverage for the pieces built beyond the paper: cloud
merging/checkpointing and consensus communities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import FrustrationCloud, consensus_communities, sample_cloud
from repro.core import balance

from tests.conftest import make_connected_signed


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=12))
@settings(max_examples=15, deadline=None)
def test_cloud_merge_associativity(seed, split):
    """Splitting a state stream into any two parts and merging gives
    the same attributes as the unsplit cloud."""
    g = make_connected_signed(25, 55, seed=seed % 40)
    results = [balance(g, seed=seed * 31 + i) for i in range(split)]
    whole = FrustrationCloud(g)
    left = FrustrationCloud(g)
    right = FrustrationCloud(g)
    cut = split // 2
    for i, r in enumerate(results):
        whole.add_result(r)
        (left if i < cut else right).add_result(r)
    if left.num_states:
        if right.num_states:
            left.merge(right)
        np.testing.assert_allclose(left.status(), whole.status())
        np.testing.assert_allclose(left.edge_coside(), whole.edge_coside())


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_communities_refine_with_threshold(seed):
    """Raising the co-side threshold only ever splits communities
    (the kept edge set shrinks, so components refine)."""
    g = make_connected_signed(30, 80, negative_fraction=0.4, seed=seed % 60)
    cloud = sample_cloud(g, 6, seed=seed)
    coarse = consensus_communities(cloud, threshold=0.5)
    fine = consensus_communities(cloud, threshold=0.95)
    # Refinement: vertices sharing a fine community share the coarse one.
    for c in np.unique(fine):
        members = np.nonzero(fine == c)[0]
        assert len(np.unique(coarse[members])) == 1


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_checkpoint_roundtrip_property(tmp_path_factory, seed):
    """Any cloud survives a save/load cycle with identical attributes."""
    from repro.cloud.checkpoint import load_cloud, save_cloud

    g = make_connected_signed(20, 45, seed=seed % 30)
    cloud = sample_cloud(g, 1 + seed % 7, seed=seed, store_states=True)
    path = tmp_path_factory.mktemp("ckpt") / f"c{seed}.npz"
    save_cloud(cloud, path)
    back = load_cloud(path, g)
    np.testing.assert_array_equal(back.status(), cloud.status())
    np.testing.assert_array_equal(
        back.status_volatility(), cloud.status_volatility()
    )
    assert back.num_unique_states == cloud.num_unique_states
