"""``FrustrationCloud.add_batch`` reads both edge counters off one
column sum of the signs; they must equal the boolean reductions it
replaced, and the balance check in front of it must be unchanged."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cloud import FrustrationCloud
from repro.errors import NotBalancedError

from tests.conftest import make_connected_signed


def _balanced_batch(graph, batch: int, seed: int):
    """Random sides per row, and the signs they balance: positive
    inside a side, negative across."""
    rng = np.random.default_rng(seed)
    sides = (rng.random((batch, graph.num_vertices)) < 0.5).astype(np.int8)
    coside = sides[:, graph.edge_u] == sides[:, graph.edge_v]
    return np.where(coside, 1, -1).astype(np.int8), sides


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(50, 140, negative_fraction=0.4, seed=31)


@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_counters_match_boolean_sums(graph, batch, seed):
    signs, sides = _balanced_batch(graph, batch, seed)
    cloud = FrustrationCloud(graph)
    cloud.add_batch(signs[:1], sides[:1])  # counters already non-zero
    cloud.add_batch(signs, sides)

    both = np.vstack([signs[:1], signs])
    both_sides = np.vstack([sides[:1], sides])
    coside = both_sides[:, graph.edge_u] == both_sides[:, graph.edge_v]
    np.testing.assert_array_equal(
        cloud._edge_preserved, (both == graph.edge_sign).sum(axis=0)
    )
    np.testing.assert_array_equal(cloud._edge_coside, coside.sum(axis=0))
    np.testing.assert_array_equal(
        cloud.flip_counts(), (both != graph.edge_sign).sum(axis=1)
    )
    assert cloud._edge_preserved.dtype == np.int64
    assert cloud._edge_coside.dtype == np.int64


@pytest.mark.parametrize("bad_row", [0, 3, 6])
def test_tampered_row_still_named(graph, bad_row):
    signs, sides = _balanced_batch(graph, 7, seed=4)
    signs[bad_row, 5] *= -1
    cloud = FrustrationCloud(graph)
    with pytest.raises(NotBalancedError, match=f"state {bad_row} of the batch"):
        cloud.add_batch(signs, sides)
    assert cloud.num_states == 0
    assert not cloud._edge_coside.any()
