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
        cloud.edge_agreement(),
        (both == graph.edge_sign).sum(axis=0) / len(both),
    )
    np.testing.assert_array_equal(cloud._edge_coside, coside.sum(axis=0))
    np.testing.assert_array_equal(
        cloud.flip_counts(), np.sort((both != graph.edge_sign).sum(axis=1))
    )
    assert cloud._edge_coside.dtype == np.int8  # at most 33 states


def test_edge_counters_widen_from_int8(graph):
    """The fold that would take the cloud past 127 states widens the
    per-edge counts to int16 first, and a merge widens them before it
    adds, so the counts stay exact."""
    signs, sides = _balanced_batch(graph, 128, seed=6)
    cloud = FrustrationCloud(graph)
    cloud.add_batch(signs[:127], sides[:127])
    assert cloud._edge_coside.dtype == cloud._edge_preserved.dtype == np.int8
    cloud.add_batch(signs[127:], sides[127:])
    assert cloud._edge_coside.dtype == cloud._edge_preserved.dtype == np.int16
    coside = sides[:, graph.edge_u] == sides[:, graph.edge_v]
    np.testing.assert_array_equal(cloud._edge_coside, coside.sum(axis=0))
    np.testing.assert_array_equal(
        cloud._edge_preserved, (signs == graph.edge_sign).sum(axis=0)
    )
    halves = [FrustrationCloud(graph) for _ in range(2)]
    halves[0].add_batch(signs[:64], sides[:64])
    halves[1].add_batch(signs[64:], sides[64:])
    halves[0].merge(halves[1])
    assert halves[0]._edge_coside.dtype == np.int16
    np.testing.assert_array_equal(halves[0]._edge_coside, cloud._edge_coside)
    np.testing.assert_array_equal(
        halves[0]._edge_preserved, cloud._edge_preserved
    )


def test_edge_counters_widen_before_they_overflow(graph):
    """Per-edge counts are int32 while every count fits it; the fold
    that would take the cloud past 2**31 - 1 states widens them to
    int64 first, so the counts stay exact."""
    signs, sides = _balanced_batch(graph, 3, seed=5)
    cloud = FrustrationCloud(graph)
    cloud.add_batch(signs, sides)
    top = np.iinfo(np.int32).max
    cloud.num_states = top - 3  # as if the cloud had folded that many
    before = cloud._edge_coside.astype(np.int64)
    cloud.add_batch(signs, sides)
    assert cloud._edge_coside.dtype == np.int32  # exactly 2**31 - 1
    cloud.add_batch(signs[:1], sides[:1])
    assert cloud._edge_coside.dtype == cloud._edge_preserved.dtype == np.int64
    coside = sides[:, graph.edge_u] == sides[:, graph.edge_v]
    np.testing.assert_array_equal(
        cloud._edge_coside, before + coside.sum(axis=0) + coside[0]
    )
    other = FrustrationCloud(graph)
    other.add_batch(signs, sides)
    other.num_states = top
    other.merge(FrustrationCloud(graph))
    assert other._edge_coside.dtype == np.int32
    other.merge(cloud)
    assert other._edge_coside.dtype == np.int64


@pytest.mark.parametrize("bad_row", [0, 3, 6])
def test_tampered_row_still_named(graph, bad_row):
    signs, sides = _balanced_batch(graph, 7, seed=4)
    signs[bad_row, 5] *= -1
    cloud = FrustrationCloud(graph)
    with pytest.raises(NotBalancedError, match=f"state {bad_row} of the batch"):
        cloud.add_batch(signs, sides)
    assert cloud.num_states == 0
    assert not cloud._edge_coside.any()
