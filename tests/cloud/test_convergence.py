"""Tests for status-convergence diagnostics."""

import numpy as np
import pytest

from repro.cloud.cloud import FrustrationCloud
from repro.cloud.convergence import split_half_agreement, status_trajectory
from repro.core.balancer import balance
from repro.errors import ReproError
from repro.graph.generators import cycle_graph
from repro.trees.sampler import TreeSampler

from tests.conftest import make_connected_signed

METHODS = ["bfs", "wilson", "swap"]


def per_tree_estimates(graph, checkpoints, method, seed):
    """The reference fold: balance each sampled tree on its own, add it
    to a running cloud, and read the status at each checkpoint."""
    sampler = TreeSampler(graph, method=method, seed=seed)
    cloud = FrustrationCloud(graph)
    estimates, done = [], 0
    for cp in checkpoints:
        for i in range(done, cp):
            cloud.add_result(balance(graph, sampler.tree(i)))
        done = cp
        estimates.append(cloud.status())
    return np.stack(estimates)


def per_tree_halves(graph, num_states, method, seed):
    """The reference split: the even- and odd-indexed trees' statuses,
    each tree balanced on its own."""
    sampler = TreeSampler(graph, method=method, seed=seed)
    even, odd = FrustrationCloud(graph), FrustrationCloud(graph)
    for i in range(num_states):
        result = balance(graph, sampler.tree(i))
        (even if i % 2 == 0 else odd).add_result(result)
    return even.status(), odd.status()


class TestPerTreeReference:
    """Both diagnostics fold through the campaigns' block task; they
    equal the per-tree fold bit for bit."""

    GRAPH = make_connected_signed(40, 100, seed=8)

    @pytest.mark.parametrize("method", METHODS)
    def test_trajectory(self, method):
        cps = [3, 8, 20, 33]
        traj = status_trajectory(self.GRAPH, cps, method=method, seed=5)
        want = per_tree_estimates(self.GRAPH, cps, method, 5)
        assert np.array_equal(traj.estimates, want)
        changes = np.abs(np.diff(want, axis=0)).max(axis=1)
        assert np.array_equal(traj.max_step_change[1:], changes)

    @pytest.mark.parametrize("method", METHODS)
    def test_split_half(self, method):
        a, b = per_tree_halves(self.GRAPH, 21, method, 5)
        want = float(np.corrcoef(a, b)[0, 1])
        assert split_half_agreement(self.GRAPH, 21, method=method,
                                    seed=5) == want

    @pytest.mark.parametrize("seed", [
        pytest.param(0, id="int"),
        pytest.param(np.int64(7), id="np.int64"),
        pytest.param("generator", id="Generator"),
    ])
    def test_seed_spellings(self, seed):
        """Every seed spelling picks the trees ``TreeSampler`` picks for
        it: the seed is frozen once, before the first tree."""
        def fresh():
            if isinstance(seed, str):
                return np.random.default_rng(11)
            return seed

        traj = status_trajectory(self.GRAPH, [4, 9], seed=fresh())
        want = per_tree_estimates(self.GRAPH, [4, 9], "bfs", fresh())
        assert np.array_equal(traj.estimates, want)


class TestTrajectory:
    def test_shapes(self):
        g = make_connected_signed(40, 100, seed=0)
        traj = status_trajectory(g, [5, 10, 20], seed=0)
        assert traj.estimates.shape == (3, 40)
        assert len(traj.max_step_change) == 3
        assert traj.max_step_change[0] == np.inf

    def test_shared_prefix_matches_direct_cloud(self):
        from repro.cloud import sample_cloud

        g = make_connected_signed(40, 100, seed=1)
        traj = status_trajectory(g, [8, 16], seed=7)
        direct = sample_cloud(g, 16, seed=7).status()
        np.testing.assert_allclose(traj.final, direct)

    def test_changes_shrink_with_samples(self):
        g = make_connected_signed(50, 120, seed=2)
        traj = status_trajectory(g, [4, 16, 64, 128], seed=0)
        # Later steps change less than the first real step (stochastic
        # but extremely reliable at these sizes).
        assert traj.max_step_change[-1] < traj.max_step_change[1]

    def test_converged_flag(self):
        g = cycle_graph([1, -1, -1, 1])  # balanced: one state, instant
        traj = status_trajectory(g, [2, 4], seed=0)
        assert traj.converged(tolerance=1e-12)

    def test_rejects_bad_checkpoints(self):
        g = make_connected_signed(10, 20, seed=0)
        with pytest.raises(ReproError):
            status_trajectory(g, [], seed=0)
        with pytest.raises(ReproError):
            status_trajectory(g, [5, 5], seed=0)
        with pytest.raises(ReproError):
            status_trajectory(g, [0, 5], seed=0)


class TestSplitHalf:
    def test_balanced_graph_full_agreement(self):
        g = cycle_graph([1, -1, -1, 1])
        assert split_half_agreement(g, 8, seed=0) == 1.0

    def test_agreement_grows_with_samples(self):
        g = make_connected_signed(60, 150, seed=3)
        small = split_half_agreement(g, 8, seed=0)
        large = split_half_agreement(g, 128, seed=0)
        assert large > small

    def test_bounds(self):
        g = make_connected_signed(30, 80, seed=4)
        r = split_half_agreement(g, 20, seed=1)
        assert -1.0 <= r <= 1.0

    def test_rejects_tiny_sample(self):
        g = make_connected_signed(10, 20, seed=0)
        with pytest.raises(ReproError):
            split_half_agreement(g, 3)

