"""Status-estimate convergence diagnostics (paper future work, §7).

The paper samples 1000 trees per input but defers the question of *how
many samples the status actually needs*.  These tools answer it
empirically for a given graph:

* :func:`status_trajectory` — running status estimates at checkpoints,
  with the max vertex-wise change between consecutive checkpoints (a
  Cauchy-style convergence signal);
* :func:`split_half_agreement` — correlation between the status
  estimates of two disjoint halves of the sample (a split-half
  reliability coefficient: near 1 means the sample size suffices).

Both fold their states through the campaigns' block task
(:class:`repro.parallel.pool.CampaignTask`), so tree *i* and its
balanced state are the ones ``sample_cloud`` folds for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cloud.cloud import FrustrationCloud
from repro.errors import ReproError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, freeze_seed

__all__ = [
    "StatusTrajectory",
    "status_trajectory",
    "split_half_agreement",
]


@dataclass(frozen=True)
class StatusTrajectory:
    """Running status estimates at increasing sample sizes."""

    checkpoints: np.ndarray          # sample sizes
    estimates: np.ndarray            # (len(checkpoints), n) status matrix
    max_step_change: np.ndarray      # max |Δ status| between checkpoints

    @property
    def final(self) -> np.ndarray:
        return self.estimates[-1]

    def converged(self, tolerance: float) -> bool:
        """Whether the last checkpoint-to-checkpoint change is below
        *tolerance* (per vertex, max-norm)."""
        return bool(self.max_step_change[-1] <= tolerance)


def status_trajectory(
    graph: SignedGraph,
    checkpoints: Sequence[int],
    method: str = "bfs",
    seed: SeedLike = 0,
) -> StatusTrajectory:
    """Status estimates after each checkpoint's worth of sampled states.

    Checkpoints must be strictly increasing; states are shared across
    checkpoints (the 50-state estimate extends the 25-state one), so
    the total work equals the largest checkpoint.
    """
    cps = list(checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        raise ReproError("checkpoints must be strictly increasing and >= 1")

    from repro.parallel.pool import CampaignTask  # parallel imports cloud

    task = CampaignTask(method=method, seed=freeze_seed(seed),
                        store_states=False)
    cloud = FrustrationCloud(graph)
    estimates = []
    done = 0
    for cp in cps:
        cloud.merge(task(graph, (done, cp, 1)))
        done = cp
        estimates.append(cloud.status())
    est = np.stack(estimates)
    changes = np.empty(len(cps))
    changes[0] = np.inf
    for k in range(1, len(cps)):
        changes[k] = float(np.abs(est[k] - est[k - 1]).max())
    return StatusTrajectory(
        checkpoints=np.asarray(cps, dtype=np.int64),
        estimates=est,
        max_step_change=changes,
    )


def split_half_agreement(
    graph: SignedGraph,
    num_states: int,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> float:
    """Pearson correlation between status estimates from the even- and
    odd-indexed halves of a ``num_states`` sample.

    Values near 1 mean the sample size is large enough that two
    independent half-samples agree; near 0 means the estimates are
    still sampling noise.
    """
    if num_states < 4:
        raise ReproError("need at least 4 states to split")

    from repro.parallel.pool import CampaignTask  # parallel imports cloud

    task = CampaignTask(method=method, seed=freeze_seed(seed),
                        store_states=False)
    a = task(graph, (0, num_states, 2)).status()
    b = task(graph, (1, num_states, 2)).status()
    if np.allclose(a, a[0]) or np.allclose(b, b[0]):
        # Degenerate (e.g. already-balanced graph): identical constant
        # estimates count as full agreement.
        return 1.0 if np.allclose(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])
