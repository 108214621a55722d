"""Seed side-assignments for the balanced-subgraph search.

Two families, both reusing machinery the frustration-cloud pipeline
already owns:

* :func:`spectral_sides` — the signed-Laplacian bottom eigenvector
  (:func:`repro.analysis.spectral.spectral_embedding` with
  ``signed=True``) rounded entrywise to ±1.  Small signed-Laplacian
  eigenvalues certify near-balanced splits, so its sign pattern is the
  natural analog of the eigenvector rounding in arXiv:2002.00775.
* :func:`tree_sides` — sign-to-root switchings of random spanning
  trees (the ``sign_to_root`` rows that
  :func:`repro.trees.batched.sample_bfs_batch` writes).  Each row satisfies
  every tree edge by construction, giving diverse deterministic
  restarts with the exact per-index reproducibility the cloud engine
  guarantees.

:func:`seed_assignments` composes the portfolio, degrading gracefully
on inputs where a family is unavailable (tiny graphs for the spectral
seed, disconnected graphs for the tree seeds) and always returning at
least the trivial all-positive assignment.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedGraphError, ReproError
from repro.graph.csr import SignedGraph

__all__ = ["seed_assignments", "spectral_sides", "tree_sides"]

#: Below this many vertices the Lanczos eigensolver is pointless (and
#: fragile); the peel explores such graphs exhaustively anyway.
_MIN_SPECTRAL_N = 4


def spectral_sides(graph: SignedGraph, seed: int = 0) -> np.ndarray:
    """±1 rounding of the signed-Laplacian bottom eigenvector.

    Entries exactly at zero round to +1 so the output is a valid side
    assignment for every vertex.
    """
    from repro.analysis.spectral import spectral_embedding

    vec = spectral_embedding(graph, dim=1, signed=True, seed=seed)[:, 0]
    return np.where(vec < 0, -1, 1).astype(np.int8)


def tree_sides(
    graph: SignedGraph, indices, seed: int = 0
) -> np.ndarray:
    """``(len(indices), n)`` ±1 switchings, one per spanning tree.

    Row ``i`` is the sign-to-root vector of BFS tree ``indices[i]``
    under the campaign seeding discipline, so restart ``i`` is a pure
    function of ``(seed, indices[i])`` — independent of how many other
    restarts run, or where.
    """
    from repro.trees.batched import sample_bfs_batch

    return sample_bfs_batch(graph, seed, list(indices)).sign_to_root


def seed_assignments(
    graph: SignedGraph, restarts: int = 4, seed: int = 0
) -> list[tuple[str, np.ndarray]]:
    """The labeled seed portfolio: spectral first, then tree restarts.

    *restarts* counts the spanning-tree seeds; the spectral seed rides
    along whenever the graph is large enough for the eigensolver.  The
    list is never empty — an all-positive fallback covers degenerate
    inputs — and its order is the deterministic tie-break order of the
    search.
    """
    if restarts < 0:
        raise ReproError(f"restarts must be >= 0, got {restarts}")
    n = graph.num_vertices
    seeds: list[tuple[str, np.ndarray]] = []
    if n >= _MIN_SPECTRAL_N:
        seeds.append(("spectral", spectral_sides(graph, seed=seed)))
    if restarts > 0 and n > 0:
        try:
            rows = tree_sides(graph, range(restarts), seed=seed)
        except DisconnectedGraphError:
            # Tree seeds need one spanning tree; on disconnected input
            # the spectral/fallback seeds still explore every component.
            rows = None
        if rows is not None:
            seeds.extend(
                (f"tree:{i}", rows[i]) for i in range(restarts)
            )
    if not seeds:
        seeds.append(("ones", np.ones(n, dtype=np.int8)))
    return seeds
