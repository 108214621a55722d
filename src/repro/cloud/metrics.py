"""Consensus metrics derived from a frustration cloud (extension).

The frustration-cloud framework [33] reads social structure out of the
*ensemble* of nearest balanced states rather than any single one.
Beyond the paper's status attribute, this module derives:

* **consensus communities** — connected components of the subgraph of
  edges whose endpoints co-side in at least a threshold fraction of
  states.  Unlike modularity/spectral clusters these respect sentiment,
  not just adjacency;
* **state diversity** — the Shannon entropy of the unique-state
  multiplicity distribution (0 when every tree reaches the same state,
  log₂(#trees) when all states differ);
* **polarization** — how cleanly the cloud splits the graph in two:
  the mean absolute deviation of edge co-side probabilities from ½,
  rescaled to [0, 1] (1 = every edge deterministic, 0 = coin flips);
* **controversy** (per edge) — ``1 − |2·coside − 1|``: edges whose
  endpoints' relationship the consensus cannot settle.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.cloud import FrustrationCloud
from repro.errors import ReproError
from repro.graph.build import csr_from_undirected
from repro.graph.components import connected_components

__all__ = [
    "consensus_communities",
    "state_diversity",
    "polarization",
    "edge_controversy",
]


def consensus_communities(
    cloud: FrustrationCloud, threshold: float = 0.9
) -> np.ndarray:
    """Label vertices by consensus community.

    Two adjacent vertices belong to the same community when they land on
    the same bipartition side in at least ``threshold`` of the sampled
    states; communities are the connected components of those edges.
    """
    if not 0.0 < threshold <= 1.0:
        raise ReproError("threshold must be in (0, 1]")
    graph = cloud.graph
    coside = cloud.edge_coside()
    keep = coside >= threshold
    eu = graph.edge_u[keep]
    ev = graph.edge_v[keep]
    sub = csr_from_undirected(
        graph.num_vertices, eu, ev, np.ones(len(eu), dtype=np.int8)
    )
    return connected_components(sub)


def state_diversity(cloud: FrustrationCloud) -> float:
    """Shannon entropy (bits) of the unique-state multiplicities.

    Requires a cloud built with ``store_states=True``.  The Fig. 1
    example gives entropy < log₂(8) because several trees converge to
    the same state.
    """
    counts = np.asarray(list(cloud.unique_states().values()), dtype=np.float64)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def polarization(cloud: FrustrationCloud) -> float:
    """How decisively the cloud assigns relationships: mean of
    ``|2·coside − 1|`` over edges.  1 means every edge's co-side
    relation is the same in every state (a frozen split); 0 means every
    edge is a coin flip."""
    coside = cloud.edge_coside()
    return float(np.abs(2.0 * coside - 1.0).mean()) if len(coside) else 0.0


def edge_controversy(cloud: FrustrationCloud) -> np.ndarray:
    """Per-edge controversy score ``1 − |2·coside − 1|`` ∈ [0, 1]."""
    coside = cloud.edge_coside()
    return 1.0 - np.abs(2.0 * coside - 1.0)
