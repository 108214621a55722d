"""End-to-end consensus analysis pipeline.

One call from raw edges to the balancing-based attributes: extract the
largest connected component (as the paper does), sample the frustration
cloud, and package status / influence / agreement with summary
statistics.  This is the "application" view of graphB+ — what §6.5
calls computing a metric such as the status of each vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.cloud import FrustrationCloud, sample_cloud
from repro.graph.components import largest_connected_component
from repro.graph.csr import SignedGraph
from repro.perf.tracing import span
from repro.rng import SeedLike

__all__ = ["ConsensusReport", "analyze_consensus"]


@dataclass(frozen=True)
class ConsensusReport:
    """Balancing-based consensus attributes of a signed network.

    All arrays are indexed by the vertex ids of ``component`` (the
    largest connected component of the input); ``original_ids`` maps
    back to the input's vertex ids.
    """

    component: SignedGraph
    original_ids: np.ndarray
    num_states: int
    status: np.ndarray
    influence: np.ndarray
    vertex_agreement: np.ndarray
    edge_agreement: np.ndarray
    frustration_upper_bound: int

    def summary(self) -> str:
        """Human-readable digest of the consensus structure."""
        s = self.status
        lines = [
            f"consensus over {self.num_states} nearest balanced states",
            f"  component: {self.component.num_vertices} vertices, "
            f"{self.component.num_edges} edges "
            f"({self.component.num_negative_edges} negative)",
            f"  status:    mean {s.mean():.3f}, "
            f"min {s.min():.3f}, max {s.max():.3f}",
            f"  influence: mean {self.influence.mean():.3f}",
            f"  agreement: mean {self.vertex_agreement.mean():.3f}",
            f"  frustration index <= {self.frustration_upper_bound}",
        ]
        return "\n".join(lines)


def analyze_consensus(
    graph: SignedGraph,
    num_states: int = 100,
    method: str = "bfs",
    seed: SeedLike = 0,
) -> ConsensusReport:
    """Full pipeline: largest CC → Alg. 2 cloud → attributes.

    The phases are spans: ``largest_component``, the campaign's, and
    ``attributes`` (read them with
    :func:`~repro.perf.registry.collecting`).
    """
    with span("largest_component"):
        component, original_ids = largest_connected_component(graph)
    cloud: FrustrationCloud = sample_cloud(
        component, num_states, method=method, seed=seed
    )
    with span("attributes"):
        report = ConsensusReport(
            component=component,
            original_ids=original_ids,
            num_states=cloud.num_states,
            status=cloud.status(),
            influence=cloud.influence(),
            vertex_agreement=cloud.vertex_agreement(),
            edge_agreement=cloud.edge_agreement(),
            frustration_upper_bound=cloud.frustration_upper_bound(),
        )
    return report
