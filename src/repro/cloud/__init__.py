"""Frustration-cloud layer: Alg. 2 sampling, consensus attributes
(status / influence / agreement), frustration-index computation, and
nearest-state verification.
"""

from repro.cloud.cloud import (
    FrustrationCloud,
    exact_cloud,
    sample_cloud,
)
from repro.cloud.convergence import (
    StatusTrajectory,
    split_half_agreement,
    status_trajectory,
)
from repro.cloud.branch_bound import frustration_branch_bound
from repro.cloud.checkpoint import (
    CampaignMeta,
    graph_fingerprint,
    load_checkpoint,
    load_cloud,
    recover_cloud,
    resume_cloud,
    save_cloud,
    validate_campaign,
)
from repro.cloud.export import (
    edge_attribute_table,
    vertex_attribute_table,
    write_edge_csv,
    write_vertex_csv,
)
from repro.cloud.frustration import (
    frustration_index_exact,
    frustration_local_search,
    frustration_of_switching,
)
from repro.cloud.metrics import (
    consensus_communities,
    edge_controversy,
    polarization,
    state_diversity,
)
from repro.cloud.nearest import flip_set, is_nearest_state

__all__ = [
    "FrustrationCloud",
    "sample_cloud",
    "exact_cloud",
    "frustration_index_exact",
    "frustration_branch_bound",
    "frustration_local_search",
    "frustration_of_switching",
    "is_nearest_state",
    "flip_set",
    "StatusTrajectory",
    "status_trajectory",
    "split_half_agreement",
    "consensus_communities",
    "state_diversity",
    "polarization",
    "edge_controversy",
    "save_cloud",
    "load_cloud",
    "load_checkpoint",
    "recover_cloud",
    "resume_cloud",
    "validate_campaign",
    "CampaignMeta",
    "graph_fingerprint",
    "vertex_attribute_table",
    "edge_attribute_table",
    "write_vertex_csv",
    "write_edge_csv",
]
