"""Application-level analyses: spectral-clustering comparator, the
synthetic wiki-Elec election experiment (Figs. 4–5), and the end-to-end
consensus pipeline.
"""

from repro.analysis.spectral import (
    cluster_outcome_table,
    spectral_clusters,
    spectral_embedding,
)
from repro.analysis.election import (
    Election,
    ElectionReport,
    election_report,
    generate_election,
)
from repro.analysis.consensus import ConsensusReport, analyze_consensus
from repro.analysis.sensitivity import (
    SensitivityRow,
    density_sweep,
    negativity_sweep,
)

__all__ = [
    "SensitivityRow",
    "density_sweep",
    "negativity_sweep",
    "spectral_embedding",
    "spectral_clusters",
    "cluster_outcome_table",
    "Election",
    "generate_election",
    "ElectionReport",
    "election_report",
    "ConsensusReport",
    "analyze_consensus",
]
