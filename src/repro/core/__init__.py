"""graphB+ core: labeling, cycle traversal, balancing (Alg. 3 / Alg. 4),
the naive Alg. 1 baseline, and balance verification.
"""

from repro.core.labeling import Labeling, label_tree
from repro.core.labeling_parallel import label_tree_parallel
from repro.core.adjacency import PartitionedAdjacency, partition_adjacency
from repro.core.cycles import CycleStats, process_cycles_serial
from repro.core.cycles_vectorized import (
    balance_by_parity,
    process_cycles_lockstep,
    sign_to_root,
)
from repro.core.parity_batch import balance_batch
from repro.core.balancer import balance, balance_forest
from repro.core.baseline import balance_baseline
from repro.core.incremental import IncrementalBalancer
from repro.core.state import BalanceResult
from repro.core.verify import BalanceCertificate, check_balance, is_balanced, switch

__all__ = [
    "Labeling",
    "label_tree",
    "label_tree_parallel",
    "PartitionedAdjacency",
    "partition_adjacency",
    "CycleStats",
    "process_cycles_serial",
    "process_cycles_lockstep",
    "balance_by_parity",
    "sign_to_root",
    "balance_batch",
    "balance",
    "balance_forest",
    "balance_baseline",
    "IncrementalBalancer",
    "BalanceResult",
    "BalanceCertificate",
    "check_balance",
    "is_balanced",
    "switch",
]
