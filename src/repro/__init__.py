"""graphB+ — discovering and balancing fundamental cycles in large
signed graphs.

A from-scratch Python reproduction of Alabandi, Tešić, Rusnak &
Burtscher, *"Discovering and Balancing Fundamental Cycles in Large
Signed Graphs"*, SC '21.

Quick start::

    from repro import from_edges, balance, sample_cloud

    graph = from_edges([(0, 1, +1), (0, 2, +1), (0, 3, -1),
                        (1, 3, +1), (2, 3, +1)])
    result = balance(graph, seed=0)          # one nearest balanced state
    cloud = sample_cloud(graph, 100, seed=0) # Alg. 2: 100 states
    print(cloud.status())                    # consensus status per vertex

Subpackages:

* :mod:`repro.graph`    — CSR signed graphs, generators, datasets, IO
* :mod:`repro.trees`    — spanning-tree samplers and enumeration
* :mod:`repro.core`     — the graphB+ algorithm (labeling, cycles, balancing)
* :mod:`repro.harary`   — Harary bipartitioning of balanced states
* :mod:`repro.cloud`    — frustration clouds and consensus attributes
* :mod:`repro.parallel` — workload profiling and simulated parallel machines
* :mod:`repro.analysis` — spectral comparator, election case study
* :mod:`repro.perf`     — spans, metrics, event stream, memory model, reporting
"""

from repro.errors import (
    DatasetError,
    DisconnectedGraphError,
    EngineError,
    GraphFormatError,
    NotASpanningTreeError,
    NotBalancedError,
    ReproError,
)
from repro.graph import (
    SignedGraph,
    from_arrays,
    from_edges,
    largest_connected_component,
)
from repro.trees import SpanningTree, TreeSampler, bfs_tree, dfs_tree, wilson_tree
from repro.core import (
    BalanceResult,
    IncrementalBalancer,
    balance,
    balance_baseline,
    balance_forest,
    check_balance,
    is_balanced,
)
from repro.harary import HararyBipartition, harary_bipartition
from repro.cloud import (
    FrustrationCloud,
    exact_cloud,
    frustration_index_exact,
    sample_cloud,
)
from repro.analysis import analyze_consensus

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphFormatError",
    "DisconnectedGraphError",
    "NotASpanningTreeError",
    "NotBalancedError",
    "DatasetError",
    "EngineError",
    # graph
    "SignedGraph",
    "from_edges",
    "from_arrays",
    "largest_connected_component",
    # trees
    "SpanningTree",
    "TreeSampler",
    "bfs_tree",
    "dfs_tree",
    "wilson_tree",
    # core
    "balance",
    "balance_forest",
    "balance_baseline",
    "BalanceResult",
    "IncrementalBalancer",
    "is_balanced",
    "check_balance",
    # harary
    "HararyBipartition",
    "harary_bipartition",
    # cloud
    "FrustrationCloud",
    "sample_cloud",
    "exact_cloud",
    "frustration_index_exact",
    # analysis
    "analyze_consensus",
]
