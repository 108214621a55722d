"""Balanced-subgraph discovery workloads (ROADMAP item 4).

A second workload family on top of the frustration-cloud engine: rather
than balancing the *whole* graph by flipping edge signs, these
algorithms find a large **vertex subset** whose induced subgraph is
already balanced (or nearly so), deleting vertices instead of editing
signs.

* :mod:`repro.balanced.extract` — large balanced subgraph extraction in
  the spirit of Ordozgoiti, Matakos & Gionis (arXiv:2002.00775):
  eigenvector rounding of the signed Laplacian seeds a ±1 side
  assignment, a vectorized greedy peel removes the vertices that
  violate it most, and a local-search polish re-admits every vertex
  that fits back.
* :mod:`repro.balanced.tolerance` — the tolerance-based scalable
  variant of Chen, Peng & Zhang (arXiv:2402.05006): each surviving
  vertex is allowed at most ``t`` unbalanced incident edges, trading
  strict balance for much larger subgraphs.
* :mod:`repro.balanced.runner` — multi-restart orchestration (spectral
  seed plus spanning-tree switchings from the parity kernels),
  single-process or across the worker pool, for in-memory graphs and
  packed ``.rsgs`` stores alike.

CLI: ``repro balanced extract`` / ``repro balanced tolerance``; bench:
perfbench's ``balanced_portfolio`` workload.
"""

from repro.balanced.extract import (
    BalancedSubgraph,
    extract_balanced,
    peel_to_tolerance,
    polish_subgraph,
    satisfied_edges,
    search_from_sides,
)
from repro.balanced.runner import BalancedReport, run_balanced
from repro.balanced.seeds import seed_assignments, spectral_sides, tree_sides
from repro.balanced.tolerance import extract_tolerant, tolerance_violations

__all__ = [
    "BalancedReport",
    "BalancedSubgraph",
    "extract_balanced",
    "extract_tolerant",
    "peel_to_tolerance",
    "polish_subgraph",
    "run_balanced",
    "satisfied_edges",
    "search_from_sides",
    "seed_assignments",
    "spectral_sides",
    "tolerance_violations",
    "tree_sides",
]
