#!/usr/bin/env python3
"""End-to-end consensus pipeline on a Table-1 dataset stand-in.

Loads the synthetic S*_wiki stand-in (full scale: ~7.5k vertices,
~112k signed edges), extracts the largest connected component the way
the paper does, samples a frustration cloud, and prints the consensus
report with phase timings — the workload §6.5 profiles.

Run:  python examples/consensus_pipeline.py
"""

import numpy as np

from repro.analysis.consensus import analyze_consensus
from repro.graph.datasets import load, paper_stats
from repro.perf import collecting, phase_table

NAME = "S*_wiki"
spec = paper_stats(NAME)
print(f"dataset: {NAME} (paper: {spec.paper_vertices:,} vertices, "
      f"{spec.paper_edges:,} edges, max degree {spec.paper_max_degree:,})")

graph = load(NAME, seed=0)
with collecting() as metrics:  # the pipeline's phases are spans
    report = analyze_consensus(graph, num_states=30, seed=0)

print()
print(report.summary())

# --- Who anchors the consensus? --------------------------------------
status = report.status
top = np.argsort(status)[::-1][:5]
bottom = np.argsort(status)[:5]
print("\nhighest-status vertices (most likely in the majority camp):")
for v in top:
    print(f"  vertex {int(report.original_ids[v]):6d}: status {status[v]:.3f}, "
          f"influence {report.influence[v]:.3f}, "
          f"agreement {report.vertex_agreement[v]:.3f}")
print("lowest-status vertices:")
for v in bottom:
    print(f"  vertex {int(report.original_ids[v]):6d}: status {status[v]:.3f}")

# --- Contested relationships: edges the consensus keeps flipping. ----
edge_agree = report.edge_agreement
contested = np.argsort(edge_agree)[:5]
print("\nmost contested edges (lowest sign agreement across states):")
for e in contested:
    u = int(report.component.edge_u[e])
    v = int(report.component.edge_v[e])
    print(f"  edge {u}-{v}: original sign {int(report.component.edge_sign[e]):+d}, "
          f"kept in {edge_agree[e]:.0%} of states")

# --- Where the time went (the §6.5 kernel breakdown, measured). ------
print()
print(phase_table(metrics.snapshot(), "measured phase breakdown"))
