"""The dense chunk budget bounds what a campaign holds at once.

``cloud.py::_chunk_size`` sizes a chunk so that its states fit
``_CHUNK_BYTES`` at the fold's peak.  A one-chunk campaign must then
peak within the budget plus an O(n + m) allowance: the cloud's own
accumulators and one BFS pass's scratch, which the offer budget caps.
"""

import tracemalloc

import pytest

import repro.cloud.cloud as cloud_module
from repro.cloud.cloud import sample_cloud
from repro.graph.components import largest_connected_component
from repro.graph.generators import (
    cycle_graph,
    ensure_connected,
    erdos_renyi_signed,
)
from repro.trees import batched


def _graph(kind):
    if kind == "cycle":
        return cycle_graph([1, -1] * 1000)
    return largest_connected_component(ensure_connected(
        erdos_renyi_signed(4000, 20000, negative_fraction=0.3, seed=1),
        seed=1,
    ))[0]


# The cycle runs at a quarter of the budget: its chunk of 699 trees
# takes 1,000 traced BFS levels per pass, which tracemalloc slows ten
# times over, and a smaller budget is as strict a bound.
@pytest.mark.parametrize("kind,budget", [("er", None), ("cycle", 1 << 21)])
def test_one_chunk_peak_stays_within_the_budget(kind, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(cloud_module, "_CHUNK_BYTES", budget)
    graph = _graph(kind)
    n, m = graph.num_vertices, graph.num_edges
    chunk = cloud_module._chunk_size("bfs", graph)
    assert chunk > 1
    sample_cloud(graph, 2, seed=1)  # lazy imports and the flat CSR
    tracemalloc.start()
    try:
        cloud = sample_cloud(graph, chunk, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.num_states == chunk
    allowance = 64 * (n + m) + 16 * batched._OFFER_BUDGET
    assert peak <= cloud_module._CHUNK_BYTES + allowance, (chunk, peak)
