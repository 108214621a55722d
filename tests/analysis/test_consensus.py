"""Tests for the end-to-end consensus pipeline."""

import numpy as np
import pytest

from repro.analysis.consensus import analyze_consensus
from repro.perf.export import phase_seconds
from repro.perf.registry import collecting
from repro.graph.build import from_edges
from repro.graph.generators import chung_lu_signed

from tests.conftest import make_connected_signed


class TestAnalyzeConsensus:
    def test_runs_on_disconnected_input(self):
        # The pipeline extracts the largest CC itself.
        g = chung_lu_signed(400, 500, seed=0)
        report = analyze_consensus(g, num_states=10, seed=0)
        assert report.component.num_vertices <= 400
        assert report.num_states == 10
        assert len(report.status) == report.component.num_vertices

    def test_original_ids_map_back(self):
        g = from_edges([(0, 1, 1), (3, 4, -1), (4, 5, 1), (3, 5, 1)])
        report = analyze_consensus(g, num_states=5, seed=0)
        np.testing.assert_array_equal(report.original_ids, [3, 4, 5])

    def test_attributes_are_probabilities(self):
        g = make_connected_signed(80, 200, seed=1)
        report = analyze_consensus(g, num_states=15, seed=1)
        for arr in (report.status, report.influence, report.vertex_agreement):
            assert np.all(arr >= 0) and np.all(arr <= 1)
        assert report.frustration_upper_bound >= 0

    def test_summary_renders(self):
        g = make_connected_signed(40, 100, seed=2)
        report = analyze_consensus(g, num_states=5, seed=2)
        text = report.summary()
        assert "consensus over 5" in text
        assert "frustration index" in text

    def test_timers_cover_phases(self):
        g = make_connected_signed(40, 100, seed=2)
        with collecting() as metrics:
            analyze_consensus(g, num_states=5, seed=2)
        phases = phase_seconds(metrics.snapshot())
        for phase in ("largest_component", "tree_sample", "balance",
                      "accumulate", "attributes"):
            assert phase in phases
