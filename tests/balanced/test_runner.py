"""The determinism contract of :func:`repro.balanced.run_balanced`:
every input spelling (in-memory graph, open ``GraphStore``, ``.rsgs``
path) and every execution mode (single-process, pool, degraded pool)
must return the same machine-readable result document."""

from __future__ import annotations

import pytest

import repro.balanced.runner as runner_mod
from repro.balanced import run_balanced
from repro.errors import BalancedSearchError
from repro.graph.store import GraphStore
from repro.perf.registry import get_registry
from repro.perf.tracing import collecting_trace
from tests.conftest import make_connected_signed


@pytest.fixture(scope="module")
def graph():
    return make_connected_signed(70, 150, seed=6)


@pytest.fixture(scope="module")
def store_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("balanced") / "graph.rsgs"
    GraphStore.pack(graph, path)
    return path


def _result(source, **kwargs) -> dict:
    return run_balanced(source, restarts=2, seed=0, **kwargs).to_json()[
        "result"
    ]


class TestSourceSpellings:
    def test_memory_store_and_path_agree(self, graph, store_path):
        from_memory = _result(graph)
        from_store = _result(GraphStore.open(store_path))
        from_path = _result(str(store_path))
        assert from_memory == from_store == from_path

    def test_pool_matches_single_process(self, graph, store_path):
        single = _result(graph)
        pooled_mem = _result(graph, workers=2)
        pooled_store = _result(str(store_path), workers=2)
        assert single == pooled_mem == pooled_store

    def test_tolerance_workload_agrees_across_sources(
        self, graph, store_path
    ):
        kwargs = {"workload": "tolerance", "tolerance": 2}
        assert _result(graph, **kwargs) == _result(
            str(store_path), **kwargs
        )


class TestDegradation:
    def test_worker_failure_degrades_without_changing_answer(
        self, graph, monkeypatch
    ):
        # Fork-start children inherit the poisoned pool entry, so every
        # restart's future raises and the runner must recompute each
        # one in-process.
        def _boom(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        baseline = run_balanced(graph, restarts=2, seed=0)
        monkeypatch.setattr(runner_mod, "_pool_search", _boom)
        report = run_balanced(graph, restarts=2, seed=0, workers=2)
        assert report.degraded_restarts == len(report.per_seed)
        assert report.to_json()["result"] == baseline.to_json()["result"]

    def test_healthy_pool_reports_no_degradation(self, graph):
        report = run_balanced(graph, restarts=2, seed=0, workers=2)
        assert report.degraded_restarts == 0


class TestValidation:
    def test_unknown_workload_rejected(self, graph):
        with pytest.raises(BalancedSearchError, match="workload"):
            run_balanced(graph, workload="frustrate")

    def test_extract_with_tolerance_rejected(self, graph):
        with pytest.raises(BalancedSearchError, match="exact"):
            run_balanced(graph, workload="extract", tolerance=2)

    def test_negative_workers_rejected(self, graph):
        with pytest.raises(BalancedSearchError, match="workers"):
            run_balanced(graph, workers=-1)


class TestReport:
    def test_per_seed_covers_portfolio_and_winner(self, graph):
        report = run_balanced(graph, restarts=3, seed=0)
        labels = [row["label"] for row in report.per_seed]
        assert labels == ["spectral", "tree:0", "tree:1", "tree:2"]
        assert report.best.seed_label in labels
        best_size = max(row["num_vertices"] for row in report.per_seed)
        assert report.best.num_vertices == best_size

    def test_json_document_shape(self, graph):
        doc = run_balanced(graph, restarts=2, seed=0).to_json()
        assert doc["workload"] == "extract"
        assert doc["graph"] == {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
        result = doc["result"]
        assert len(result["vertices"]) == result["num_vertices"]
        assert len(result["sides"]) == result["num_vertices"]
        assert set(map(abs, result["sides"])) <= {1}

    def test_metrics_counters_advance(self, graph):
        registry = get_registry()
        before = registry.counter("balanced.runs_total")
        report = run_balanced(graph, restarts=2, seed=0)
        assert registry.counter("balanced.runs_total") == before + 1
        assert (
            registry.gauges()["balanced.best_size"]
            == report.best.num_vertices
        )

    def test_trace_splits_seeds_into_eigen_and_tree_spans(self, graph):
        # The spectral seed and the BFS tree seeds are timed apart, each
        # once, beside the per-restart rounding and polish.
        with collecting_trace() as trace:
            run_balanced(graph, restarts=2, seed=0)
        paths = [event.path for event in trace.events()]
        assert paths.count("balanced_extract/eigen") == 1
        assert paths.count("balanced_extract/tree_seeds") == 1
        assert paths.count("balanced_extract/polish") == 3
