"""Tests for counters, timers, memory model, and report rendering."""

import time

import numpy as np
import pytest

from repro.perf.compat import Counters
from repro.perf.memory import (
    CUDA_DEVICE,
    CUDA_HOST,
    OPENMP_HOST,
    cuda_device_mb,
    cuda_host_mb,
    max_edges_within,
    openmp_host_mb,
    python_actual_mb,
)
from repro.perf.report import TextTable, format_series, geomean
from repro.perf.export import phase_table, span_stats
from repro.perf.registry import collecting
from repro.perf.tracing import span

from tests.conftest import make_connected_signed


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("x", 3)
        c.add("x")
        assert c.get("x") == 4
        assert c.get("missing") == 0

    def test_regions(self):
        c = Counters()
        c.parallel_region("k", 10)
        c.parallel_region("k", 20)
        c.parallel_region("j", 5)
        stats = c.region_stats()
        assert stats["k"].launches == 2
        assert stats["k"].total_items == 30
        assert stats["k"].avg_items == 15.0
        assert stats["j"].launches == 1

    def test_merge(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        b.parallel_region("r", 7)
        a.merge(b)
        assert a.get("x") == 3
        assert a.region_stats()["r"].total_items == 7

    def test_snapshot_is_copy(self):
        c = Counters()
        c.add("x")
        snap = c.snapshot()
        c.add("x")
        assert snap["x"] == 1


class TestTimers:
    """Phase times are spans: recorded under :func:`collecting` and
    read back with :func:`span_stats` / :func:`phase_table`."""

    def test_phase_accumulates(self):
        with collecting() as metrics:
            with span("a"):
                time.sleep(0.01)
            with span("a"):
                pass
        seconds, calls = span_stats(metrics.snapshot())["a"]
        assert calls == 2
        assert seconds >= 0.01

    def test_breakdown_sums_to_one(self):
        with collecting() as metrics:
            with span("campaign"):
                with span("a"):
                    pass
                with span("b"):
                    pass
        stats = span_stats(metrics.snapshot())
        parts = stats["campaign/a"][0] + stats["campaign/b"][0]
        assert parts <= stats["campaign"][0]
        assert "100.0%" in phase_table(metrics.snapshot())

    def test_empty_breakdown(self):
        with collecting() as metrics:
            pass
        assert span_stats(metrics.snapshot()) == {}
        assert "(no spans recorded)" in phase_table(metrics.snapshot())

    def test_merge(self):
        with collecting() as outer:
            with span("x"):
                pass
            with collecting() as inner:
                with span("x"):
                    pass
        assert span_stats(inner.snapshot())["x"][1] == 1
        assert span_stats(outer.snapshot())["x"][1] == 2

    def test_render(self):
        with collecting() as metrics:
            with span("cycles"):
                time.sleep(0.02)
            with span("labeling"):
                pass
        out = phase_table(metrics.snapshot(), "breakdown")
        assert out.splitlines()[0] == "breakdown"
        assert out.index("cycles") < out.index("labeling")  # longest first


class TestMemoryModel:
    def test_published_table4_rows(self):
        """The fitted model must reproduce Table 4 within ~3%."""
        rows = {
            # name: (n, m, openmp, device, host)
            "A*_Book": (9_973_735, 22_268_630, 1328.2, 1629.9, 869.8),
            "A*_Electronics": (4_523_296, 7_734_582, 489.6, 590.4, 322.3),
            "S*_wiki": (7_539, 112_058, 5.5, 7.2, 3.6),
            "S*_slashdot": (82_140, 500_481, 26.1, 33.4, 16.8),
            "A*_Music_core5": (9_109, 64_706, 3.3, 4.3, 2.1),
        }
        for name, (n, m, omp, dev, host) in rows.items():
            assert openmp_host_mb(n, m) == pytest.approx(omp, rel=0.04), name
            assert cuda_device_mb(n, m) == pytest.approx(dev, rel=0.04), name
            assert cuda_host_mb(n, m) == pytest.approx(host, rel=0.06), name

    def test_ordering(self):
        # §6.4: device > openmp host > cuda host for every input.
        n, m = 1_000_000, 2_000_000
        assert cuda_device_mb(n, m) > openmp_host_mb(n, m) > cuda_host_mb(n, m)

    def test_capacity_estimate(self):
        # §6.4: ~150M edges fit in 12 GB of device memory (avg degree ~2).
        cap = max_edges_within(12_000, CUDA_DEVICE, avg_degree=2.0)
        assert 120_000_000 < cap < 220_000_000

    def test_python_actual(self):
        g = make_connected_signed(100, 300, seed=0)
        assert python_actual_mb(g) > 0


class TestReport:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_table_render(self):
        t = TextTable("Table X", ["name", "value"])
        t.add_row("alpha", 1.5)
        t.add_row("beta", 12345)
        out = t.render()
        assert "Table X" in out
        assert "alpha" in out
        assert "12,345" in out

    def test_table_rejects_bad_row(self):
        t = TextTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_series(self):
        out = format_series("throughput", ["a", "b"], [1.0, 2.0])
        assert "throughput" in out and "a" in out
