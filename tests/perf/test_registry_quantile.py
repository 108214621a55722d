"""Histogram quantile estimation and the bounded record ring."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.perf.registry import Histogram
from repro.perf.tracing import SpanEvent, TraceCollector


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        assert Histogram((1.0, 2.0)).quantile(0.99) == 0.0

    def test_reports_bucket_upper_edge(self):
        hist = Histogram((0.01, 0.1, 1.0))
        for _ in range(99):
            hist.observe(0.005)  # le=0.01 bucket
        hist.observe(0.5)  # le=1.0 bucket
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.99) == 0.01
        assert hist.quantile(1.0) == 1.0

    def test_overflow_bucket_reports_last_edge(self):
        hist = Histogram((0.01, 0.1))
        hist.observe(5.0)  # above every edge
        assert hist.quantile(0.99) == 0.1

    def test_out_of_range_raises(self):
        hist = Histogram((1.0,))
        with pytest.raises(ReproError):
            hist.quantile(1.5)
        with pytest.raises(ReproError):
            hist.quantile(-0.1)

    def test_quantiles_survive_merge(self):
        a, b = Histogram((0.01, 1.0)), Histogram((0.01, 1.0))
        for _ in range(10):
            a.observe(0.001)
            b.observe(0.5)
        a.merge(b)
        assert a.quantile(0.25) == 0.01
        assert a.quantile(0.75) == 1.0


def _span(i):
    return SpanEvent("s", float(i), float(i) + 1, 1)


class TestBoundedTraceCollector:
    def test_unbounded_by_default(self):
        collector = TraceCollector()
        for i in range(1000):
            collector.record_event(_span(i))
        assert len(collector) == 1000
        assert collector.dropped == 0

    def test_drops_and_counts_past_capacity(self):
        collector = TraceCollector(max_events=5)
        for i in range(12):
            collector.record_event(_span(i))
        assert len(collector) == 5
        assert collector.dropped == 7
        # The oldest records fall off first (``--trace-max-events``:
        # "oldest requests drop first"), so a wrapped daemon ring
        # still holds its latest requests.
        assert [e.start for e in collector.events()] == [7, 8, 9, 10, 11]

    def test_events_are_the_span_ends_among_records(self):
        collector = TraceCollector(max_events=3)
        collector.record_event(_span(0))
        collector.append({"ts": 1.0, "kind": "tick"})
        collector.record_event(_span(2))
        collector.append({"ts": 3.0, "kind": "tock"})
        assert collector.dropped == 1
        assert [r["kind"] for r in collector.records()
                if isinstance(r, dict)] == ["tick", "tock"]
        assert [e.start for e in collector.events()] == [2.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceCollector(max_events=-1)
