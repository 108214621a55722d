"""Observability subsystem: metrics registry, span tracing, exporters,
the event stream, work counters, the Table-4 memory model, and text
rendering.

``repro.perf`` is the single entry point for everything performance-
and observability-related:

* :class:`MetricsRegistry` / :func:`get_registry` / :func:`collecting`
  — process-global, thread- and worker-safe counters, gauges, and
  histogram timers (:mod:`repro.perf.registry`).
* :func:`span` / :class:`Tracer` — nested phase spans recorded into
  the active registry (:mod:`repro.perf.tracing`).
* :func:`phase_table` / :func:`to_prometheus` / :func:`write_metrics`
  — exporters for people and machines (:mod:`repro.perf.export`).
* :class:`ExecutionTimeline` / :class:`MachineProfile` — per-worker
  schedule timelines with occupancy/straggler/divergence reports from
  the simulated machines (:mod:`repro.perf.timeline`), and their
  Chrome/Perfetto export (:mod:`repro.perf.trace_export`), which also
  renders real span traces.
* :func:`journal_event` — the one event stream.  Each record goes to
  every installed sink: the append-only :class:`Journal` with
  crash-safe replay (:mod:`repro.perf.journal`) and the record rings,
  which also keep span ends — the :class:`TraceCollector`
  (:mod:`repro.perf.tracing`) and the crash :class:`FlightRecorder`
  that dumps its ring (:mod:`repro.perf.flight`).
* :class:`Counters` — per-call-site op counters
  (:mod:`repro.perf.compat`) that the simulated-machine cost models
  replay; phase times, from a campaign down to one balance call, are
  spans.
* :func:`trace_cycle` — the Fig. 6 cycle-walk narrator
  (:mod:`repro.core.trace`), re-exported here because "why did this
  cycle balance that way" is the micro end of the same observability
  story.
"""

from repro.perf.compat import Counters, RegionStat
from repro.perf.flight import (
    FlightRecorder,
    find_flight_dumps,
    flight_clear_inflight,
    flight_mark_inflight,
    flight_recording,
    install_flight_recorder,
    iter_flight_dumps,
    read_flight_dump,
)
from repro.perf.export import (
    phase_seconds,
    phase_table,
    span_stats,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.perf.journal import (
    Journal,
    events_enabled,
    journal_event,
    journaling,
    read_journal,
    render_summary,
    summarize_journal,
)
from repro.perf.memory import (
    CUDA_DEVICE,
    CUDA_HOST,
    OPENMP_HOST,
    MemoryModel,
    cuda_device_mb,
    cuda_host_mb,
    openmp_host_mb,
    python_actual_mb,
)
from repro.perf.registry import (
    DEFAULT_BUCKET_EDGES,
    Histogram,
    MetricsRegistry,
    collecting,
    get_registry,
    metrics_enabled,
    reset_global_registry,
    set_metrics_enabled,
)
from repro.perf.report import TextTable, format_series, geomean
from repro.perf.timeline import (
    ExecutionTimeline,
    KernelLaunch,
    MachineProfile,
    TimelineSegment,
)
from repro.perf.trace_export import (
    REQUIRED_EVENT_KEYS,
    events_for_trace,
    load_chrome_trace,
    profile_to_events,
    spans_to_events,
    timeline_to_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.perf.tracectx import (
    TraceContext,
    current_trace,
    mint_trace,
    trace_scope,
)
from repro.perf.tracing import (
    SPAN_PREFIX,
    Span,
    SpanEvent,
    TraceCollector,
    Tracer,
    absorb_shard,
    collecting_trace,
    collector_shard,
    get_tracer,
    span,
)

__all__ = [
    "Counters",
    "RegionStat",
    "MemoryModel",
    "OPENMP_HOST",
    "CUDA_DEVICE",
    "CUDA_HOST",
    "openmp_host_mb",
    "cuda_device_mb",
    "cuda_host_mb",
    "python_actual_mb",
    "TextTable",
    "format_series",
    "geomean",
    "DEFAULT_BUCKET_EDGES",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "get_registry",
    "metrics_enabled",
    "reset_global_registry",
    "set_metrics_enabled",
    "SPAN_PREFIX",
    "Span",
    "SpanEvent",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "absorb_shard",
    "collecting_trace",
    "collector_shard",
    "current_trace",
    "get_tracer",
    "mint_trace",
    "span",
    "trace_scope",
    "FlightRecorder",
    "find_flight_dumps",
    "flight_clear_inflight",
    "flight_mark_inflight",
    "flight_recording",
    "install_flight_recorder",
    "iter_flight_dumps",
    "read_flight_dump",
    "TimelineSegment",
    "ExecutionTimeline",
    "KernelLaunch",
    "MachineProfile",
    "REQUIRED_EVENT_KEYS",
    "events_for_trace",
    "spans_to_events",
    "timeline_to_events",
    "profile_to_events",
    "write_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "Journal",
    "events_enabled",
    "journal_event",
    "journaling",
    "read_journal",
    "summarize_journal",
    "render_summary",
    "phase_seconds",
    "phase_table",
    "span_stats",
    "to_json",
    "to_prometheus",
    "write_metrics",
    "CycleTrace",
    "TraceStep",
    "trace_cycle",
]

# The cycle narrator lives in repro.core.trace, which (through
# repro.core) imports kernels that themselves import repro.perf — so
# its re-export here must be lazy (PEP 562) to avoid a circular import
# at package load.
_CORE_TRACE_EXPORTS = ("CycleTrace", "TraceStep", "trace_cycle")


def __getattr__(name: str):
    if name in _CORE_TRACE_EXPORTS:
        from repro.core import trace

        return getattr(trace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
