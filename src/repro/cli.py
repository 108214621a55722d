"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
stats        Table-1-style statistics of a signed graph file
balance      compute one nearest balanced state and report the switches
cloud        sample a frustration cloud; write status/influence CSV
frustration  frustration-index bounds (exact / local search / cloud)
dataset      materialize a Table-1 synthetic stand-in to a file
graph        pack/inspect zero-copy mmap graph stores (``graph pack``)
model        modeled serial/OpenMP/CUDA campaign times (Tables 2–3)
memory       Table-4 memory model for given sizes or a named dataset
journal      summarize a campaign event journal (``cloud --journal``)
serve        crash-only HTTP query daemon with background cloud growth
balanced     balanced-subgraph discovery (``extract`` / ``tolerance``)

Graph files are auto-detected by extension: ``.mtx`` (Matrix Market),
``.tsv`` (KONECT), ``.npz`` (repro snapshot), ``.rsgs`` (packed
zero-copy graph store), anything else is parsed as a ``u v sign`` edge
list.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError

__all__ = ["main", "build_parser", "load_graph_file"]


def load_graph_file(path: str):
    """Load a signed graph, dispatching on the file extension."""
    from repro.graph.io import load_npz, read_edgelist
    from repro.graph.io_formats import read_konect, read_matrix_market

    suffix = Path(path).suffix.lower()
    if suffix == ".mtx":
        return read_matrix_market(path)
    if suffix == ".tsv":
        return read_konect(path)
    if suffix == ".npz":
        return load_npz(path)
    if suffix == ".rsgs":
        from repro.graph.store import GraphStore

        return GraphStore.open(path).graph()
    return read_edgelist(path)


def _write_graph(graph, path: str) -> None:
    from repro.graph.io import save_npz, write_edgelist
    from repro.graph.io_formats import write_konect, write_matrix_market

    suffix = Path(path).suffix.lower()
    if suffix == ".mtx":
        write_matrix_market(graph, path)
    elif suffix == ".tsv":
        write_konect(graph, path)
    elif suffix == ".npz":
        save_npz(graph, path)
    else:
        write_edgelist(graph, path)


def _lcc(graph):
    from repro.graph.components import largest_connected_component

    sub, ids = largest_connected_component(graph)
    return sub, ids


# ----------------------------------------------------------------------
# Subcommand implementations (each returns an exit code)
# ----------------------------------------------------------------------
def _cmd_stats(args) -> int:
    graph = load_graph_file(args.input)
    print(f"input: {args.input}")
    print(f"  vertices:           {graph.num_vertices:,}")
    print(f"  edges:              {graph.num_edges:,}")
    print(f"  negative edges:     {graph.num_negative_edges:,} "
          f"({graph.num_negative_edges / max(graph.num_edges, 1):.1%})")
    sub, _ = _lcc(graph)
    print("largest connected component:")
    print(f"  vertices:           {sub.num_vertices:,}")
    print(f"  edges:              {sub.num_edges:,}")
    print(f"  fundamental cycles: {sub.num_fundamental_cycles:,}")
    print(f"  max degree:         {sub.max_degree:,}")
    print(f"  avg degree:         {sub.avg_degree:.2f}")
    if args.profile:
        from repro.graph.stats import profile_graph

        print("profile:")
        for line in profile_graph(sub).render().splitlines():
            print(f"  {line}")
    return 0


def _cmd_balance(args) -> int:
    from repro.core import balance
    from repro.harary import harary_bipartition

    graph = load_graph_file(args.input)
    sub, ids = _lcc(graph)
    result = balance(sub, kernel=args.kernel, seed=args.seed)
    print(f"balanced {sub.num_fundamental_cycles:,} fundamental cycles; "
          f"{result.num_flips:,} edge sign(s) switched")
    bip = harary_bipartition(sub, result.signs)
    print(f"Harary bipartition sizes: {bip.sizes}")
    if args.show_flips:
        for e in np.nonzero(result.flipped)[0][: args.show_flips]:
            u = int(ids[sub.edge_u[e]])
            v = int(ids[sub.edge_v[e]])
            print(f"  flipped {u} {v}")
    if args.output:
        _write_graph(result.balanced_graph, args.output)
        print(f"balanced state written to {args.output}")
    return 0


def _policy_from_args(args):
    """Build a supervisor :class:`RetryPolicy` from the cloud flags, or
    ``None`` when none of them were given (the no-retry ladder)."""
    if (
        args.retries is None
        and args.block_timeout is None
        and args.deadline is None
        and not args.no_degrade
    ):
        return None
    from repro.parallel.supervisor import RetryPolicy

    return RetryPolicy(
        max_retries=args.retries if args.retries is not None else 2,
        block_timeout=args.block_timeout,
        deadline=args.deadline,
        degrade=not args.no_degrade,
    )


def _print_run_report(cloud) -> None:
    report = getattr(cloud, "run_report", None)
    if report is None:
        return
    print(f"supervisor: {report.summary()}")
    for entry in report.quarantined:
        print(f"  quarantined block {entry['block']} after "
              f"{entry['attempts']} attempt(s): {entry['error']}")
    if report.deadline_hit:
        print("  deadline reached; rerun with --resume to finish the "
              "remaining blocks")


def _resolve_graph_store(args, sub):
    """Open (or pack) the campaign's graph store, when one is in play.

    Returns an open :class:`~repro.graph.store.GraphStore` or ``None``.
    ``--graph-store PATH`` opens PATH when it exists (its fingerprint
    must match the campaign graph) and packs the graph there when it
    does not.  ``--shard-workers`` without ``--graph-store`` packs into
    a content-addressed file under the system temp directory, so
    repeated sharded runs of the same graph reuse one mapping.
    """
    if not getattr(args, "graph_store", None) and not getattr(
        args, "shard_workers", None
    ):
        return None
    import tempfile

    from repro.graph.store import GraphStore, graph_fingerprint

    fingerprint = graph_fingerprint(sub)
    path = args.graph_store
    if path is None:
        path = str(
            Path(tempfile.gettempdir())
            / f"repro-graph-{fingerprint[:16]}.rsgs"
        )
    path = Path(path)
    if path.exists():
        store = GraphStore.open(path)
        if store.fingerprint != fingerprint:
            raise ReproError(
                f"graph store {path} holds a different graph than "
                f"{args.input} (fingerprint mismatch); repack it with "
                "`repro graph pack` or point --graph-store elsewhere"
            )
        print(f"graph store: {path} (opened, zero-copy)")
    else:
        store = GraphStore.pack(sub, path)
        print(f"graph store: {path} (packed, "
              f"{path.stat().st_size:,} bytes)")
    return store


def _run_cloud_campaign(args, sub, policy):
    """Run the cloud campaign the flags describe; returns the cloud.

    Factored out of :func:`_cmd_cloud` so the observability scopes
    (``--journal`` / ``--trace-out``) can wrap exactly the campaign.
    One driver call: on ``--resume``, parameters the user did not spell
    out are inherited from (and explicit ones validated against) the
    checkpoint's campaign.
    """
    from repro.parallel.pool import run_campaign

    if args.shard_workers is not None:
        if args.shard_workers < 1:
            raise ReproError("--shard-workers must be positive")
        if args.workers != 1:
            raise ReproError(
                "pass either --workers or --shard-workers, not both "
                "(--shard-workers implies the worker count)"
            )
        args.workers = args.shard_workers
        if args.steal_chunks is None:
            # Enough chunks that a straggler block delays only itself.
            args.steal_chunks = min(8 * args.shard_workers, args.states)
    store = _resolve_graph_store(args, sub)
    resume = None
    if args.resume:
        from repro.cloud.checkpoint import recover_cloud

        resume, _meta, source = recover_cloud(args.resume, sub)
        print(f"resuming from {source} ({resume.num_states} states)")
    cloud = run_campaign(
        sub, args.states, workers=args.workers, method=args.method,
        seed=args.seed, swaps_per_state=args.swaps_per_state,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        keep_checkpoints=args.keep_checkpoints, resume_from=resume,
        policy=policy, graph_store=store, steal_chunks=args.steal_chunks,
        flight_dir=args.flight_dir,
    )
    return cloud


def _cmd_cloud(args) -> int:
    import contextlib

    from repro.perf.registry import set_metrics_enabled

    if args.no_metrics:
        set_metrics_enabled(False)
        if args.trace_out:
            print("warning: --trace-out records nothing under "
                  "--no-metrics (spans are off)", file=sys.stderr)
    graph = load_graph_file(args.input)
    sub, ids = _lcc(graph)
    policy = _policy_from_args(args)
    collector = None
    with contextlib.ExitStack() as scopes:
        if args.journal:
            from repro.perf.journal import journaling

            scopes.enter_context(journaling(args.journal))
        if args.trace_out:
            from repro.perf.tracing import collecting_trace

            collector = scopes.enter_context(collecting_trace())
        if args.flight_dir:
            from repro.perf.flight import flight_recording

            scopes.enter_context(
                flight_recording(args.flight_dir, role="campaign-driver"))
        cloud = _run_cloud_campaign(args, sub, policy)
    if args.journal:
        print(f"event journal written to {args.journal}")
    if args.trace_out:
        from repro.perf.trace_export import spans_to_events, write_chrome_trace

        spans = collector.events()
        write_chrome_trace(spans_to_events(spans), args.trace_out)
        print(f"Chrome trace written to {args.trace_out} "
              f"({len(spans)} spans)")
    _print_run_report(cloud)
    snap = getattr(cloud, "metrics", None)
    if args.trace:
        from repro.perf.export import phase_table

        print(phase_table(snap) if snap else "phase breakdown\n"
              "  (no metrics recorded; drop --no-metrics to collect them)")
    if args.metrics_out:
        from repro.perf.export import write_metrics

        write_metrics(snap or {}, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    status = cloud.status()
    print(f"cloud of {cloud.num_states} states over {sub.num_vertices:,} vertices")
    print(f"  status:    mean {status.mean():.3f} "
          f"[{status.min():.3f}, {status.max():.3f}]")
    print(f"  frustration index <= {cloud.frustration_upper_bound():,}")
    if args.output:
        from repro.cloud.export import write_vertex_csv

        write_vertex_csv(cloud, args.output, original_ids=ids)
        print(f"per-vertex attributes written to {args.output}")
    if args.edge_output:
        from repro.cloud.export import write_edge_csv

        write_edge_csv(cloud, args.edge_output, original_ids=ids)
        print(f"per-edge attributes written to {args.edge_output}")
    return 0


def _cmd_graph_pack(args) -> int:
    from repro.graph.store import GraphStore

    graph = load_graph_file(args.input)
    if args.no_lcc:
        packed = graph
    else:
        packed, _ = _lcc(graph)
        if packed.num_vertices != graph.num_vertices:
            print(f"packing largest connected component: "
                  f"{packed.num_vertices:,}/{graph.num_vertices:,} vertices "
                  f"(--no-lcc packs everything)")
    store = GraphStore.pack(packed, args.output)
    if args.verify:
        store.verify()
    size = Path(args.output).stat().st_size
    print(f"packed {packed.num_vertices:,} vertices / "
          f"{packed.num_edges:,} edges into {args.output} ({size:,} bytes"
          f"{', checksum verified' if args.verify else ''})")
    print(f"  fingerprint: {store.fingerprint}")
    return 0


def _cmd_graph_info(args) -> int:
    from repro.graph.store import GraphStore

    header = GraphStore.read_header(args.store)
    print(f"graph store: {args.store}")
    print(f"  format version: {header.version}")
    print(f"  vertices:       {header.num_vertices:,}")
    print(f"  edges:          {header.num_edges:,}")
    print(f"  fingerprint:    {header.fingerprint}")
    print(f"  checksum:       {header.checksum}")
    payload = sum(nbytes for *_rest, nbytes in header.arrays)
    print(f"  payload:        {payload:,} bytes in {len(header.arrays)} "
          "arrays")
    for name, dtype, shape, offset, nbytes in header.arrays:
        print(f"    {name:12s} {dtype:6s} shape={shape} "
              f"offset={offset} ({nbytes:,} bytes)")
    return 0


def _cmd_frustration(args) -> int:
    from repro.cloud import (
        frustration_index_exact,
        frustration_local_search,
        sample_cloud,
    )

    graph = load_graph_file(args.input)
    sub, _ = _lcc(graph)
    if args.exact:
        fr, _ = frustration_index_exact(sub)
        print(f"exact frustration index: {fr}")
    heur, _ = frustration_local_search(sub, restarts=args.restarts, seed=args.seed)
    print(f"local-search upper bound: {heur}")
    if args.states:
        bound = sample_cloud(sub, args.states, seed=args.seed).frustration_upper_bound()
        print(f"cloud upper bound ({args.states} states): {bound}")
    return 0


def _cmd_dataset(args) -> int:
    from repro.graph.datasets import CATALOG, load

    if args.list:
        for name, spec in CATALOG.items():
            print(f"{name:24s} {spec.category:16s} "
                  f"paper: {spec.paper_vertices:>10,} v  "
                  f"{spec.paper_edges:>11,} e  scale {spec.default_scale:g}")
        return 0
    if not args.name:
        print("dataset: provide a name or --list", file=sys.stderr)
        return 2
    graph = load(args.name, scale=args.scale, seed=args.seed)
    print(f"built {args.name}: {graph}")
    if args.output:
        _write_graph(graph, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_model(args) -> int:
    from repro.parallel import (
        CUDA_MACHINE,
        OPENMP_MACHINE,
        SERIAL_MACHINE,
        model_run_multi,
    )

    graph = load_graph_file(args.input)
    sub, _ = _lcc(graph)
    machines = {
        "serial": SERIAL_MACHINE,
        "openmp": OPENMP_MACHINE,
        "cuda": CUDA_MACHINE,
    }
    runs = model_run_multi(
        sub, machines, num_trees=args.trees, sample_trees=args.sample_trees,
        seed=args.seed,
    )
    print(f"modeled graphB+ campaign: {args.trees} BFS trees, "
          f"{runs['serial'].num_cycles_per_tree:,.0f} cycles/tree")
    for name, run in runs.items():
        print(f"  {name:>7s}: {run.graphb_seconds:10.2f} s   "
              f"{run.throughput_mcps:8.1f} Mcycles/s")
    if args.timeline or args.trace_out:
        from repro.parallel import collect_workload
        from repro.trees import TreeSampler

        tree = TreeSampler(sub, seed=args.seed).tree(0)
        w = collect_workload(sub, tree)
        degrees = np.diff(sub.indptr)
        events = []
        for pid, (name, machine) in enumerate(machines.items(), start=1):
            _times, profile = machine.profile(w)
            if args.timeline:
                print()
                print(profile.report(degrees=degrees))
            if args.trace_out:
                from repro.perf.trace_export import profile_to_events

                events.extend(profile_to_events(profile, pid=pid))
        if args.trace_out:
            from repro.perf.trace_export import write_chrome_trace

            write_chrome_trace(events, args.trace_out)
            print(f"\nChrome trace written to {args.trace_out} "
                  f"({len(events)} events)")
    return 0


def _cmd_journal(args) -> int:
    from repro.perf.journal import render_summary, summarize_journal

    summary = summarize_journal(args.journal)
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _trace_show(args) -> int:
    """``repro trace show FILE``: summarize a Chrome trace document."""
    import json

    from repro.perf.trace_export import load_chrome_trace

    if not args.trace_file:
        print("trace show: provide the trace JSON path", file=sys.stderr)
        return 2
    doc = load_chrome_trace(args.trace_file)
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    by_trace: dict = {}
    by_name: dict = {}
    pids = set()
    for e in events:
        pids.add(e["pid"])
        args_ = e.get("args", {})
        tid = args_.get("trace_id")
        if tid:
            by_trace.setdefault(tid, []).append(e)
        name = e["name"]
        total, calls = by_name.get(name, (0.0, 0))
        by_name[name] = (total + float(e.get("dur", 0.0)) / 1e6, calls + 1)
    summary = {
        "file": args.trace_file,
        "events": len(events),
        "processes": sorted(pids),
        "traces": {
            tid: {
                "spans": len(evs),
                "processes": sorted({e["pid"] for e in evs}),
                "wall_seconds": round(
                    (max(e["ts"] + e["dur"] for e in evs)
                     - min(e["ts"] for e in evs)) / 1e6, 6),
            }
            for tid, evs in sorted(by_trace.items())
        },
        "spans": {
            name: {"seconds": round(total, 6), "calls": calls}
            for name, (total, calls) in sorted(
                by_name.items(), key=lambda kv: kv[1][0], reverse=True)
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{args.trace_file}: {len(events)} span events across "
          f"{len(pids)} process(es)")
    for tid, info in summary["traces"].items():
        procs = ", ".join(str(p) for p in info["processes"])
        print(f"  trace {tid}: {info['spans']} spans over "
              f"{info['wall_seconds']:.4f}s on pids [{procs}]")
    print("  hottest spans:")
    for name, stat in list(summary["spans"].items())[:10]:
        print(f"    {name:<24} {stat['seconds']:>10.4f}s  "
              f"x{stat['calls']}")
    return 0


def _cmd_trace(args) -> int:
    if args.input == "show":
        return _trace_show(args)

    from repro.core.trace import trace_cycle
    from repro.trees import TreeSampler

    graph = load_graph_file(args.input)
    sub, _ = _lcc(graph)
    tree = TreeSampler(sub, seed=args.seed).tree(0)
    non_tree = tree.non_tree_edge_ids()
    if len(non_tree) == 0:
        print("the graph is a tree: no fundamental cycles to trace")
        return 0
    count = min(args.cycles, len(non_tree))
    for e in non_tree[:count]:
        print(trace_cycle(sub, tree, int(e)).describe())
        print()
    return 0


def _cmd_flight(args) -> int:
    """``repro flight dump PATH``: print crash flight-recorder dumps."""
    import json
    import os

    from repro.perf.flight import find_flight_dumps, read_flight_dump

    paths = (
        find_flight_dumps(args.path)
        if os.path.isdir(args.path)
        else [args.path]
    )
    if not paths:
        print(f"no flight dumps under {args.path}", file=sys.stderr)
        return 1
    shown = 0
    for path in paths:
        try:
            doc = read_flight_dump(path)
        except Exception as exc:  # torn/alien file: report, keep going
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            continue
        shown += 1
        if args.json:
            print(json.dumps(doc, sort_keys=True))
            continue
        inflight = doc.get("inflight")
        print(f"{path}: pid {doc['pid']}, {len(doc['events'])} events")
        if inflight:
            detail = {k: v for k, v in inflight.items() if k != "since"}
            print(f"  IN FLIGHT at last dump: {detail}")
        else:
            print("  nothing in flight at last dump")
        for event in doc["events"][-args.events:]:
            if event["kind"] == "span":
                ms = (event["end"] - event["start"]) * 1e3
                print(f"    span {event['path']}: {ms:.3f} ms (pid {event['pid']})")
                continue
            fields = {k: v for k, v in event.items()
                      if k not in ("kind", "ts", "seq", "wall")}
            print(f"    {event['kind']}: {fields}")
    return 0 if shown else 1


def _cmd_communities(args) -> int:
    from repro.cloud import consensus_communities, polarization, sample_cloud

    graph = load_graph_file(args.input)
    sub, ids = _lcc(graph)
    cloud = sample_cloud(sub, args.states, seed=args.seed)
    labels = consensus_communities(cloud, threshold=args.threshold)
    sizes = np.bincount(labels)
    order = np.argsort(sizes)[::-1]
    print(f"{int(labels.max()) + 1} consensus communities at "
          f"co-side threshold {args.threshold} ({args.states} states)")
    print(f"graph polarization: {polarization(cloud):.3f}")
    for rank, c in enumerate(order[: args.top]):
        print(f"  community #{rank + 1}: {int(sizes[c])} vertices")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("vertex,community\n")
            for i in range(sub.num_vertices):
                fh.write(f"{int(ids[i])},{int(labels[i])}\n")
        print(f"memberships written to {args.output}")
    return 0


def _cmd_convergence(args) -> int:
    from repro.cloud.convergence import split_half_agreement, status_trajectory

    graph = load_graph_file(args.input)
    sub, _ = _lcc(graph)
    cps = sorted({max(args.max_states // (2**k), 4) for k in range(4)})
    traj = status_trajectory(sub, cps, seed=args.seed)
    print("status convergence (max per-vertex change between checkpoints):")
    for cp, change in zip(traj.checkpoints, traj.max_step_change):
        shown = "-" if np.isinf(change) else f"{change:.4f}"
        print(f"  {int(cp):>6d} states: {shown}")
    r = split_half_agreement(sub, args.max_states, seed=args.seed + 1)
    print(f"split-half reliability at {args.max_states} states: {r:.3f}")
    return 0


def _cmd_memory(args) -> int:
    from repro.perf.memory import cuda_device_mb, cuda_host_mb, openmp_host_mb

    if args.dataset:
        from repro.graph.datasets import paper_stats

        spec = paper_stats(args.dataset)
        n, m = spec.paper_vertices, spec.paper_edges
        print(f"{args.dataset} at full published size: n={n:,}, m={m:,}")
    else:
        if args.vertices is None or args.edges is None:
            print("memory: provide --dataset or both --vertices/--edges",
                  file=sys.stderr)
            return 2
        n, m = args.vertices, args.edges
    print(f"  OpenMP host: {openmp_host_mb(n, m):12.1f} MB")
    print(f"  CUDA device: {cuda_device_mb(n, m):12.1f} MB")
    print(f"  CUDA host:   {cuda_host_mb(n, m):12.1f} MB")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    graph = load_graph_file(args.input)
    sub, _ids = _lcc(graph)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        target_states=args.states,
        grow_step=args.grow_step,
        grow=not args.no_grow,
        grow_delay_ms=args.grow_delay_ms,
        method=args.method,
        seed=args.seed,
        swaps_per_state=args.swaps_per_state,
        checkpoint=args.checkpoint,
        keep_checkpoints=args.keep_checkpoints,
        journal=args.journal,
        qps=args.qps,
        burst=args.burst,
        breaker_p99_ms=args.breaker_p99_ms,
        breaker_window=args.breaker_window,
        breaker_cooldown=args.breaker_cooldown,
        drain_budget=args.drain_budget,
        request_timeout=args.request_timeout,
        access_log=args.access_log,
        debug_trace=args.debug_trace,
        flight_dir=args.flight_dir,
        trace_max_events=args.trace_max_events,
        grow_workers=args.grow_workers,
    )
    return run_server(sub, config)


def _balanced_output(report, args) -> None:
    """Write a balanced-workload report as JSON or per-vertex CSV.

    The format follows ``--format`` when given, else the output path's
    extension (``.csv`` means CSV, anything else JSON).
    """
    import json

    path = Path(args.output)
    fmt = args.format
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "json":
        path.write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        best = report.best
        lines = ["vertex,side"]
        lines.extend(
            f"{int(v)},{int(s)}"
            for v, s in zip(best.vertices, best.sides)
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{fmt} report written to {args.output}")


def _cmd_balanced(args) -> int:
    from repro.balanced import run_balanced

    workload = args.balanced_command
    tolerance = getattr(args, "tolerance", 0)
    # .rsgs inputs go to the runner as paths so pool workers share the
    # zero-copy mapping; everything else is loaded here.
    if Path(args.input).suffix.lower() == ".rsgs":
        source = args.input
    else:
        source = load_graph_file(args.input)
    report = run_balanced(
        source,
        workload=workload,
        tolerance=tolerance,
        restarts=args.restarts,
        seed=args.seed,
        peel_frac=args.peel_frac,
        polish=not args.no_polish,
        workers=args.workers,
    )
    best = report.best
    print(f"{workload}: kept {best.num_vertices:,}/"
          f"{report.num_vertices:,} vertices, {best.num_edges:,} edges "
          f"({best.unsatisfied_edges:,} unsatisfied, tolerance "
          f"{report.tolerance}) from seed '{best.seed_label}' "
          f"in {report.wall_seconds:.3f}s")
    for row in report.per_seed:
        print(f"  seed {row['label']:10s} {row['num_vertices']:6,} "
              f"vertices {row['num_edges']:7,} edges "
              f"{row['unsatisfied_edges']:5,} unsatisfied")
    if report.degraded_restarts:
        print(f"  ({report.degraded_restarts} restart(s) degraded to "
              "in-process execution after worker failures)")
    if args.metrics_out:
        from repro.perf.export import write_metrics
        from repro.perf.registry import get_registry

        write_metrics(get_registry().snapshot(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.output:
        _balanced_output(report, args)
    return 0


# ----------------------------------------------------------------------
def _batch_size_arg(value: str) -> str:
    """--batch-size is ignored but still a positive int or 'auto'."""
    if value != "auto" and not (value.isdigit() and int(value) > 0):
        raise argparse.ArgumentTypeError(
            f"invalid batch size {value!r}: expected a positive int or 'auto'"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="graphB+ — balance signed graphs and analyze consensus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph statistics (Table-1 style)")
    p.add_argument("input")
    p.add_argument("--profile", action="store_true",
                   help="also fit degree percentiles / power-law / assortativity")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("balance", help="compute one nearest balanced state")
    p.add_argument("input")
    p.add_argument("--kernel", choices=["walk", "lockstep", "parity"],
                   default="lockstep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-flips", type=int, default=0, metavar="K",
                   help="print up to K switched edges")
    p.add_argument("--output", help="write the balanced state to a file")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("cloud", help="sample a frustration cloud (Alg. 2)")
    p.add_argument("input")
    p.add_argument("--states", type=int, default=100)
    _tree_methods = ["bfs", "bfs-low-degree", "dfs", "wilson", "swap"]
    p.add_argument("--method", choices=_tree_methods,
                   default=None,
                   help="tree sampling method (default bfs; 'swap' derives "
                        "each tree from the previous one by edge swaps — "
                        "faster per state, but estimates a different cloud "
                        "(EXPERIMENTS.md); with "
                        "--resume, inherited from the checkpoint's campaign)")
    p.add_argument("--tree-method", dest="method", choices=_tree_methods,
                   help="alias for --method")
    p.add_argument("--swaps-per-state", type=int, default=None, metavar="N",
                   help="edge swaps applied per state with --method swap "
                        "(default 1; more swaps decorrelate successive "
                        "states at more cost per state)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--graph-store", metavar="PATH",
                   help="run the campaign against a packed zero-copy "
                        "graph store: workers mmap PATH read-only and "
                        "share one page-cache copy of the graph instead "
                        "of receiving pickled copies; packed from the "
                        "input's largest connected component when PATH "
                        "does not exist yet")
    p.add_argument("--shard-workers", type=int, default=None, metavar="N",
                   help="sharded campaign shorthand: N store-backed "
                        "workers with work-stealing over fine block "
                        "ranges (~8 chunks per worker); packs a "
                        "content-addressed store under the temp dir "
                        "when --graph-store is not given")
    p.add_argument("--steal-chunks", type=int, default=None, metavar="K",
                   help="split the campaign into K fine contiguous "
                        "blocks feeding the shared worker queue (work "
                        "stealing); default: one contiguous block per "
                        "worker, or 8 per worker with --shard-workers")
    p.add_argument("--batch-size", type=_batch_size_arg, default=None,
                   metavar="B",
                   help="accepted and ignored: the engine picks its own "
                        "chunks, which never change the results (a "
                        "positive int or 'auto')")
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default 0; with --resume, inherited "
                        "from the checkpoint's campaign)")
    p.add_argument("--output", help="write the per-vertex attribute CSV")
    p.add_argument("--edge-output", help="write the per-edge attribute CSV")
    p.add_argument("--checkpoint",
                   help="write crash-safe NPZ cloud checkpoints (atomic "
                        "write; on a pool-worker crash, completed blocks "
                        "are salvaged here)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="re-checkpoint every N new states, at any worker "
                        "count: blocks are cut to at most N states and "
                        "the running cloud is written on block "
                        "boundaries (default: on completion or crash)")
    p.add_argument("--keep-checkpoints", type=int, default=2, metavar="K",
                   help="rotate the last K good checkpoints "
                        "(path, path.1, ...; default 2)")
    p.add_argument("--resume",
                   help="resume a campaign from an NPZ checkpoint, falling "
                        "back to its newest loadable rotation backup; "
                        "mismatched --method/--seed fail loudly")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="run under the self-healing supervisor: retry each "
                        "failed block up to N times with exponential "
                        "backoff before quarantining it")
    p.add_argument("--block-timeout", type=float, default=None, metavar="S",
                   help="supervisor watchdog: kill and retry any block "
                        "running longer than S seconds (implies --retries 2 "
                        "unless given)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="stop the campaign cleanly after S seconds, "
                        "checkpointing completed blocks for --resume "
                        "(implies --retries 2 unless given)")
    p.add_argument("--no-degrade", action="store_true",
                   help="never fall back to in-process execution for "
                        "blocks that exhaust their pool retries; "
                        "quarantine them instead")
    p.add_argument("--trace", action="store_true",
                   help="print the per-phase time breakdown (tree "
                        "sampling, kernels, Harary folds, checkpoints) "
                        "after the campaign")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the campaign's metrics snapshot to PATH "
                        "(Prometheus text format for .prom, JSON "
                        "otherwise)")
    p.add_argument("--no-metrics", action="store_true",
                   help="disable metrics/span collection entirely "
                        "(near-zero instrumentation overhead)")
    p.add_argument("--journal", metavar="PATH",
                   help="append structured campaign events (start, block "
                        "completions, retries, checkpoints, convergence "
                        "snapshots) to a crash-safe JSONL journal; "
                        "inspect it with `repro journal summarize`")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the campaign's span timeline as Chrome "
                        "trace JSON (open in Perfetto / chrome://tracing)")
    p.add_argument("--flight-dir", metavar="DIR",
                   help="arm crash flight recorders in the driver and "
                        "every pool worker; a killed process leaves "
                        "DIR/flight-<pid>.json naming its in-flight "
                        "block (`repro flight dump DIR`)")
    p.set_defaults(func=_cmd_cloud)

    p = sub.add_parser("frustration", help="frustration-index bounds")
    p.add_argument("input")
    p.add_argument("--exact", action="store_true",
                   help="exact enumeration (n <= 24 only)")
    p.add_argument("--states", type=int, default=0,
                   help="also report the cloud bound over N states")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_frustration)

    p = sub.add_parser("dataset", help="materialize a Table-1 stand-in")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("graph",
                       help="pack or inspect zero-copy mmap graph stores")
    graph_sub = p.add_subparsers(dest="graph_command", required=True)
    gp = graph_sub.add_parser(
        "pack",
        help="serialize a graph into a flat checksummed store file that "
             "campaign workers mmap read-only (zero pickling)")
    gp.add_argument("input", help="graph file (any supported format)")
    gp.add_argument("output", help="store file to write (.rsgs)")
    gp.add_argument("--no-lcc", action="store_true",
                    help="pack the whole graph instead of its largest "
                         "connected component (campaigns need a "
                         "connected graph)")
    gp.add_argument("--verify", action="store_true",
                    help="re-read the packed payload and verify its "
                         "checksum before reporting success")
    gp.set_defaults(func=_cmd_graph_pack)
    gi = graph_sub.add_parser(
        "info", help="print a store file's header (no payload read)")
    gi.add_argument("store", help="packed store file")
    gi.set_defaults(func=_cmd_graph_info)

    p = sub.add_parser("model", help="modeled serial/OpenMP/CUDA campaign")
    p.add_argument("input")
    p.add_argument("--trees", type=int, default=1000)
    p.add_argument("--sample-trees", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeline", action="store_true",
                   help="print each machine's execution-timeline profile "
                        "(occupancy, load imbalance, launch overhead, "
                        "straggler vertices with degrees)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the modeled machine timelines as Chrome "
                        "trace JSON (one process per machine)")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("journal",
                       help="inspect a campaign event journal (JSONL)")
    p.add_argument("action", choices=["summarize"],
                   help="summarize: replay the journal into campaign "
                        "counters and reconcile with the run report")
    p.add_argument("journal", help="path to a --journal JSONL file")
    p.add_argument("--json", action="store_true",
                   help="print the summary as JSON instead of text")
    p.set_defaults(func=_cmd_journal)

    p = sub.add_parser(
        "trace",
        help="narrate cycle traversals (Fig. 6 style), or `trace show "
             "FILE` to summarize a Chrome trace",
    )
    p.add_argument("input",
                   help="graph file to narrate, or the literal word "
                        "'show' to inspect a recorded trace")
    p.add_argument("trace_file", nargs="?", default=None,
                   help="with 'show': path to a --trace-out / "
                        "/debug/trace Chrome trace JSON")
    p.add_argument("--cycles", type=int, default=3,
                   help="number of fundamental cycles to narrate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="with 'show': print the summary as JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "flight",
        help="read crash flight-recorder dumps (--flight-dir)",
        description="Dump the black boxes: print every readable "
                    "flight-<pid>.json under DIR (or one file), "
                    "including what each process had in flight when "
                    "it last dumped.",
    )
    p.add_argument("action", choices=["dump"],
                   help="dump: print the recorded events per process")
    p.add_argument("path", help="a flight dump file or the directory "
                                "holding flight-*.json dumps")
    p.add_argument("--json", action="store_true",
                   help="print raw dump documents as JSON lines")
    p.add_argument("--events", type=int, default=8,
                   help="trailing ring events to show per process "
                        "(default 8)")
    p.set_defaults(func=_cmd_flight)

    p = sub.add_parser("communities", help="consensus communities from the cloud")
    p.add_argument("input")
    p.add_argument("--states", type=int, default=50)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write vertex,community CSV")
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("convergence", help="status sampling-convergence check")
    p.add_argument("input")
    p.add_argument("--max-states", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("memory", help="Table-4 memory model")
    p.add_argument("--dataset")
    p.add_argument("--vertices", type=int)
    p.add_argument("--edges", type=int)
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser(
        "serve",
        help="crash-only frustration-cloud query daemon (HTTP)",
        description="Serve consensus queries over HTTP while growing the "
                    "cloud in the background.  Boot always recovers from "
                    "the checkpoint chain (crash-only); SIGTERM drains "
                    "in-flight requests, checkpoints, and exits 0.",
    )
    p.add_argument("input")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0 = pick an ephemeral port "
                        "and print it)")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound port to PATH (atomic; for "
                        "scripts/tests discovering an ephemeral port)")
    p.add_argument("--states", type=int, default=256,
                   help="grow the cloud to this many states (default 256)")
    p.add_argument("--grow-step", type=int, default=16,
                   help="states sampled per background growth round "
                        "(also the checkpoint/snapshot cadence)")
    p.add_argument("--no-grow", action="store_true",
                   help="serve the recovered checkpoint only; no "
                        "background growth")
    p.add_argument("--grow-delay-ms", type=float, default=0.0,
                   help="pause between growth rounds (throttles growth "
                        "on busy hosts)")
    p.add_argument("--method",
                   choices=["bfs", "bfs-low-degree", "dfs", "wilson",
                            "swap"],
                   default=None,
                   help="tree sampling method (default: inherit from the "
                        "checkpoint's campaign, else bfs)")
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default: inherit, else 0)")
    p.add_argument("--batch-size", type=_batch_size_arg, default=None,
                   help="accepted and ignored: the engine picks its own "
                        "chunks")
    p.add_argument("--swaps-per-state", type=int, default=None,
                   help="edge swaps per state for --method swap")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint chain to recover from at boot and "
                        "rewrite every growth round")
    p.add_argument("--keep-checkpoints", type=int, default=2,
                   help="rotated checkpoint files to keep (default 2)")
    p.add_argument("--journal", metavar="PATH",
                   help="append lifecycle/degradation events to this "
                        "JSONL journal")
    p.add_argument("--qps", type=float, default=0.0,
                   help="admission-control rate in queries/sec "
                        "(default 0 = unlimited)")
    p.add_argument("--burst", type=int, default=32,
                   help="admission token-bucket burst size (default 32)")
    p.add_argument("--breaker-p99-ms", type=float, default=0.0,
                   help="open the growth-shedding circuit breaker when "
                        "query p99 exceeds this many ms (0 disables)")
    p.add_argument("--breaker-window", type=int, default=128,
                   help="requests in the breaker's sliding p99 window")
    p.add_argument("--breaker-cooldown", type=float, default=2.0,
                   help="healthy seconds before a tripped breaker closes")
    p.add_argument("--drain-budget", type=float, default=10.0,
                   help="seconds SIGTERM waits for in-flight requests "
                        "(default 10)")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   help="per-connection socket timeout bounding slow "
                        "clients (default 10s)")
    p.add_argument("--access-log", metavar="PATH",
                   help="append one structured JSONL line per query "
                        "(request_id, path, status, latency_ms, "
                        "outcome); off by default")
    p.add_argument("--debug-trace", action="store_true",
                   help="collect request-scoped spans and enable the "
                        "/debug/trace and /debug/grow endpoints")
    p.add_argument("--flight-dir", metavar="DIR",
                   help="arm crash flight recorders (daemon + growth "
                        "pool workers); dumps land as DIR/flight-<pid>"
                        ".json, readable via `repro flight dump DIR`")
    p.add_argument("--trace-max-events", type=int, default=4096,
                   help="record-ring bound while --debug-trace is on "
                        "(default 4096; oldest requests drop first)")
    p.add_argument("--grow-workers", type=int, default=1,
                   help="processes per growth round (>1 fans rounds "
                        "over the supervised pool; default 1)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "balanced",
        help="balanced-subgraph discovery workloads",
        description="Find large (near-)balanced vertex subsets: "
                    "'extract' deletes vertices until the induced "
                    "subgraph is exactly balanced; 'tolerance' allows "
                    "each kept vertex up to t unbalanced incident "
                    "edges.",
    )
    bsub = p.add_subparsers(dest="balanced_command", required=True)

    def _balanced_common(bp) -> None:
        bp.add_argument("input",
                        help="graph file; .rsgs stores are mapped "
                             "zero-copy and shared with pool workers")
        bp.add_argument("--restarts", type=int, default=4,
                        help="spanning-tree seed restarts besides the "
                             "spectral seed (default 4)")
        bp.add_argument("--seed", type=int, default=0)
        bp.add_argument("--peel-frac", type=float, default=0.25,
                        help="fraction of over-budget vertices removed "
                             "per peel round (default 0.25; smaller = "
                             "slower, slightly larger subgraphs)")
        bp.add_argument("--no-polish", action="store_true",
                        help="skip the local-search re-admission pass")
        bp.add_argument("--workers", type=int, default=0,
                        help="distribute restarts over N pool workers "
                             "(default 0 = single-process; results are "
                             "identical either way)")
        bp.add_argument("--output", metavar="PATH",
                        help="write the report (JSON) or the kept "
                             "vertex/side table (CSV) to PATH")
        bp.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (default: by PATH extension)")
        bp.add_argument("--metrics-out", metavar="PATH",
                        help="write the metrics-registry JSON snapshot "
                             "(balanced_extract > eigen/rounding/polish "
                             "spans) to PATH")
        bp.set_defaults(func=_cmd_balanced)

    be = bsub.add_parser(
        "extract",
        help="largest exactly-balanced subgraph (arXiv:2002.00775)",
    )
    _balanced_common(be)

    bt = bsub.add_parser(
        "tolerance",
        help="balanced subgraph with per-vertex tolerance "
             "(arXiv:2402.05006)",
    )
    bt.add_argument("--tolerance", "-t", type=int, default=1,
                    metavar="T",
                    help="max unbalanced incident edges per kept vertex "
                         "(default 1)")
    _balanced_common(bt)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro flight dump | head`);
        # a truncated listing is the reader's choice, not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
