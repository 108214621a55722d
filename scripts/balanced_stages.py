"""Split one ``balanced_portfolio`` pass into its stages, from the spans.

    PYTHONPATH=src python scripts/balanced_stages.py

perfbench's ``balanced_portfolio`` runs ``run_balanced`` once per entry
of ``workloads.CALLS`` per pass (extract at t = 0, then tolerance at
t = 2) on ``workloads.planted_graph`` at its full size and seed 1.
This imports that recipe and those sizes from ``perfbench/``, runs
``REPEATS`` passes under a trace collector after one warm-up pass, and
prints, per ``balanced_extract`` child span, its milliseconds per pass
(median over the passes):

* eigen      -- the spectral seed, one per call;
* tree_seeds -- the BFS sign-to-root switchings, one batch per call;
* rounding   -- the peel, once per seed;
* polish     -- the re-admission round, once per seed.

Stages a checkout does not time apart read 0 (before the ``tree_seeds``
span, ``eigen`` held both seed families).  To time another checkout's
program against this perfbench, point ``PYTHONPATH`` at its ``src``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from harness import SIZES, Context  # noqa: E402
from workloads import CALLS, planted_graph  # noqa: E402

from repro.balanced import run_balanced  # noqa: E402
from repro.perf.tracing import collecting_trace  # noqa: E402

STAGES = ("eigen", "tree_seeds", "rounding", "polish")
SEED = 1  # perfbench's default seed
REPEATS = 10
SIZE = SIZES["full"]


def one_pass(graph):
    """Milliseconds per stage, and the wall, of one pass."""
    start = time.perf_counter()
    with collecting_trace() as trace:
        for workload, tolerance in CALLS:
            run_balanced(graph, workload=workload, tolerance=tolerance,
                         restarts=SIZE["restarts"], seed=SEED, workers=0)
    spent = dict.fromkeys(STAGES, 0.0)
    spent["wall"] = (time.perf_counter() - start) * 1e3
    for event in trace.events():
        stage = event.path.removeprefix("balanced_extract/")
        if stage in STAGES:
            spent[stage] += (event.end - event.start) * 1e3
    return spent


def main() -> None:
    ctx = Context(seed=SEED, seconds=0.0, size=SIZE, work=Path("."),
                  trace=False)
    graph = planted_graph(ctx)
    one_pass(graph)  # lazy imports, SciPy
    passes = [one_pass(graph) for _ in range(REPEATS)]
    for stage in STAGES + ("wall",):
        ms = float(np.median([p[stage] for p in passes]))
        print(f"{stage:>10}: {ms:7.2f} ms per pass")
    print(f"({REPEATS} passes, median per row)")


if __name__ == "__main__":
    main()
