"""Time and size the four ingest stages of a text graph.

Every ``repro`` command reads a text graph and keeps its largest
component.  This prints, for each input, the wall time (best of
``--repeats``) and the tracemalloc peak of each stage:

* parse      -- text file to ``(u, v, w)`` arrays (``read_edgelist``
                with its builder call stubbed out);
* build      -- ``from_arrays``: dedup and CSR assembly;
* components -- ``connected_components``;
* largest    -- ``largest_connected_component`` (labels included).

Inputs: perfbench's ER 4,000 / 20,000 campaign graph, its 2 x 4,000
planted partition, ``A*_Book`` at scale 0.05 and a 200,000-vertex path
with sorted ids.  The stages only use public names, so the script also
measures an older checkout::

    PYTHONPATH=src python scripts/ingest_bench.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/ingest_bench.py
"""

from __future__ import annotations

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import repro.graph.io as graph_io
from repro.graph import datasets
from repro.graph.build import from_arrays
from repro.graph.components import (
    connected_components,
    largest_connected_component,
)
from repro.graph.generators import (
    ensure_connected,
    erdos_renyi_signed,
    planted_partition_signed,
)


def inputs():
    er = ensure_connected(erdos_renyi_signed(4000, 20000, negative_fraction=0.3,
                                             seed=1), seed=1)
    planted = ensure_connected(
        planted_partition_signed([4000, 4000], intra_degree=6.0,
                                 inter_degree=2.0, flip_noise=0.10, seed=1),
        seed=1)
    path = np.arange(200_000)
    yield "ER 4k / 20k", largest_connected_component(er)[0]
    yield "planted 2 x 4,000", planted
    yield "A*_Book, scale 0.05", datasets.load("A*_Book", scale=0.05)
    yield "path, 200k sorted ids", from_arrays(path[:-1], path[1:],
                                               np.ones(len(path) - 1))


def parse(path):
    with mock.patch.object(graph_io, "from_arrays", lambda *a, **k: a):
        return graph_io.read_edgelist(path)


def measure(fn, repeats):
    """Best wall of *repeats* calls, then one call's tracemalloc peak."""
    best = min(_wall(fn) for _ in range(repeats))
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best, peak


def _wall(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    print("| input | n / m | stage | wall | ns per edge | peak |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for name, graph in inputs():
            text = Path(tmp) / "graph.txt"
            graph_io.write_edgelist(graph, text)
            u, v, w = parse(text)
            built = from_arrays(u, v, w)
            stages = {
                "parse": lambda: parse(text),
                "build": lambda: from_arrays(u, v, w),
                "components": lambda: connected_components(built),
                "largest": lambda: largest_connected_component(built),
            }
            size = f"{built.num_vertices:,} / {built.num_edges:,}"
            for stage, fn in stages.items():
                wall, peak = measure(fn, args.repeats)
                print(f"| {name} | {size} | {stage} | {wall * 1e3:.1f} ms | "
                      f"{wall * 1e9 / max(built.num_edges, 1):.0f} | "
                      f"{peak / 2**20:.1f} MiB |")


if __name__ == "__main__":
    main()
