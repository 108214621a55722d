"""Native measurements: this library's own kernels, really timed.

The Serial/OpenMP/CUDA columns of Tables 2–3 are modeled (no such
hardware here); this companion bench reports what the *actual Python*
implementations achieve on this machine, per input: the lockstep and
parity kernels' measured throughput in fundamental cycles balanced per
second, next to the paper's CUDA throughput for perspective.  The
campaign column times the path ``repro cloud`` runs, trees included:
``sample_cloud`` states per second, one worker in this process, times
the m - n + 1 cycles each state balances.
"""

import math
import time

from repro.cloud import sample_cloud
from repro.core import balance
from repro.perf.report import TextTable, geomean
from repro.trees import TreeSampler

from benchmarks.conftest import LARGE_INPUTS, SMALL_INPUTS, dataset_lcc, save_table


def _throughput(graph, kernel: str, reps: int = 2) -> float:
    sampler = TreeSampler(graph, seed=0)
    trees = [sampler.tree(i) for i in range(reps)]
    start = time.perf_counter()
    for t in trees:
        labeling = "parallel" if kernel == "lockstep" else "none"
        balance(graph, t, kernel=kernel, labeling=labeling)
    elapsed = time.perf_counter() - start
    return graph.num_fundamental_cycles * reps / elapsed


def _campaign_throughput(graph, min_seconds: float = 0.5,
                         reps: int = 2) -> float:
    """Best of *reps* ``sample_cloud`` campaigns, each at least
    *min_seconds* long, in cycles balanced per second."""
    states = 4
    while True:
        best = math.inf
        for _ in range(reps):
            start = time.perf_counter()
            sample_cloud(graph, states, seed=0)
            best = min(best, time.perf_counter() - start)
        if best >= min_seconds:
            return graph.num_fundamental_cycles * states / best
        states = max(2 * states, math.ceil(states * 1.25 * min_seconds / best))


def _run():
    rows = []
    for name in SMALL_INPUTS + LARGE_INPUTS:
        g = dataset_lcc(name)
        rows.append(
            (
                name,
                g.num_fundamental_cycles,
                _throughput(g, "lockstep"),
                _throughput(g, "parity"),
                _campaign_throughput(g),
            )
        )
    return rows


def test_native_throughput(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = TextTable(
        "Native Python throughput (measured on this machine): millions of "
        "fundamental cycles balanced per second, per kernel, and for the "
        "sample_cloud campaign with its trees (measured, one core; "
        "paper's CUDA geomean on large inputs: 16.8 Mc/s on a Titan V)",
        ["input", "cycles/tree", "lockstep Mc/s", "parity Mc/s",
         "campaign Mc/s"],
    )
    lock, par, camp = [], [], []
    for name, cycles, th_lock, th_par, th_camp in rows:
        table.add_row(
            name, cycles, round(th_lock / 1e6, 3), round(th_par / 1e6, 3),
            round(th_camp / 1e6, 3),
        )
        lock.append(th_lock / 1e6)
        par.append(th_par / 1e6)
        camp.append(th_camp / 1e6)
    table.add_row("GEOMEAN", "-", round(geomean(lock), 3),
                  round(geomean(par), 3), round(geomean(camp), 3))
    save_table("native_throughput", table.render())

    # The vectorized Python kernels must beat the original code's
    # 0.065 Mc/s by a wide margin, and parity >= lockstep at geomean.
    assert geomean(lock) > 0.2
    assert geomean(par) > geomean(lock) * 0.8
