"""Tests for the CI perf gate's rule (``scripts/perf_gate.py``):
``compare`` judges synthetic base and head runs shaped like the JSON
result line of ``perfbench/run.py``; nothing is benchmarked here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "kept_frac", "unit": "ratio", "better": "higher", "bound": 0.1},
]}
STEADY = {"ops_per_s": 1000.0, "p50_ms": 4.0, "kept_frac": 0.65}


def runs(values=STEADY, spread=(0.98, 0.99, 1.0, 1.01, 1.02), *,
         scale=None, correct=True, failed=0):
    """Five runs: every timed metric of *values* times each factor of
    *spread* (and of *scale*), ``kept_frac`` held exact."""
    scale = scale or {}
    out = []
    for factor in spread:
        metrics = {}
        for name, value in values.items():
            if name != "kept_frac":
                value *= factor * scale.get(name, 1.0)
            else:
                value *= scale.get(name, 1.0)
            metrics[name] = {"value": value, "unit": "x"}
        out.append({"correct": correct, "attempted": 10, "failed": failed,
                    "metrics": metrics})
    return out


def failures(base, head, spec=SPEC):
    return [text for text, failed in gate.compare(base, head, spec) if failed]


def test_same_runs_pass():
    assert failures(runs(), runs()) == []


@pytest.mark.parametrize("metric, factor", [
    ("ops_per_s", 0.5),   # higher is better: throughput halved
    ("p50_ms", 1.5),      # lower is better: latency up half
])
def test_separated_shift_past_bound_fails(metric, factor):
    bad = failures(runs(), runs(scale={metric: factor}))
    assert len(bad) == 1 and bad[0].startswith(metric)


@pytest.mark.parametrize("metric, factor", [("ops_per_s", 2.0),
                                            ("p50_ms", 0.5)])
def test_separated_gain_passes(metric, factor):
    assert failures(runs(), runs(scale={metric: factor})) == []


def test_overlapping_shift_past_bound_passes():
    # Medians 40% apart, but one base run is as slow as the head runs.
    base = runs(spread=(0.55, 0.99, 1.0, 1.01, 1.02))
    head = runs(spread=(0.56, 0.58, 0.6, 0.62, 0.64))
    assert failures(base, head) == []


def test_separated_shift_within_bound_passes():
    assert failures(runs(), runs(scale={"ops_per_s": 0.9})) == []


def test_constant_base_fails_on_any_worse_head():
    # A 0.015% drop, far inside the 10% bound.
    bad = failures(runs(), runs(scale={"kept_frac": 0.99985}))
    assert len(bad) == 1 and bad[0].startswith("kept_frac")


def test_constant_base_passes_one_scattered_worse_run():
    # serve_mixed's kept_frac depends on how far the daemon grew.
    head = runs()
    head[3]["metrics"]["kept_frac"]["value"] = 0.6499
    assert failures(runs(), head) == []


def test_base_equal_up_to_rounding_counts_as_constant():
    # A mean over a different number of identical calls.
    base = runs()
    base[1]["metrics"]["kept_frac"]["value"] = 0.65 * (1 + 1e-15)
    head = runs(scale={"kept_frac": 0.99})
    bad = failures(base, head)
    assert len(bad) == 1 and bad[0].startswith("kept_frac")
    assert failures(base, runs()) == []


def test_constant_base_passes_a_better_head():
    assert failures(runs(), runs(scale={"kept_frac": 1.1})) == []


@pytest.mark.parametrize("side", ["base", "head"])
@pytest.mark.parametrize("flaw", [{"correct": False}, {"failed": 2}])
def test_incorrect_run_fails(side, flaw):
    sides = {"base": runs(), "head": runs()}
    sides[side] = runs(**flaw)
    bad = failures(sides["base"], sides["head"])
    assert len(bad) == 5 and all(text.startswith(side) for text in bad)


def test_crashed_run_fails():
    crashed = {"correct": False, "failed": None, "metrics": {},
               "error": "exit 1"}
    bad = failures(runs(), runs()[:4] + [crashed])
    assert bad == ["head run 4: correct=False failed=None exit 1"]


def test_metric_missing_from_spec_exits_2():
    extra = dict(STEADY, queue_depth=3.0)
    with pytest.raises(SystemExit) as exit_info:
        gate.compare(runs(extra), runs(extra), SPEC)
    assert exit_info.value.code == 2


def test_metric_missing_from_runs_exits_2():
    partial = {"ops_per_s": 1000.0, "p50_ms": 4.0}
    with pytest.raises(SystemExit) as exit_info:
        gate.compare(runs(partial), runs(partial), SPEC)
    assert exit_info.value.code == 2


def test_reads_the_committed_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = {entry["name"]: 1.0 for entry in spec["end_to_end"]}
    assert failures(runs(steady), runs(steady), spec) == []
    worse = {entry["name"]: 0.5 if entry["better"] == "higher" else 2.0
             for entry in spec["end_to_end"]}
    bad = failures(runs(steady), runs(steady, scale=worse), spec)
    assert len(bad) == len(spec["end_to_end"])


def test_base_checkout_without_benchmark_exits_2(tmp_path):
    assert gate.main([str(tmp_path)]) == 2
    assert gate.main([]) == 2
