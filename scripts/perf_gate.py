#!/usr/bin/env python3
"""Perf gate: paired benchmark runs of a base checkout against this one.

    python scripts/perf_gate.py BASE_CHECKOUT

For every workload in ``BENCHMARK.json``, runs ``perfbench/run.py
--workload W --seed SEED --seconds 2 --smoke`` ``PAIRS`` times in each
checkout, one pair at a time, base and head taking turns to run first;
each run is a fresh process.  No baseline is committed: the base
commit is measured on the same host, seconds apart, so host speed
cancels out of the comparison.

The gate fails (exit 1) when any run reports ``correct`` other than
true or ``failed`` other than 0, or when an end-to-end metric got
worse, in its ``better`` direction, on both counts:

* every head run is worse than every base run, so the shift exceeds
  the spread both sides measured;
* the head median differs from the base median by more than the
  metric's ``bound`` in ``BENCHMARK.json``, as a share of the base
  median.

A metric whose base runs all agree up to float rounding (``kept_frac``
at a fixed seed) fails when every head run is worse by more than that
rounding, however small the shift: a deterministic metric moves in
every run or in none.  ``serve_mixed``'s ``kept_frac`` depends on how
far the daemon grew, so its base runs can agree by chance while head
runs scatter; one worse head run is not a failure.  Names, directions
and bounds are read from ``BENCHMARK.json``; a run that reports a
metric it does not list, or lacks one it lists, exits 2.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 5
SECONDS = 2
#: Relative spread that still counts as equal: a mean over a different
#: number of identical calls can differ in its last bits.
EXACT = 1e-9


def run_once(checkout: Path, workload: str) -> dict:
    """One smoke run of *workload* in *checkout*: its JSON result line,
    or an incorrect stand-in when the run did not produce one."""
    cmd = [
        sys.executable,
        str(checkout / "perfbench" / "run.py"),
        *("--workload", workload, "--seed", str(SEED)),
        *("--seconds", str(SECONDS), "--smoke"),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    sys.stderr.write(proc.stderr[-2000:])
    error = f"exit {proc.returncode}"
    return {"correct": False, "failed": None, "metrics": {}, "error": error}


def worse(a: float, b: float, better: str, slack: float) -> bool:
    """Whether *a* is worse than *b* by more than *slack* in the
    direction *better*."""
    return a > b + slack if better == "lower" else a < b - slack


def compare(base_runs: list, head_runs: list, spec: dict) -> list:
    """Judge one workload's runs.  Returns ``(text, failed)`` pairs:
    one per incorrect run, else one per end-to-end metric."""
    verdicts = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs):
            if run.get("correct") is not True or run.get("failed") != 0:
                text = (
                    f"{side} run {i}: correct={run.get('correct')} "
                    f"failed={run.get('failed')} {run.get('error', '')}"
                )
                verdicts.append((text.rstrip(), True))
    if verdicts:
        return verdicts
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    for run in base_runs + head_runs:
        odd = sorted(run["metrics"].keys() ^ metrics.keys())
        if odd:
            print(f"error: {odd} not both run and in BENCHMARK.json", file=sys.stderr)
            raise SystemExit(2)
    for name, entry in metrics.items():
        better, bound = entry["better"], entry["bound"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        base_mid, head_mid = statistics.median(base), statistics.median(head)
        if base_mid:
            change = (head_mid - base_mid) / abs(base_mid)
        else:
            change = 0.0 if head_mid == base_mid else float("inf")
        exact = EXACT * abs(base_mid)
        separated = all(worse(h, b, better, exact) for h in head for b in base)
        if max(base) - min(base) <= exact:
            failed, rule = separated, "all runs worse (base constant)"
        else:
            failed = separated and abs(change) > bound
            rule = f"all runs worse and {bound:.0%}"
        text = (
            f"{name:<20s} base {base_mid:>10.5g}  head {head_mid:>10.5g} "
            f"{change:>+7.1%} {entry['unit']:<5s} fails on {rule}"
        )
        verdicts.append((text, failed))
    return verdicts


def main(argv: list) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "perfbench" / "run.py").is_file():
        print(__doc__, file=sys.stderr)
        print("error: BASE_CHECKOUT holds no perfbench/run.py", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs: dict = {"base": [], "head": []}
        for pair in range(PAIRS):
            sides = [("base", base), ("head", ROOT)]
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_once(checkout, workload))
        print(f"{workload}: {PAIRS} base and {PAIRS} head runs, seed {SEED}")
        for text, failed in compare(runs["base"], runs["head"], spec):
            print(f"  {'FAIL' if failed else 'ok  '} {text}", flush=True)
            failures += failed
    verdict = "FAILED" if failures else "passed"
    print(f"perf gate {verdict}: {failures} failing checks against {base}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
