"""Repository hygiene: generated artifacts must never be committed.

A stray ``scripts/__pycache__/`` once rode along on disk; bytecode in
the index would poison every fresh clone (stale ``.pyc`` files shadow
edited sources on some importers) and bloat diffs, so this is a test,
not a review convention.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path fragments that mark a file as generated, never source.
FORBIDDEN_FRAGMENTS = ("__pycache__", ".pyc", ".pyo", ".egg-info")


def _tracked_files() -> list[str]:
    out = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files"],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_no_tracked_bytecode_or_caches():
    offenders = [
        path
        for path in _tracked_files()
        if any(fragment in path for fragment in FORBIDDEN_FRAGMENTS)
    ]
    assert not offenders, (
        "generated artifacts are tracked by git (remove with "
        f"'git rm -r --cached'): {offenders}"
    )


def test_gitignore_covers_bytecode():
    ignored = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__" in ignored


def test_process_pools_only_in_the_executor():
    """Every process pool runs on the one block executor: a second
    ``ProcessPoolExecutor`` would fork its own completion, salvage and
    observability code."""
    src = REPO_ROOT / "src"
    owners = sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for path in src.rglob("*.py")
        if "ProcessPoolExecutor(" in path.read_text(encoding="utf-8")
    )
    assert owners == ["src/repro/parallel/supervisor.py"]


def test_campaigns_take_no_kernel():
    """Walk, lockstep and parity reach the same balanced state on a
    tree, so no campaign entry point takes a cycle kernel and campaign
    metadata records none."""
    import dataclasses
    import inspect

    from repro.analysis.consensus import analyze_consensus
    from repro.cloud.checkpoint import (
        CampaignMeta,
        resume_cloud,
        validate_campaign,
    )
    from repro.cloud.cloud import balanced_states, sample_cloud
    from repro.parallel.pool import CampaignTask, sample_cloud_pool
    from repro.parallel.supervisor import run_supervised
    from repro.serve.growth import GrowthWorker
    from repro.serve.server import ServeConfig

    entry_points = (
        balanced_states, sample_cloud, resume_cloud, validate_campaign,
        sample_cloud_pool, run_supervised, GrowthWorker, ServeConfig,
        analyze_consensus,
    )
    offenders = [
        fn.__name__
        for fn in entry_points
        if "kernel" in inspect.signature(fn).parameters
    ]
    assert not offenders
    for record in (CampaignMeta, CampaignTask):
        assert "kernel" not in {f.name for f in dataclasses.fields(record)}


def test_one_ingest_loop_caller():
    """Every campaign folds its states through one block task: a second
    caller of ``ingest_states`` would be a second campaign driver with
    its own checkpoint and salvage code."""
    import ast

    callers = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            if not isinstance(owner, (ast.ClassDef, ast.FunctionDef)):
                continue
            for node in ast.walk(owner):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "ingest_states"
                    and owner.name != "__call__"
                ):
                    callers.append(owner.name)
    assert callers == ["CampaignTask"]


def test_add_result_callers():
    """States fold into a cloud through the block task's chunked fold.
    ``add_result``, the one-state fold, keeps only the callers that
    need a per-tree ``BalanceResult``."""
    import ast

    allowed = {
        # The enumeration of all spanning trees: no sampler to fold
        # from, and the exact cloud is the oracle the samplers meet.
        "exact_cloud": "src/repro/cloud/cloud.py",
        # The sweeps read each tree's per-cycle kernel statistics
        # (collect_stats), which only the per-tree kernel reports.
        "_measure": "src/repro/analysis/sensitivity.py",
    }
    callers = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.FunctionDef):
                continue
            for node in ast.walk(owner):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "add_result"
                ):
                    callers[owner.name] = (
                        path.relative_to(REPO_ROOT).as_posix()
                    )
    assert callers == allowed


#: Modules that no import reaches, each with the reason it stays.
UNIMPORTED_BY_DESIGN = {
    "repro.__main__": "``python -m repro`` runs it; nothing imports it",
    "repro.harary.cuts": (
        "``verify_cut`` is the Harary-cut oracle of "
        "tests/test_invariants.py and tests/test_stress.py"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_has_a_user():
    """Every module under ``src/repro`` is imported by the program, an
    example, a paper benchmark, the perf benchmark or a script; tests
    alone do not keep a module.  A package ``__init__`` re-export does
    not count as a use: ``from repro.cloud import sample_cloud`` uses
    the module that defines ``sample_cloud``."""
    import ast

    src = REPO_ROOT / "src" / "repro"
    files = {_module_name(path): path for path in src.rglob("*.py")}
    packages = {
        name for name, path in files.items() if path.name == "__init__.py"
    }

    def defining_module(module: str, name: str) -> str:
        if f"{module}.{name}" in files:
            return f"{module}.{name}"
        if module in packages:
            tree = ast.parse(files[module].read_text(encoding="utf-8"))
            for node in tree.body:
                if not isinstance(node, ast.ImportFrom):
                    continue
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return defining_module(node.module, alias.name)
        return module

    users = [
        path
        for root in ("src", "examples", "benchmarks", "perfbench", "scripts")
        for path in (REPO_ROOT / root).rglob("*.py")
        if not (root == "src" and path.name == "__init__.py")
    ]
    imported = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(
                    defining_module(node.module, alias.name)
                    for alias in node.names
                )
    unused = sorted(set(files) - packages - imported)
    assert unused == sorted(UNIMPORTED_BY_DESIGN)
