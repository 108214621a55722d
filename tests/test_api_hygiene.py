"""API hygiene: every public item is documented and exported coherently.

These meta-tests keep the library adoptable: ``__all__`` lists resolve,
every public function/class/method carries a docstring, and the
top-level namespace re-exports what the README promises.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.errors",
    "repro.rng",
    "repro.viz",
    "repro.cli",
    "repro.graph",
    "repro.graph.csr",
    "repro.graph.build",
    "repro.graph.components",
    "repro.graph.datasets",
    "repro.graph.stats",
    "repro.graph.generators",
    "repro.graph.io",
    "repro.graph.io_formats",
    "repro.graph.store",
    "repro.graph.subgraph",
    "repro.graph.validation",
    "repro.trees",
    "repro.trees.tree",
    "repro.trees.bfs",
    "repro.trees.degree_aware",
    "repro.trees.dfs",
    "repro.trees.random_tree",
    "repro.trees.sampler",
    "repro.trees.batched",
    "repro.trees.swap_chain",
    "repro.trees.enumeration",
    "repro.trees.properties",
    "repro.core",
    "repro.core.labeling",
    "repro.core.labeling_parallel",
    "repro.core.adjacency",
    "repro.core.cycles",
    "repro.core.cycles_vectorized",
    "repro.core.parity_batch",
    "repro.core.balancer",
    "repro.core.baseline",
    "repro.core.incremental",
    "repro.core.state",
    "repro.core.trace",
    "repro.core.verify",
    "repro.harary",
    "repro.harary.bipartition",
    "repro.harary.cuts",
    "repro.cloud",
    "repro.cloud.branch_bound",
    "repro.cloud.checkpoint",
    "repro.cloud.cloud",
    "repro.cloud.convergence",
    "repro.cloud.export",
    "repro.cloud.frustration",
    "repro.cloud.metrics",
    "repro.cloud.nearest",
    "repro.parallel",
    "repro.parallel.workload",
    "repro.parallel.schedule",
    "repro.parallel.machine",
    "repro.parallel.simgpu",
    "repro.parallel.engine",
    "repro.parallel.pool",
    "repro.parallel.supervisor",
    "repro.parallel.mpi_model",
    "repro.balanced",
    "repro.balanced.extract",
    "repro.balanced.runner",
    "repro.balanced.seeds",
    "repro.balanced.tolerance",
    "repro.analysis",
    "repro.analysis.spectral",
    "repro.analysis.election",
    "repro.analysis.consensus",
    "repro.analysis.sensitivity",
    "repro.perf",
    "repro.perf.compat",
    "repro.perf.memory",
    "repro.perf.report",
    "repro.perf.registry",
    "repro.perf.tracing",
    "repro.perf.tracectx",
    "repro.perf.flight",
    "repro.perf.export",
    "repro.perf.timeline",
    "repro.perf.trace_export",
    "repro.perf.journal",
    "repro.serve",
    "repro.serve.admission",
    "repro.serve.breaker",
    "repro.serve.growth",
    "repro.serve.handlers",
    "repro.serve.server",
    "repro.serve.state",
    "repro.util",
    "repro.util.arrays",
    "repro.util.faults",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring_and_all(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"
    assert hasattr(mod, "__all__"), f"{module_name} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    mod = importlib.import_module(module_name)
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # Only enforce for items defined in this package.
            if getattr(obj, "__module__", "").startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module_name}.{name} lacks a docstring"
                )
                if inspect.isclass(obj):
                    for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                        if mname.startswith("_"):
                            continue
                        if meth.__module__ and meth.__module__.startswith("repro"):
                            assert meth.__doc__ and meth.__doc__.strip(), (
                                f"{module_name}.{name}.{mname} lacks a docstring"
                            )


def test_no_missing_submodules_in_manifest():
    """Every repro submodule on disk is covered by the MODULES list."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        found.add(info.name)
    missing = found - set(MODULES)
    assert not missing, f"modules missing from the hygiene manifest: {sorted(missing)}"


def test_top_level_reexports():
    for name in (
        "balance",
        "balance_forest",
        "sample_cloud",
        "exact_cloud",
        "harary_bipartition",
        "SignedGraph",
        "TreeSampler",
        "IncrementalBalancer",
    ):
        assert hasattr(repro, name)


def test_import_loads_no_scipy():
    """SciPy is loaded by the spectral functions that use it, not by
    ``import repro``: campaigns, the CLI and pool workers never pay it."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro, repro.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
