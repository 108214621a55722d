"""Shared fixtures and helpers for the test suite — plus a minimal
per-test timeout shim used when the ``pytest-timeout`` plugin is not
installed (e.g. the offline dev container).

The fault-injection tests deliberately create hung worker processes;
a supervisor regression could otherwise wedge the whole suite.  CI
installs the real plugin, which honours the same ``timeout`` ini
setting and ``@pytest.mark.timeout`` marker; the shim below covers the
gap with ``signal.setitimer`` (main-thread SIGALRM, POSIX only) so the
cap holds everywhere.
"""

from __future__ import annotations

import signal
import sys
import threading

import numpy as np
import pytest

from repro.graph.build import from_arrays, from_edges
from repro.graph.csr import SignedGraph
from repro.perf.journal import get_sinks, install_sink, reset_sinks
from repro.rng import as_generator

try:
    import pytest_timeout as _pytest_timeout  # noqa: F401

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


class ShimTimeout(Exception):
    """Raised by the fallback timeout shim when a test overruns."""


def pytest_addoption(parser):
    if not _HAVE_TIMEOUT_PLUGIN:
        # Register the same ini key pytest-timeout owns, so the
        # `timeout = N` line in pyproject.toml is valid either way.
        parser.addini(
            "timeout",
            "per-test timeout in seconds (fallback shim; install "
            "pytest-timeout for the real thing)",
            default="0",
        )


def pytest_configure(config):
    if not _HAVE_TIMEOUT_PLUGIN:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock cap (fallback shim)",
        )


def _shim_timeout_seconds(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = 0.0 if _HAVE_TIMEOUT_PLUGIN else _shim_timeout_seconds(item)
    use_alarm = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        yield
        return

    def _expired(signum, frame):
        raise ShimTimeout(
            f"test exceeded the {seconds:g}s fallback timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _observability_state() -> dict:
    """The process-global observability state a test may borrow but
    must give back: the event sinks, the one install point of every
    recorder (journal, trace collector, flight recorder), and both
    crash hooks — plus the pool workers' parent-watch threads, which
    belong in workers only (one left here would end the test session
    with ``os._exit`` if the runner's parent went away)."""
    return {
        "event sinks": get_sinks(),
        "sys.excepthook": sys.excepthook,
        "threading.excepthook": threading.excepthook,
        "parent-watch threads": sum(
            t.name == "repro-parent-watch" for t in threading.enumerate()
        ),
    }


@pytest.fixture(autouse=True)
def _no_leaked_observability():
    """Fail any test that leaves different event sinks (journal, trace
    collector, flight recorder) or crash hooks than it found, or starts
    a parent-watch thread, then put the old ones back so the leak does
    not spread to later tests (a thread cannot be taken back)."""
    before = _observability_state()
    yield
    after = _observability_state()
    # Apart from the thread count, none of these define __eq__, so !=
    # compares identities (the sinks element by element).
    leaked = [name for name in before if after[name] != before[name]]
    if leaked:
        reset_sinks()
        for sink in before["event sinks"]:
            install_sink(sink)
        sys.excepthook = before["sys.excepthook"]
        threading.excepthook = before["threading.excepthook"]
        pytest.fail(f"test leaked process-global state: {', '.join(leaked)}")


def make_connected_signed(
    n: int,
    extra_edges: int,
    negative_fraction: float = 0.4,
    seed: int = 0,
) -> SignedGraph:
    """Random connected signed graph: a random spanning chain plus
    ``extra_edges`` random chords.  Connectivity is guaranteed by
    construction, so tests never need retry loops."""
    rng = as_generator(seed)
    perm = rng.permutation(n)
    chain_u = perm[:-1]
    chain_v = perm[1:]
    if extra_edges > 0:
        cu = rng.integers(0, n, size=extra_edges * 3)
        cv = rng.integers(0, n, size=extra_edges * 3)
        keep = cu != cv
        cu, cv = cu[keep][:extra_edges], cv[keep][:extra_edges]
    else:
        cu = np.empty(0, dtype=np.int64)
        cv = np.empty(0, dtype=np.int64)
    u = np.concatenate([chain_u, cu])
    v = np.concatenate([chain_v, cv])
    s = np.where(rng.random(len(u)) < negative_fraction, -1, 1)
    return from_arrays(u, v, s, num_vertices=n, dedup="first")


@pytest.fixture
def triangle() -> SignedGraph:
    """Positive triangle (balanced)."""
    return from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def neg_triangle() -> SignedGraph:
    """Triangle with one negative edge (unbalanced, Fr = 1)."""
    return from_edges([(0, 1, 1), (1, 2, 1), (0, 2, -1)])


@pytest.fixture
def medium_graph() -> SignedGraph:
    """~300-vertex connected signed graph for integration tests."""
    return make_connected_signed(300, 500, seed=42)


def make_hub_graph(n: int = 80) -> SignedGraph:
    """A hub-and-spoke graph with chords: exercises high max degree."""
    edges = []
    for v in range(1, n):
        edges.append((0, v, 1 if v % 3 else -1))
    for v in range(1, n - 1, 2):
        edges.append((v, v + 1, -1 if v % 5 == 0 else 1))
    return from_edges(edges, num_vertices=n)


@pytest.fixture
def skewed_graph() -> SignedGraph:
    return make_hub_graph()
