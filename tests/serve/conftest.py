"""Shared helpers for the serve-layer tests: an in-process daemon.

``daemon()`` runs :func:`repro.serve.run_server` on a worker thread
with an injected stop event (no signals involved), waits until the
listener is accepting, and guarantees a clean stop + join on exit —
a hung drain surfaces as a test failure, not a wedged suite.
"""

from __future__ import annotations

import contextlib
import http.client
import threading
import time
from typing import Iterator, Optional, Tuple

import pytest

from repro.perf.registry import reset_global_registry
from repro.serve import ServeConfig, run_server
from tests.conftest import make_connected_signed


class DaemonHandle:
    """A running in-process daemon plus a tiny HTTP client."""

    def __init__(self, port: int, stop: threading.Event, thread: threading.Thread):
        self.port = port
        self.stop = stop
        self.thread = thread
        self.exit_code: Optional[int] = None

    def request(
        self, path: str, headers: Optional[dict] = None, timeout: float = 10.0
    ) -> Tuple[int, dict, bytes]:
        """GET *path*; returns (status, headers, body)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def wait_ready(self, budget: float = 20.0) -> None:
        """Poll /readyz until 200 (daemon warmed up) or fail."""
        limit = time.monotonic() + budget
        while time.monotonic() < limit:
            with contextlib.suppress(OSError):
                status, _, _ = self.request("/readyz", timeout=2.0)
                if status == 200:
                    return
            time.sleep(0.02)
        pytest.fail("daemon never became ready")

    def wait_states(self, count: int, budget: float = 30.0) -> int:
        """Poll /snapshot until at least *count* states are published;
        returns how many polls were answered (each one a query the daemon
        counts, just after it has sent the answer)."""
        import json

        limit = time.monotonic() + budget
        polls = 0
        while time.monotonic() < limit:
            with contextlib.suppress(OSError):
                status, _, body = self.request("/snapshot", timeout=2.0)
                polls += 1
                if status == 200 and json.loads(body)["states"] >= count:
                    return polls
            time.sleep(0.02)
        pytest.fail(f"daemon never reached {count} states")


@contextlib.contextmanager
def daemon(graph=None, **config_kwargs) -> Iterator[DaemonHandle]:
    """Run an in-process daemon for the duration of the block."""
    if graph is None:
        graph = make_connected_signed(20, 25, seed=11)
    reset_global_registry()
    config = ServeConfig(port=0, **config_kwargs)
    stop = threading.Event()
    ready = threading.Event()
    box: dict = {}

    def _run() -> None:
        box["exit"] = run_server(
            graph,
            config,
            stop_event=stop,
            ready_callback=lambda port: (box.__setitem__("port", port),
                                         ready.set()),
        )

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert ready.wait(30), "daemon never started listening"
    handle = DaemonHandle(box["port"], stop, thread)
    try:
        yield handle
    finally:
        stop.set()
        thread.join(30)
        assert not thread.is_alive(), "daemon failed to drain and exit"
        handle.exit_code = box.get("exit")
