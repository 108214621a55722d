"""Crash-only frustration-cloud query daemon (``repro serve``).

The serve layer turns a packed signed graph plus a checkpointed cloud
campaign into a long-running HTTP query service that keeps growing its
cloud in the background:

* :mod:`repro.serve.state` — immutable query snapshots + atomic swap;
  each snapshot renders its own answers (point answers straight to
  bytes, whole-snapshot answers once per snapshot);
* :mod:`repro.serve.growth` — the background growth worker (supervised
  sampling rounds, per-round checkpoint + snapshot publish);
* :mod:`repro.serve.admission` — token-bucket admission control;
* :mod:`repro.serve.breaker` — p99 latency breaker shedding growth;
* :mod:`repro.serve.handlers` — deadlines + endpoint rendering;
* :mod:`repro.serve.server` — transport, crash-only boot, SIGTERM
  drain (:func:`run_server` is the entry the CLI calls).

The design is crash-only: the daemon has no clean-shutdown state to
load — every boot recovers from the checkpoint chain and journal, so a
``kill -9`` and a graceful drain converge on the same startup path,
and a recovered daemon serves byte-identical answers for the states it
recovered.
"""

from repro.serve.admission import TokenBucket
from repro.serve.breaker import CircuitBreaker
from repro.serve.growth import GrowthWorker
from repro.serve.handlers import Deadline, DeadlineExceeded
from repro.serve.server import FrustrationServer, ServeConfig, run_server
from repro.serve.state import QuerySnapshot, SnapshotStore, canonical_json

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FrustrationServer",
    "GrowthWorker",
    "QuerySnapshot",
    "ServeConfig",
    "SnapshotStore",
    "TokenBucket",
    "canonical_json",
    "run_server",
]
