"""Parallel execution layer: workload profiling, schedule simulators,
simulated CPU/GPU machine models, the campaign modeler, the multi-node
scaling model, and the self-healing campaign supervisor (retries,
timeouts, backoff, graceful degradation).
"""

from repro.parallel.workload import Workload, collect_workload
from repro.parallel.schedule import (
    makespan_bounds,
    makespan_dynamic,
    makespan_guided,
    makespan_static,
    validate_schedule,
)
from repro.parallel.machine import (
    OPENMP_MACHINE,
    SERIAL_MACHINE,
    CpuMachine,
    PhaseTimes,
)
from repro.parallel.simgpu import CUDA_MACHINE, GpuMachine
from repro.parallel.engine import (
    Machine,
    ModeledRun,
    measure_python_seconds,
    model_run,
    model_run_multi,
)
from repro.parallel.pool import sample_cloud_pool
from repro.parallel.supervisor import (
    FaultEvent,
    RetryPolicy,
    RunReport,
    run_supervised,
)
from repro.parallel.mpi_model import ClusterEstimate, ClusterModel

__all__ = [
    "Workload",
    "collect_workload",
    "makespan_dynamic",
    "makespan_static",
    "makespan_guided",
    "makespan_bounds",
    "validate_schedule",
    "CpuMachine",
    "GpuMachine",
    "PhaseTimes",
    "SERIAL_MACHINE",
    "OPENMP_MACHINE",
    "CUDA_MACHINE",
    "Machine",
    "ModeledRun",
    "model_run",
    "model_run_multi",
    "measure_python_seconds",
    "sample_cloud_pool",
    "RetryPolicy",
    "RunReport",
    "FaultEvent",
    "run_supervised",
    "ClusterModel",
    "ClusterEstimate",
]
