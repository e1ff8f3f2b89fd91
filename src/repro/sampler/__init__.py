"""The BGLS sampler: gate-by-gate sampling, baselines, sum-over-Cliffords,
cached Programs, pluggable serial and process-pooled executors."""

from .baseline import ExactDistributionSampler, QubitByQubitSimulator
from .executors import (
    Executor,
    ProcessPoolExecutor,
    ResultTransportError,
    SerialExecutor,
    TaskTimeoutError,
)
from .jobs import (
    JobCancelled,
    JobHandle,
    ResultExpired,
    SamplingService,
)
from .schedule import (
    ScheduledTask,
    estimate_cost,
    estimate_job_cost,
)
from .service import PoolManager, shared_pool_manager, shutdown_shared_pool
from .near_clifford import (
    act_on_near_clifford,
    count_non_clifford_gates,
    rotation_branch_weights,
    stabilizer_extent_circuit,
    stabilizer_extent_rz,
)
from .plan import ExecutionPlan, OpRecord, compile_plan
from .result_planes import (
    PointPlanes,
    live_segment_names,
    plane_layout,
    release_leaked_segments,
    shm_available,
)
from .program import (
    Program,
    circuit_fingerprint,
    clear_program_cache,
    compiled_program,
    program_cache_info,
)
from .results import Result, plot_state_histogram
from .simulator import Simulator
from .stabilizer_noise import (
    act_on_near_clifford_with_pauli_noise,
    act_on_with_pauli_noise,
)

__all__ = [
    "Simulator",
    "ExecutionPlan",
    "OpRecord",
    "compile_plan",
    "Program",
    "circuit_fingerprint",
    "compiled_program",
    "program_cache_info",
    "clear_program_cache",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "TaskTimeoutError",
    "ResultTransportError",
    "ScheduledTask",
    "estimate_cost",
    "estimate_job_cost",
    "SamplingService",
    "JobHandle",
    "JobCancelled",
    "ResultExpired",
    "PoolManager",
    "shared_pool_manager",
    "shutdown_shared_pool",
    "PointPlanes",
    "plane_layout",
    "shm_available",
    "live_segment_names",
    "release_leaked_segments",
    "Result",
    "plot_state_histogram",
    "QubitByQubitSimulator",
    "ExactDistributionSampler",
    "act_on_near_clifford",
    "rotation_branch_weights",
    "stabilizer_extent_rz",
    "stabilizer_extent_circuit",
    "count_non_clifford_gates",
    "act_on_with_pauli_noise",
    "act_on_near_clifford_with_pauli_noise",
]
