"""Discrete-event simulator for deadline-bound task offloading at a
roadside compute site, with a pluggable scheduler suite: an offline
swarm optimizer, a per-window swarm search, two trained policies, and
two queue-order baselines."""

from .channel import ChannelParams, allocate_bandwidth, attach_comm_times, comm_time, rate
from .config import (
    ExperimentConfig,
    cross_validate,
    default_config,
    load_config,
    save_config,
)
from .domain import (
    ConfigError,
    LifecycleError,
    MecState,
    SimConfig,
    Task,
    TaskStatus,
)
from .engine import (
    DecisionWindow,
    EpisodeResult,
    Scheduler,
    SchedulingProtocolError,
    objective,
    run_episode,
)
from .experiments import (
    ALGO_TAGS,
    MetricsReport,
    RunRow,
    run_cell,
    run_matrix,
)
from .mobility import (
    ScenarioGeometry,
    Trace,
    WorkloadModel,
    generate_trace,
    ingest_trace,
    spawn_tasks,
)

__version__ = "0.1.0"

__all__ = [
    "ALGO_TAGS",
    "ChannelParams",
    "ConfigError",
    "DecisionWindow",
    "EpisodeResult",
    "ExperimentConfig",
    "LifecycleError",
    "MecState",
    "MetricsReport",
    "RunRow",
    "ScenarioGeometry",
    "Scheduler",
    "SchedulingProtocolError",
    "SimConfig",
    "Task",
    "TaskStatus",
    "Trace",
    "WorkloadModel",
    "allocate_bandwidth",
    "attach_comm_times",
    "comm_time",
    "cross_validate",
    "default_config",
    "generate_trace",
    "ingest_trace",
    "load_config",
    "objective",
    "rate",
    "run_cell",
    "run_episode",
    "run_matrix",
    "save_config",
    "spawn_tasks",
    "__version__",
]
