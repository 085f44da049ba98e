"""Core value types for the roadside-unit offloading simulator.

Conventions used across the package: all times are absolute simulation
seconds stored as floats, task sizes are bits, bandwidth is Hz. A task's
deadline is the instant its vehicle leaves radio coverage; ``deadline ==
arrival + remaining_in_range`` is kept redundantly and asserted on
construction so both forms can be used without re-deriving one from the
other.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class TaskStatus(str, Enum):
    """Lifecycle of a task at the roadside unit."""

    PENDING = "pending"
    COMPLETED = "completed"
    DROPPED = "dropped"


# Legal lifecycle moves. Completed and Dropped are terminal.
_TRANSITIONS = {
    TaskStatus.PENDING: {TaskStatus.COMPLETED, TaskStatus.DROPPED},
    TaskStatus.COMPLETED: frozenset(),
    TaskStatus.DROPPED: frozenset(),
}

# Slop allowed when checking redundant float fields for consistency.
_CONSISTENCY_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration object violates one or more of its invariants.

    ``violations`` holds one human-readable message per offending field so a
    caller (or a test) can see every problem at once instead of fixing them
    one at a time.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LifecycleError(RuntimeError):
    """An illegal task status transition was attempted."""


@dataclass
class Task:
    """One offloaded computation job.

    The fields up to ``remaining_in_range`` are fixed at spawn time. The
    rest start as None and are filled in by the simulation engine when the
    task is assigned; they stay None for dropped tasks.
    """

    id: int
    vehicle_id: int
    arrival: float
    size: int
    proc_time: float
    deadline: float
    remaining_in_range: float
    start_proc: float | None = None
    waiting: float | None = None
    comm_time: float | None = None
    comp_latency: float | None = None
    e2e_latency: float | None = None
    assigned_mec: int | None = None
    status: TaskStatus = TaskStatus.PENDING

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"task {self.id}: size must be positive, got {self.size}")
        if self.proc_time <= 0:
            raise ValueError(
                f"task {self.id}: proc_time must be positive, got {self.proc_time}"
            )
        if self.arrival < 0:
            raise ValueError(f"task {self.id}: arrival must be >= 0, got {self.arrival}")
        if self.remaining_in_range < 0:
            raise ValueError(
                f"task {self.id}: remaining_in_range must be >= 0, "
                f"got {self.remaining_in_range}"
            )
        expected = self.arrival + self.remaining_in_range
        if abs(self.deadline - expected) > _CONSISTENCY_TOL * max(1.0, abs(expected)):
            raise ValueError(
                f"task {self.id}: deadline {self.deadline} inconsistent with "
                f"arrival + remaining_in_range = {expected}"
            )

    def transition(self, new_status: TaskStatus) -> None:
        """Move to ``new_status``, enforcing the pending->completed /
        pending->dropped lifecycle."""
        if new_status not in _TRANSITIONS[self.status]:
            raise LifecycleError(
                f"task {self.id}: illegal transition {self.status.value} -> "
                f"{new_status.value}"
            )
        self.status = new_status

    def copy(self) -> "Task":
        return dataclasses.replace(self)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["status"] = self.status.value
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Task":
        d = dict(d)
        d["status"] = TaskStatus(d["status"])
        return cls(**d)


@dataclass
class MecState:
    """Availability bookkeeping for one edge server.

    ``id`` is the server index, numbered 1..M. ``available_at`` is the end
    of the last busy interval (0.0 for a server that has never worked).
    """

    id: int
    available_at: float = 0.0
    busy_intervals: list[tuple[float, float]] = field(default_factory=list)

    def add_busy(self, start: float, end: float) -> None:
        """Record one processing interval. Intervals must not overlap and
        must be appended in chronological order."""
        if end <= start:
            raise ValueError(f"server {self.id}: empty busy interval [{start}, {end}]")
        if start < self.available_at - _CONSISTENCY_TOL:
            raise ValueError(
                f"server {self.id}: interval starting {start} overlaps work "
                f"ending {self.available_at}"
            )
        self.busy_intervals.append((start, end))
        self.available_at = end

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "available_at": self.available_at,
            "busy_intervals": [list(iv) for iv in self.busy_intervals],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MecState":
        return cls(
            id=d["id"],
            available_at=d["available_at"],
            busy_intervals=[tuple(iv) for iv in d["busy_intervals"]],
        )


@dataclass
class ChannelParams:
    """Radio parameters shared by every vehicle-to-RSU link.

    The achievable rate of a link granted bandwidth b is
    ``b * log2(1 + tx_power * channel_gain / noise_density)``. The defaults
    put the SNR factor at exactly 1 so a 20 MHz grant moves 20 Mbit/s.
    """

    bandwidth_max: float = 20e6
    tx_power: float = 1.0
    channel_gain: float = 1.0
    noise_density: float = 1.0

    def __post_init__(self) -> None:
        violations = []
        if self.bandwidth_max <= 0:
            violations.append(f"bandwidth_max must be positive, got {self.bandwidth_max}")
        if self.tx_power <= 0:
            violations.append(f"tx_power must be positive, got {self.tx_power}")
        if self.channel_gain <= 0:
            violations.append(f"channel_gain must be positive, got {self.channel_gain}")
        if self.noise_density <= 0:
            violations.append(f"noise_density must be positive, got {self.noise_density}")
        if violations:
            raise ConfigError(violations)

    @property
    def snr(self) -> float:
        return self.tx_power * self.channel_gain / self.noise_density


@dataclass
class SimConfig:
    """Top-level simulation knobs.

    ``lambda_weight`` is the latency-vs-drops weight of the scheduling
    objective (serialized under the JSON key "lambda"). ``window_cap`` is
    the maximum number of queued tasks an RL state vector exposes;
    heuristic schedulers see the whole queue. ``charge_exec_time`` makes
    the engine add each scheduler invocation's execution time to the
    simulation clock, so slow decision-making degrades the schedule it
    produces.
    """

    num_mecs: int = 2
    lambda_weight: float = field(default=0.4, metadata={"key": "lambda"})
    num_vehicles: int = 50
    tasks_per_vehicle: int = 1
    rng_seed: int = 1
    window_cap: int = 16
    charge_exec_time: bool = True


def validate_config(cfg: SimConfig) -> SimConfig:
    """Check every SimConfig invariant, reporting all violations at once."""
    violations = []
    if not isinstance(cfg.num_mecs, int) or cfg.num_mecs < 1:
        violations.append(f"num_mecs must be an integer >= 1, got {cfg.num_mecs!r}")
    lam = cfg.lambda_weight
    if not isinstance(lam, (int, float)) or not (0.0 <= lam <= 1.0):
        violations.append(f"lambda must lie in [0, 1], got {lam!r}")
    if not isinstance(cfg.num_vehicles, int) or cfg.num_vehicles < 1:
        violations.append(f"num_vehicles must be an integer >= 1, got {cfg.num_vehicles!r}")
    if not isinstance(cfg.tasks_per_vehicle, int) or cfg.tasks_per_vehicle < 1:
        violations.append(
            f"tasks_per_vehicle must be an integer >= 1, got {cfg.tasks_per_vehicle!r}"
        )
    if not isinstance(cfg.window_cap, int) or cfg.window_cap < 1:
        violations.append(f"window_cap must be an integer >= 1, got {cfg.window_cap!r}")
    if not isinstance(cfg.rng_seed, int):
        violations.append(f"rng_seed must be an integer, got {cfg.rng_seed!r}")
    if violations:
        raise ConfigError(violations)
    return cfg


def dumps(obj: Any) -> str:
    """Canonical JSON used for golden-file comparisons: sorted keys, no
    whitespace variation, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
