"""Core value types for the roadside-unit offloading simulator.

Conventions used across the package: all times are absolute simulation
seconds stored as floats, task sizes are bits, bandwidth is Hz. A task's
deadline is the instant its vehicle leaves radio coverage, derived as
``arrival + remaining_in_range``; its latencies are derived from its start
time, so the task is the only record of the schedule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing
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

# Slop allowed before a server's new busy interval overlaps its last one.
_OVERLAP_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration object violates one or more of its invariants.

    ``violations`` holds one human-readable message per offending field so a
    caller (or a test) can see every problem at once instead of fixing them
    one at a time.
    """

    def __init__(self, violations: typing.Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LifecycleError(RuntimeError):
    """An illegal task status transition was attempted."""


@dataclass
class Task:
    """One offloaded computation job.

    The fields up to ``remaining_in_range`` are fixed at spawn time.
    ``comm_time`` is attached before simulation, and the engine sets
    ``start_proc`` and ``assigned_mec`` on assignment (None if dropped).
    The deadline and the latencies are derived, never stored.
    """

    id: int
    vehicle_id: int
    arrival: float
    size: int
    proc_time: float
    remaining_in_range: float
    start_proc: float | None = None
    comm_time: float | None = None
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

    @property
    def deadline(self) -> float:
        """The instant the vehicle leaves radio coverage."""
        return self.arrival + self.remaining_in_range

    # The latencies, None until the task starts: waiting, then plus
    # processing, then plus the upload and the result's return.
    @property
    def waiting(self) -> float | None:
        return None if self.start_proc is None else self.start_proc - self.arrival

    @property
    def comp_latency(self) -> float | None:
        return None if self.start_proc is None else self.proc_time + self.waiting

    @property
    def e2e_latency(self) -> float | None:
        return None if self.start_proc is None else self.comp_latency + 2.0 * self.comm_time

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
        # positional, in field order: the constructor's own attribute
        # stores, at a fraction of dataclasses.replace's cost; reading
        # __dict__ instead would materialise a dict in both objects
        return Task(
            self.id, self.vehicle_id, self.arrival, self.size, self.proc_time,
            self.remaining_in_range, self.start_proc, self.comm_time,
            self.assigned_mec, self.status,
        )

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        for name in ("deadline", "waiting", "comp_latency", "e2e_latency"):
            d[name] = getattr(self, name)
        d["status"] = self.status.value
        return d


@dataclass
class MecState:
    """Availability bookkeeping for one edge server.

    ``id`` is the server index, numbered 1..M. ``available_at`` is the end
    of the last busy interval (0.0 for a server that has never worked);
    the intervals themselves are its tasks' own start and processing times.
    """

    id: int
    available_at: float = 0.0

    def add_busy(self, start: float, end: float) -> None:
        """Book one processing interval, which must be non-empty and must
        not start before the server's last interval ended."""
        if end <= start:
            raise ValueError(f"server {self.id}: empty busy interval [{start}, {end}]")
        if start < self.available_at - _OVERLAP_TOL:
            raise ValueError(
                f"server {self.id}: interval starting {start} overlaps work "
                f"ending {self.available_at}"
            )
        self.available_at = end


# The bounds a config field may declare in its metadata: the words that
# name a fault, and the rule its value (for a tuple, each entry) must
# satisfy. A tuple field that declares a bound must also be non-empty.
POSITIVE = {"bound": ("must be positive", lambda v: v > 0)}
NON_NEGATIVE = {"bound": ("must not be negative", lambda v: v >= 0)}
UNIT = {"bound": ("must lie in [0, 1]", lambda v: 0 <= v <= 1)}
UNIT_NO_ZERO = {"bound": ("must lie in (0, 1]", lambda v: 0 < v <= 1)}
FINITE = {"bound": ("must be finite", math.isfinite)}
NON_EMPTY = {"bound": ("must be non-empty", lambda v: True)}

_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def fits(value: Any, hint: Any) -> bool:
    """Whether ``value`` has the type annotation ``hint`` names, tuples and
    dicts element by element. Numpy scalars count as int and float, a bool
    counts as neither, and NaN is not a number."""
    if hint is bool:
        return isinstance(value, bool)
    if hint in (int, float):
        abc = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, abc) and not isinstance(value, bool) and value == value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        return isinstance(value, dict) and all(
            fits(k, args[0]) and fits(v, args[1]) for k, v in value.items()
        )
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(fits, value, args))
    return isinstance(value, hint)


_type_hints = functools.cache(typing.get_type_hints)


def field_faults(obj: Any) -> dict[str, str]:
    """The fields of the config dataclass ``obj`` whose value does not fit
    the field's annotation, or breaks the bound its metadata declares,
    each mapped to one message that names the field by its JSON key."""
    hints = _type_hints(type(obj))
    faults = {}
    for f in dataclasses.fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if not fits(value, hint):
            fault = f"must be {_KINDS.get(hint, hint)}"
        else:
            fault = _bound_fault(value, f.metadata.get("bound"))
        if fault:
            faults[f.name] = f"{f.metadata.get('key', f.name)} {fault}, got {value!r}"
    return faults


def _bound_fault(value: Any, bound: tuple[str, Any] | None) -> str | None:
    if bound is None:
        return None
    words, holds = bound
    if not isinstance(value, tuple):
        return None if holds(value) else words
    if not value:
        return "must be non-empty"
    return None if all(map(holds, value)) else f"entries {words}"


def check_fields(obj: Any, faults: dict[str, str] | None = None, *cross: str) -> None:
    """Raise one ConfigError naming every field fault of ``obj`` (``faults``,
    when the caller has them already) and every cross-field fault in
    ``cross``."""
    faults = field_faults(obj) if faults is None else faults
    if faults or cross:
        raise ConfigError([*faults.values(), *cross])


@dataclass
class ChannelParams:
    """Radio parameters shared by every vehicle-to-RSU link.

    The achievable rate of a link granted bandwidth b is
    ``b * log2(1 + tx_power * channel_gain / noise_density)``. The defaults
    put the SNR factor at exactly 1 so a 20 MHz grant moves 20 Mbit/s.
    """

    bandwidth_max: float = field(default=20e6, metadata=POSITIVE)
    tx_power: float = field(default=1.0, metadata=POSITIVE)
    channel_gain: float = field(default=1.0, metadata=POSITIVE)
    noise_density: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def snr(self) -> float:
        return self.tx_power * self.channel_gain / self.noise_density


@dataclass
class SimConfig:
    """Top-level simulation knobs.

    ``lambda_weight`` is the latency-vs-drops weight of the scheduling
    objective (serialized under the JSON key "lambda"). ``window_cap`` is
    the maximum number of queued tasks an RL state vector exposes, the
    cap every policy trained under the config is built with; heuristic
    schedulers see the whole queue. ``num_mecs`` and ``window_cap`` are
    the encoder contract's shape (``ExperimentConfig.encoder``).
    ``charge_exec_time`` makes the engine add each scheduler invocation's
    execution time to the simulation clock, so slow decision-making
    degrades the schedule it produces. No runner reads ``num_vehicles``
    or ``rng_seed``: density and seed come from ``run_cell``'s arguments
    (``--vehicles``, ``--seed``) and from ``train_vehicles``. The
    acceptance gates still build them.
    """

    num_mecs: int = field(default=2, metadata=POSITIVE)
    lambda_weight: float = field(default=0.4, metadata={"key": "lambda", **UNIT})
    num_vehicles: int = field(default=50, metadata=POSITIVE)
    tasks_per_vehicle: int = field(default=1, metadata=POSITIVE)
    rng_seed: int = 1
    window_cap: int = field(default=16, metadata=POSITIVE)
    charge_exec_time: bool = True

    def __post_init__(self) -> None:
        check_fields(self)


def read_json(path: str, fault: typing.Callable[[str], Exception] = ValueError) -> Any:
    """The JSON document at ``path``. A file that is not JSON raises
    ``fault("{path}: not JSON: {reason}")``, chained to the parse error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise fault(f"{path}: not JSON: {exc}") from exc


def dumps(obj: Any) -> str:
    """Canonical JSON used for golden-file comparisons: sorted keys, no
    whitespace variation, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
