"""Discrete-event engine for task offloading at one roadside unit.

Protocol. Tasks arrive at the RSU over time; M edge servers each process
one task at a time, non-preemptively. A task arriving while some server is
idle is assigned on the spot, with no scheduler involvement. Tasks arriving
while every server is busy queue up. Whenever a server frees and the queue
is non-empty, the engine builds a decision window: the queued tasks that
can still finish inside their vehicle's remaining coverage time form the
feasible set, the rest are dropped (server availability only grows, so a
task infeasible now is infeasible forever). The scheduler is invoked to
pick exactly one feasible task per invocation; the loop repeats while
feasible tasks and idle servers remain.

When ``charge_exec_time`` is on, each scheduler invocation's duration is
added to the simulation clock before the chosen task starts, so a slow
scheduler inflates every queued task's waiting time and can expire
marginal tasks, including the one it just picked (which is then dropped).

Event ties at one timestamp resolve server-release events before arrivals,
so a task arriving exactly when a server frees takes the idle-server path.

Cost. Every window pays this loop, so it spares the interpreter while it
does the protocol's IEEE operations in the same order. Arrival events are
heapified at once; ``heappop`` yields the same sorted order however the
heap was built. ``TaskStatus`` members are read once, at import: a member
read is a descriptor call. ``b if b > a else a`` stands for ``max(a, b)``,
which returns that same float, ties and signed zeros included.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Generator, Protocol, Sequence

from .channel import BandwidthEvent, attach_comm_times
from .domain import MecState, SimConfig, Task, TaskStatus

_MEC_FREE = 0
_ARRIVAL = 1
_PENDING, _COMPLETED, _DROPPED = TaskStatus.PENDING, TaskStatus.COMPLETED, TaskStatus.DROPPED
_TERMINAL = (_COMPLETED, _DROPPED)


class SchedulingProtocolError(RuntimeError):
    """A scheduler broke the engine contract (bad index, duration not >= 0)."""


@dataclass
class DecisionWindow:
    """One scheduler invocation's view of the queue.

    ``queued`` is the snapshot of waiting tasks considered at this window
    (size W); ``feasible`` the subset that can still meet its deadline if
    started at ``earliest_avail`` (size W_y), in arrival order. Tasks in
    ``queued`` but not in ``feasible`` have already been dropped by the
    time the scheduler sees the window.
    """

    index: int
    queued: list[Task]
    feasible: list[Task]
    earliest_avail: float


@dataclass
class WindowRecord:
    """Log line for one decision window."""

    index: int
    queue_size: int
    feasible_size: int
    duration: float = 0.0


@dataclass
class DecisionPoint:
    """What the engine hands a scheduler: the window, live server states
    (read-only by convention), and the current clock."""

    window: DecisionWindow
    mecs: list[MecState]
    now: float


@dataclass
class EpisodeResult:
    """Outcome of one simulated episode."""

    tasks: list[Task]
    windows: list[WindowRecord]
    bandwidth_events: list[BandwidthEvent] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def completed(self) -> list[Task]:
        return [t for t in self.tasks if t.status is _COMPLETED]

    @property
    def dropped(self) -> list[Task]:
        return [t for t in self.tasks if t.status is _DROPPED]

    @property
    def num_dropped(self) -> int:
        return len(self.dropped)

    @property
    def num_windows(self) -> int:
        """Windows in which the scheduler was actually invoked."""
        return sum(1 for w in self.windows if w.feasible_size >= 1)

    @property
    def total_decision_time(self) -> float:
        return math.fsum(w.duration for w in self.windows)

    def to_jsonl(self, path: str) -> None:
        """Dump one JSON record per task, then the window log."""
        with open(path, "w") as fh:
            for t in self.tasks:
                rec = {"kind": "task", **t.to_dict()}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            for w in self.windows:
                rec = {"kind": "window", **asdict(w)}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def objective(result: EpisodeResult, lambda_weight: float) -> float:
    """Weighted latency-sum plus drop-fraction score (lower is better).

    The scheduling objective weighs the sum of end-to-end latencies over
    the served tasks against the fraction of dropped tasks:

        lambda * sum(e2e latencies) + (1 - lambda) * drops / N

    The latency term is an unnormalized sum of seconds, so reports carry
    ``objective_normalized`` beside it as a dimension-free diagnostic; the
    raw form is the one optimizers minimize. The sum is ``math.fsum``,
    correctly rounded, so it does not depend on the order of the tasks.
    """
    lat = math.fsum(t.e2e_latency for t in result.completed)
    return _objective(result, lambda_weight, lat, result.num_dropped)


def _objective(
    result: EpisodeResult, lambda_weight: float, latency_sum: float, drops: int, normalized=False
) -> float:
    """Both objectives' one formula, from ``result``'s e2e sum and drop
    count: a caller that needs both reads each latency once."""
    n = result.num_tasks
    if n == 0:
        return 0.0
    scale = 1.0  # dividing by 1.0 is exact
    if normalized:
        max_deadline = max(t.deadline for t in result.tasks)
        scale = n * max_deadline if max_deadline > 0 else n
    return lambda_weight * latency_sum / scale + (1.0 - lambda_weight) * drops / n


class Scheduler(Protocol):
    """What the engine requires of a scheduling policy."""

    name: str

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        """Return an index into ``window.feasible``."""
        ...


def earliest_availability(mecs: Sequence[MecState]) -> tuple[int, float]:
    """(server id, availability) of the first server to become free.

    Ties go to the lowest server id, wherever it sits in ``mecs``.
    """
    if not mecs:
        raise ValueError("no servers")
    best_id, best_at = mecs[0].id, mecs[0].available_at
    for m in mecs:
        at = m.available_at
        if at < best_at or (at == best_at and m.id < best_id):
            best_id, best_at = m.id, at
    return best_id, best_at


def slack(task: Task) -> float:
    """Longest waiting time the task can absorb and still deliver its
    result before its vehicle leaves coverage."""
    if task.comm_time is None:
        raise ValueError(f"task {task.id} has no comm_time attached")
    return task.remaining_in_range - task.proc_time - task.comm_time


def is_feasible_at(task: Task, start: float) -> bool:
    """Can the task start processing at ``start`` and still make it?

    The boundary is inclusive: a result delivered exactly at the deadline
    counts.
    """
    return (start - task.arrival) <= slack(task)


def build_window(pending: list[Task], t_e_av: float, index: int = 0) -> DecisionWindow:
    """Form a decision window for the earliest availability ``t_e_av``.

    The snapshot takes every pending task: a task queues only while every
    server is busy past its arrival, and availabilities only grow, so each
    one arrived by ``t_e_av``. Members that cannot absorb the projected
    waiting time ``t_e_av - arrival`` are dropped on the spot and removed
    from ``pending`` (availability never decreases, so they could never
    become feasible later). Mutates ``pending``.
    """
    queued = pending[:]
    feasible = []
    for t in queued:
        # t arrived by t_e_av, so t_e_av is max(t_e_av, t.arrival), float for float
        if is_feasible_at(t, t_e_av):
            feasible.append(t)
        else:
            t.transition(_DROPPED)
    if len(feasible) < len(queued):
        # by status, not by value: list.remove would compare whole tasks
        pending[:] = [t for t in pending if t.status is _PENDING]
    return DecisionWindow(index, queued, feasible, t_e_av)


def assign(task: Task, mec: MecState, at: float | None = None) -> float | None:
    """Commit one task to one server, or drop it.

    Processing starts at ``max(mec.available_at, task.arrival)``, lifted
    to ``at`` when given (the instant a charged decision completed). If
    the task can still deliver from there, it completes: its start and
    server are recorded, the server is booked, and the instant the server
    frees again is returned. Otherwise the task is dropped, no timing
    field is set, the server is left untouched, and ``None`` is returned.
    """
    a = task.arrival
    start = a if a > mec.available_at else mec.available_at  # max(available_at, a)
    if at is not None and at > start:
        start = at
    if not is_feasible_at(task, start):
        task.transition(_DROPPED)
        return None
    task.transition(_COMPLETED)
    task.start_proc = start
    task.assigned_mec = mec.id
    mec.add_busy(start, start + task.proc_time)
    return start + task.proc_time


def episode_loop(
    tasks: list[Task], cfg: SimConfig
) -> Generator[DecisionPoint, tuple[int, float], EpisodeResult]:
    """Run one episode, yielding at every scheduler invocation.

    The caller answers each yielded DecisionPoint with ``(choice,
    duration)``: the index of the chosen task in ``window.feasible`` and
    the decision's execution time in seconds. ``duration`` is recorded in
    the window log. Charging execution time only moves the clock: every
    placement goes through ``assign`` at the clock, and without a charge
    the clock already equals the start the placement would get. Tasks
    must arrive with ``comm_time`` attached and must all be Pending; they
    are mutated in place. The generator's return value is the
    EpisodeResult.
    """
    mecs = [MecState(j + 1) for j in range(cfg.num_mecs)]
    by_task_id: dict[int, Task] = {}
    events: list[tuple[float, int, int]] = []
    for t in tasks:
        if t.status is not _PENDING:
            raise ValueError(f"task {t.id} is {t.status.value}, expected pending")
        if t.comm_time is None:
            raise ValueError(f"task {t.id} has no comm_time attached")
        if t.id in by_task_id:
            raise ValueError(f"duplicate task id {t.id}")
        by_task_id[t.id] = t
        events.append((t.arrival, _ARRIVAL, t.id))
    heapq.heapify(events)  # pops in the same sorted order as pushed events

    pending: list[Task] = []
    windows: list[WindowRecord] = []
    clock = 0.0
    window_index = 0

    def place(task: Task, sid: int) -> None:
        free_at = assign(task, mecs[sid - 1], at=clock)
        if free_at is not None:
            heapq.heappush(events, (free_at, _MEC_FREE, sid))

    while events:
        ev_time, kind, key = heapq.heappop(events)
        if ev_time > clock:  # max(clock, ev_time)
            clock = ev_time

        if kind == _ARRIVAL:
            task = by_task_id[key]
            sid, avail = earliest_availability(mecs)
            if avail > clock:
                pending.append(task)
            else:
                # Idle server: assign on arrival, no scheduler involved.
                place(task, sid)
            continue

        # A server released its task; drain the queue while anything is
        # both feasible and startable.
        while pending:
            sid, t_e_av = earliest_availability(mecs)
            if t_e_av > clock:
                break
            window_index += 1
            window = build_window(pending, t_e_av, window_index)
            feasible = window.feasible
            record = WindowRecord(window_index, len(window.queued), len(feasible))
            windows.append(record)
            if not feasible:
                # everything in the snapshot was dropped by the filter;
                # pending shrank, so the loop makes progress
                continue
            choice, duration = yield DecisionPoint(window, mecs, clock)
            if not isinstance(choice, int) or not (0 <= choice < len(feasible)):
                raise SchedulingProtocolError(
                    f"scheduler returned {choice!r} for a window of "
                    f"{len(feasible)} feasible tasks"
                )
            if not duration >= 0:
                raise SchedulingProtocolError(f"decision duration must be >= 0, got {duration}")
            record.duration = duration
            if cfg.charge_exec_time and duration > 0:
                clock += duration
            task = feasible[choice]
            for i, t in enumerate(pending):  # by identity, not list.remove's value test
                if t is task:
                    del pending[i]
                    break
            # a charged decision can take long enough to expire its pick
            place(task, sid)

    if pending:
        raise RuntimeError(
            f"engine finished with {len(pending)} tasks still pending"
        )
    for t in tasks:
        if t.status not in _TERMINAL:
            raise RuntimeError(f"task {t.id} ended in state {t.status.value}")

    return EpisodeResult(tasks=list(tasks), windows=windows)


@dataclass(frozen=True)
class PreparedEpisode:
    """A task list made ready to simulate, once.

    ``tasks`` are pending tasks in id order with comm times attached, and
    ``bandwidth_events`` is the sharing log that attaching them wrote
    (empty when its holder keeps none). Both are read-only: every run,
    replay and search on the list reads them, and a task's position is
    its index in ``tasks``.
    """

    tasks: tuple[Task, ...]
    bandwidth_events: tuple[BandwidthEvent, ...]


def prepare_episode(
    tasks: Sequence[Task] | PreparedEpisode, channel_params
) -> PreparedEpisode:
    """The one preparation of an episode: a ``PreparedEpisode`` as it is,
    or copies of ``tasks`` in id order with their comm times attached."""
    if isinstance(tasks, PreparedEpisode):
        return tasks
    work = [t.copy() for t in sorted(tasks, key=lambda t: t.id)]
    events = attach_comm_times(work, channel_params)
    return PreparedEpisode(tuple(work), tuple(events))


def run_episode(
    tasks: Sequence[Task] | PreparedEpisode,
    scheduler: Scheduler,
    cfg: SimConfig,
    channel_params,
    exec_cost: float | None = None,
) -> EpisodeResult:
    """Simulate one episode under ``scheduler``.

    ``tasks`` goes through ``prepare_episode`` and the engine runs on
    copies of the preparation's tasks, so the input is left untouched
    and one list can be replayed under many schedulers; the result lists
    the tasks in the preparation's order. Each scheduler invocation is
    timed with a wall clock; ``exec_cost``, when given, replaces the
    measured duration with a fixed synthetic cost so runs become exactly
    reproducible. With ``cfg.charge_exec_time`` false the result is a
    pure function of (tasks, scheduler decisions).
    """
    prepared = prepare_episode(tasks, channel_params)
    loop = episode_loop([t.copy() for t in prepared.tasks], cfg)
    try:
        point = next(loop)
        while True:
            t0 = time.perf_counter()
            choice = scheduler.select(point.window, point.mecs, point.now)
            measured = time.perf_counter() - t0
            duration = measured if exec_cost is None else exec_cost
            point = loop.send((choice, duration))
    except StopIteration as stop:
        result: EpisodeResult = stop.value
    result.bandwidth_events = list(prepared.bandwidth_events)
    return result
