"""Non-learning schedulers: queue disciplines and particle-swarm search.

Two families live here. The first picks one task per decision window at
simulation time (first-come-first-served, smallest-deadline-first, and a
per-window swarm search). The second optimizes a whole episode offline: a
task ordering is replayed by greedily assigning each task, in order, to
the earliest-available server, dropping it if it can no longer meet its
deadline. Orderings are encoded as random-key priority vectors, so the
swarm moves through a continuous space and every position decodes to a
valid permutation. Both swarms run the same search (``swarm_search``)
against the same replay score (``replay_cost``); they differ only in the
server availabilities a replay starts from and in their warm starts. The
per-window swarm replays each distinct ordering once per window and
reuses its score: a window holds few tasks, so its particles mostly
decode to orderings already scored. The search steps in place and draws
its random numbers a bounded block of steps at a time, in the stream one
draw per step makes; the bound caps memory at the offline default budget.

``replay_cost`` keeps the server availabilities in a heap rather than
in server order. A replay's score depends only on the multiset of
availabilities: each task starts at the least of them, whichever server
holds it, and placing the task swaps that one value for its finish time.
So serving from any least-available server gives the same multiset
after every step, and the same score, as serving from the first one.

The offline optimizer assumes full knowledge of the episode's arrivals,
which an online scheduler never has. It is not a bound on its own: it
never finishes worse than the orderings it is warm-started with, so it
bounds exactly those schedules. ``run_matrix`` warm-starts it with every
schedule the online algorithms of the same trace executed.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channel import attach_comm_times
from .domain import (
    FINITE, NON_NEGATIVE, POSITIVE, ChannelParams, MecState, SimConfig, Task, check_fields,
)
from .engine import (
    _COMPLETED,
    DecisionWindow,
    EpisodeResult,
    PreparedEpisode,
    assign,
    earliest_availability,
    objective,
    prepare_episode,
    slack,
)

BRUTE_FORCE_LIMIT = 8
_DRAW_BLOCK = 1 << 16  # values per random draw of ``swarm_search``: 512 KiB


@dataclass
class PsoParams:
    """Swarm search knobs, shared by the offline and per-window modes."""

    swarm_size: int = field(default=50, metadata=POSITIVE)
    # zero iterations scores only the starting swarm
    iterations_static: int = field(default=100, metadata=NON_NEGATIVE)
    iterations_dynamic: int = field(default=30, metadata=NON_NEGATIVE)
    inertia: float = field(default=0.729, metadata=FINITE)
    c1: float = field(default=1.49, metadata=FINITE)
    c2: float = field(default=1.49, metadata=FINITE)
    # infinity leaves velocities unclamped
    velocity_clamp: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class AssignmentPlan:
    """An episode-level schedule: a task ordering and its replay objective."""

    ordering: tuple[int, ...]
    objective: float


class FcfsScheduler:
    name = "fcfs"

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        """Index of the earliest-arrived feasible task (ties: lowest id)."""
        feas = window.feasible
        if not feas:
            raise ValueError("empty window")
        return min(range(len(feas)), key=lambda i: (feas[i].arrival, feas[i].id))


class SdfScheduler:
    name = "sdf"

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        """Index of the feasible task with the soonest deadline (ties: lowest id)."""
        feas = window.feasible
        if not feas:
            raise ValueError("empty window")
        return min(range(len(feas)), key=lambda i: (feas[i].deadline, feas[i].id))


class RandomScheduler:
    """Uniform random valid choice. Exists for fuzzing, not comparison."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        return int(self._rng.integers(len(window.feasible)))


def replay_ordering(
    tasks: Sequence[Task], ordering: Sequence[int], num_mecs: int
) -> EpisodeResult:
    """Greedy replay of one complete ordering through ``engine.assign``.

    Walks the ordering, handing each task to the earliest-available
    server, where ``assign`` starts it or drops it. Input tasks must carry
    comm_time and are not mutated (the result holds copies).
    """
    _check_permutation(ordering, len(tasks))
    work = [t.copy() for t in tasks]
    mecs = [MecState(id=j + 1) for j in range(num_mecs)]
    for pos in ordering:
        sid, _ = earliest_availability(mecs)
        assign(work[pos], mecs[sid - 1])
    return EpisodeResult(tasks=work, windows=[])


def _check_permutation(ordering: Sequence[int], n: int) -> None:
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of task positions")


def induced_ordering(result: EpisodeResult) -> tuple[int, ...]:
    """Recover the ordering an episode effectively executed.

    Completed tasks sort by processing start (ties by id); dropped tasks
    go last, where a replay will drop them again since availability only
    ever grows. Positions index ``result.tasks``, which lists the tasks
    of the episode's preparation in its order, the order replays read.
    """
    completed = []
    dropped = []
    for pos, t in enumerate(result.tasks):
        if t.status is _COMPLETED:
            completed.append((t.start_proc, t.id, pos))
        else:
            dropped.append((t.deadline, t.id, pos))
    completed.sort()
    dropped.sort()
    return tuple(pos for *_, pos in completed + dropped)


def decode_priorities(x: np.ndarray) -> list[tuple[int, ...]]:
    """Random-key decode of a swarm, one ordering per row of ``x``.

    Each row's task positions sorted by ascending priority key; tied keys
    keep the lower position first.
    """
    return list(map(tuple, x.argsort(axis=1, kind="stable").tolist()))


def _ordering_to_position(ordering: Sequence[int], n: int) -> np.ndarray:
    pos = np.empty(n)
    for rank, task_pos in enumerate(ordering):
        pos[task_pos] = rank / max(n, 1)
    return pos


def brute_force_oracle(
    tasks: Sequence[Task],
    cfg: SimConfig,
    params: ChannelParams,
    max_tasks: int = BRUTE_FORCE_LIMIT,
) -> AssignmentPlan:
    """Exhaustive minimum over every task ordering.

    Factorial cost; refuses more than ``max_tasks`` tasks. Ties resolve to
    the lexicographically first ordering, so the result is deterministic.
    """
    if len(tasks) > max_tasks:
        raise ValueError(
            f"{len(tasks)} tasks exceeds the exhaustive-search limit of {max_tasks}"
        )
    base = prepare_episode(tasks, params).tasks
    best_val = math.inf
    best_ord: tuple[int, ...] = ()
    # an empty task list still yields one (empty) permutation
    for perm in itertools.permutations(range(len(base))):
        val = objective(replay_ordering(base, perm, cfg.num_mecs), cfg.lambda_weight)
        if val < best_val:
            best_val, best_ord = val, perm
    return AssignmentPlan(ordering=best_ord, objective=best_val)


def replay_cost(
    order: Sequence[int],
    avails: Sequence[float],
    arrivals: Sequence[float],
    procs: Sequence[float],
    comms: Sequence[float],
    slacks: Sequence[float],
    lam: float,
) -> float:
    """Objective of one greedy replay, over plain per-task columns.

    The rule of ``engine.assign`` over plain columns, pinned equal to
    ``objective(replay_ordering(...))`` by a property test: servers start
    at ``avails``; each position of ``order`` (a non-empty ordering of
    column positions) goes to the earliest-available server at
    ``max(availability, arrival)``, or is dropped when its waiting would
    exceed its slack.

    The availabilities are a heap, so the task goes to *a*
    least-available server, not to the first one. The score cannot tell
    the two apart: it reads only the multiset of availabilities, and
    replacing any copy of the least value with the finish time leaves
    the same multiset. A property test pins the heap bit for bit to the
    first-server rule.

    The latencies are summed by ``math.fsum``, as ``objective`` sums
    them, so the score is the replayed schedule's objective bit for bit
    whatever the order of the columns.
    """
    av = sorted(avails)  # a sorted list is a heap
    lats = []
    drops = 0
    for pos in order:
        free = av[0]
        arrival = arrivals[pos]
        start = arrival if arrival > free else free
        waiting = start - arrival
        if waiting <= slacks[pos]:
            proc = procs[pos]
            heapq.heapreplace(av, start + proc)
            lats.append(waiting + proc + 2.0 * comms[pos])
        else:
            drops += 1
    return lam * math.fsum(lats) + (1.0 - lam) * drops / len(order)


def _columns(tasks: Sequence[Task]) -> tuple[list[float], ...]:
    """The arrival, processing, comm and slack columns ``replay_cost`` reads."""
    return (
        [t.arrival for t in tasks],
        [t.proc_time for t in tasks],
        [t.comm_time for t in tasks],
        [slack(t) for t in tasks],
    )


def swarm_search(
    score: Callable[[tuple[int, ...]], float],
    n: int,
    starts: Sequence[Sequence[int]],
    iterations: int,
    pso: PsoParams,
    rng: np.random.Generator,
) -> tuple[float, tuple[int, ...]]:
    """Particle-swarm search over orderings of ``n`` positions.

    Particles are random-key priority vectors (Bean 1994), decoded by
    ``decode_priorities``; velocities follow the constriction form with
    the ``pso`` weights (Clerc & Kennedy 2002). The swarm holds every
    start: it has ``max(pso.swarm_size, len(starts))`` particles, the
    first at the keys of ``starts``, so the search never finishes worse
    than those orderings; the rest start at random keys. Returns the best
    (score, ordering) ever evaluated, earliest on ties.

    A step runs in place, with the whole-array form's operations in its
    order. Random numbers come a block of steps at a time, at most
    ``_DRAW_BLOCK`` values (one draw at the offline default budget would
    take 16 MB), in the stream one draw per step makes, the last block cut.
    """
    swarm = max(pso.swarm_size, len(starts))
    x = rng.uniform(0.0, 1.0, size=(swarm, n))
    v = rng.uniform(-0.1, 0.1, size=(swarm, n))
    for row, ordering in enumerate(starts):
        x[row] = _ordering_to_position(ordering, n)

    pbest_x = x.copy()
    pbest_val = [math.inf] * swarm
    best_val = math.inf
    best_ord: tuple[int, ...] = ()
    pulls = np.empty((2, swarm, n))  # pbest_x - x and gbest_x - x, each step
    pull_p, pull_g = pulls
    weights = np.array([pso.c1, pso.c2], dtype=float)[:, None, None]
    block = max(1, _DRAW_BLOCK // max(1, 2 * swarm * n))
    for step in range(iterations + 1):
        if step:  # step 0 scores the starting swarm
            k = (step - 1) % block
            if not k:  # the last block is cut, so the stream ends where it should
                draws = rng.random((min(block, iterations + 1 - step), 2, swarm, n))
                draws *= weights
            np.subtract(pbest_x, x, out=pull_p)
            np.subtract(gbest_x, x, out=pull_g)
            # the draws hold c1 * r1 and c2 * r2, so these are the form's
            # products, then added to inertia * v in the form's order
            pulls *= draws[k]
            v *= pso.inertia
            v += pull_p
            v += pull_g
            # np.clip's result, measured faster on a window's small arrays
            np.maximum(v, -pso.velocity_clamp, out=v)
            np.minimum(v, pso.velocity_clamp, out=v)
            x += v
        for i, order in enumerate(decode_priorities(x)):
            val = score(order)
            if val < pbest_val[i]:
                pbest_val[i] = val
                pbest_x[i] = x[i]
                # best_val <= pbest_val[i] always, so only a new personal
                # best can be a new swarm best
                if val < best_val:
                    best_val, best_ord = val, order
        # the first least personal best (best_val), as np.argmin picks; a
        # view, which no write reaches before the next step reads it
        gbest_x = pbest_x[pbest_val.index(best_val)]
    return best_val, best_ord


def pso_optimize_static(
    tasks: Sequence[Task] | PreparedEpisode,
    cfg: SimConfig,
    params: ChannelParams,
    pso: PsoParams,
    seed: int,
    seed_orderings: Sequence[Sequence[int]] = (),
) -> AssignmentPlan:
    """Offline swarm search over whole-episode orderings.

    Replays start from idle servers. The swarm is warm-started with an
    arrival-order particle and a deadline-order particle, plus any
    caller-provided ``seed_orderings`` (permutations of the task
    positions), so the search never finishes worse than those replays.
    Positions index the tasks of ``prepare_episode(tasks, params)``, in
    id order; a ``PreparedEpisode`` is read as it is. Returns the best
    plan ever evaluated.
    """
    base = prepare_episode(tasks, params).tasks
    n = len(base)
    for ordering in seed_orderings:
        _check_permutation(ordering, n)
    if n == 0:
        return AssignmentPlan(ordering=(), objective=0.0)
    avails = [0.0] * cfg.num_mecs
    columns = _columns(base)
    lam = cfg.lambda_weight
    starts = [
        sorted(range(n), key=lambda i: (base[i].arrival, base[i].id)),
        sorted(range(n), key=lambda i: (base[i].deadline, base[i].id)),
        *seed_orderings,
    ]
    best_val, best_ord = swarm_search(
        lambda order: replay_cost(order, avails, *columns, lam),
        n, starts, pso.iterations_static, pso, np.random.default_rng(seed),
    )
    return AssignmentPlan(ordering=best_ord, objective=best_val)


class DynamicPsoScheduler:
    """Per-window swarm search, run online.

    At each window it searches orderings of the feasible set against the
    servers' current availabilities, scoring a candidate by the weighted
    sum of its replayed latencies and its replay drop fraction, and
    commits only the first task of the winner. Each distinct ordering is
    replayed once per window: a score depends only on the ordering, the
    window and the availabilities, so repeats reuse it. A one-task window
    returns immediately without searching.
    """

    name = "on-dyn-pso"

    def __init__(self, params: PsoParams, lambda_weight: float, seed: int = 0):
        self._p = params
        self._lam = lambda_weight
        self._rng = np.random.default_rng(seed)

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        feas = window.feasible
        w = len(feas)
        if w == 0:
            raise ValueError("empty window")
        if w == 1:
            return 0
        avails = [m.available_at for m in mecs]
        columns = _columns(feas)
        lam = self._lam
        score = functools.cache(lambda order: replay_cost(order, avails, *columns, lam))
        # particle 0 starts at the arrival-order keys, so the search can
        # never do worse than taking the window in order
        _, ordering = swarm_search(
            score, w, [range(w)], self._p.iterations_dynamic, self._p, self._rng,
        )
        return ordering[0]
