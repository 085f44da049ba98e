"""The engine against a plain transcription of its own protocol.

``reference_episode`` restates the protocol in ``vecoff.engine``'s
docstring with nothing done for speed: one loop that scans a list for the
next event, a fresh pending list after every change, no heap and no
generator. Each rule is one visible line. The property runs random task
sets through both and asks for the same task records and window log.

Arrivals, processing times, comm times and slacks lie on a 0.25 s grid,
so sums are exact: arrivals tie with releases, releases tie with each
other, and a task can be started exactly at its last feasible instant.
"""

from hypothesis import given
from hypothesis import strategies as st

from vecoff.domain import MecState, SimConfig, Task, TaskStatus
from vecoff.engine import DecisionWindow, PreparedEpisode, run_episode
from vecoff.heuristics import FcfsScheduler, RandomScheduler, SdfScheduler

RELEASE, ARRIVAL = 0, 1  # releases before arrivals at one instant
GRID = 0.25
# the third cost is long enough to expire picks: tight tasks' slack is at most 0.75 s
COSTS = (0.0, 1e-4, 1.0)


def feasible_at(task, start):
    """The inclusive deadline: the result may arrive exactly as the vehicle leaves."""
    return start - task.arrival <= task.remaining_in_range - task.proc_time - task.comm_time


def soonest(free_at):
    """Index of the server that frees first; the lowest server id wins ties."""
    best = 0
    for j in range(1, len(free_at)):
        if free_at[j] < free_at[best]:
            best = j
    return best


def reference_episode(tasks, num_mecs, scheduler, cost, charged):
    """(task records by id, window log) of one episode under ``scheduler``,
    each decision costing ``cost`` seconds."""
    tasks = [t.copy() for t in tasks]
    by_id = {t.id: t for t in tasks}
    free_at = [0.0] * num_mecs  # server j + 1 frees at free_at[j]
    events = [(t.arrival, ARRIVAL, t.id) for t in tasks]
    pending, windows, clock = [], [], 0.0

    def place(task, j):
        start = max(free_at[j], task.arrival, clock)
        if not feasible_at(task, start):
            task.status = TaskStatus.DROPPED
            return
        task.status, task.start_proc, task.assigned_mec = TaskStatus.COMPLETED, start, j + 1
        free_at[j] = start + task.proc_time
        events.append((free_at[j], RELEASE, j + 1))

    while events:
        nxt = 0
        for i in range(1, len(events)):
            if events[i] < events[nxt]:  # by time, then kind, then server or task id
                nxt = i
        time, kind, key = events.pop(nxt)
        clock = max(clock, time)
        if kind == ARRIVAL:
            j = soonest(free_at)
            if free_at[j] <= clock:
                place(by_id[key], j)  # an idle server takes the task, no decision
            else:
                pending = pending + [by_id[key]]
            continue
        while pending:
            j = soonest(free_at)
            t_e_av = free_at[j]
            if t_e_av > clock:
                break
            queued = [t for t in pending if t.arrival <= t_e_av]
            feasible = []
            for t in queued:  # the filter: drop whatever cannot make it from t_e_av on
                if feasible_at(t, max(t_e_av, t.arrival)):
                    feasible.append(t)
                else:
                    t.status = TaskStatus.DROPPED
            pending = [t for t in pending if t.status is TaskStatus.PENDING]
            index = len(windows) + 1
            if not feasible:
                windows.append((index, len(queued), 0, 0.0))
                continue
            mecs = [MecState(id=k + 1, available_at=f) for k, f in enumerate(free_at)]
            choice = scheduler.select(DecisionWindow(index, queued, feasible, t_e_av), mecs, clock)
            windows.append((index, len(queued), len(feasible), cost))
            if charged:
                clock += cost  # the charge comes before the start
            pick = feasible[choice]
            pending = [t for t in pending if t is not pick]
            place(pick, j)
    return records(tasks), windows


def records(tasks):
    return {t.id: (t.status, t.start_proc, t.assigned_mec) for t in tasks}


def make_tasks(specs, tight):
    """Tasks in (arrival, id) order from grid steps (arrival, proc, comm, slack)."""
    tasks = []
    for tid, (a, p, c, s) in enumerate(specs):
        if not tight:
            s = 4 * s + 3
        t = Task(tid, tid, a * GRID, 1, p * GRID, (p + c + s) * GRID)
        t.comm_time = c * GRID
        tasks.append(t)
    tasks.sort(key=lambda t: (t.arrival, t.id))
    return tasks


SPECS = st.lists(
    st.tuples(st.integers(0, 24), st.integers(1, 8), st.integers(0, 3), st.integers(-1, 3)),
    min_size=1, max_size=40,
)


@given(specs=SPECS, num_mecs=st.integers(1, 3), tight=st.booleans(), seed=st.integers(0, 2**16))
def test_engine_matches_the_reference(specs, num_mecs, tight, seed):
    tasks = make_tasks(specs, tight)
    prepared = PreparedEpisode(tuple(tasks), ())
    for charged in (False, True):
        cfg = SimConfig(num_mecs=num_mecs, charge_exec_time=charged)
        for cost in COSTS:
            for make in (FcfsScheduler, SdfScheduler, lambda: RandomScheduler(seed)):
                result = run_episode(prepared, make(), cfg, None, exec_cost=cost)
                want_tasks, want_windows = reference_episode(
                    tasks, num_mecs, make(), cost, charged)
                assert records(result.tasks) == want_tasks
                assert [(w.index, w.queue_size, w.feasible_size, w.duration)
                        for w in result.windows] == want_windows


def test_one_episode_reaches_every_rule():
    """Two servers tie at 0; a task arrives exactly as a server frees; a
    queued task can start exactly at its last feasible instant, until a
    charge of 1 s expires it; and a task arrives as both servers free with
    that task queued. Engine and reference agree on each."""
    specs = [(0, 4, 0, 8), (0, 4, 0, 8), (4, 2, 1, 2), (16, 4, 0, 8), (16, 4, 0, 8),
             (16, 1, 0, 4), (20, 4, 0, 8)]
    tasks = make_tasks(specs, tight=True)
    cfg = SimConfig(num_mecs=2, charge_exec_time=True)
    got = {}
    for cost in (0.0, 1.0):
        result = run_episode(PreparedEpisode(tuple(tasks), ()), FcfsScheduler(), cfg, None,
                             exec_cost=cost)
        want_tasks, want_windows = reference_episode(tasks, 2, FcfsScheduler(), cost, True)
        assert records(result.tasks) == want_tasks
        assert [(w.index, w.queue_size, w.feasible_size, w.duration)
                for w in result.windows] == want_windows
        got[cost] = want_tasks, want_windows
    done = TaskStatus.COMPLETED
    on_time, _ = got[0.0]
    assert on_time[0] == (done, 0.0, 1) and on_time[1] == (done, 0.0, 2)
    assert on_time[2] == (done, 1.0, 1)  # the release at 1.0 comes first
    assert on_time[5] == (done, 5.0, 1)  # waits exactly its 1 s of slack
    assert on_time[6] == (done, 5.0, 2)  # the queue drains before the arrival at 5.0
    late, windows = got[1.0]
    assert late[5] == (TaskStatus.DROPPED, None, None)
    assert windows == [(1, 1, 1, 1.0)]
