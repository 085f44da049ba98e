import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.domain import MecState, SimConfig, TaskStatus
from vecoff.engine import (
    SchedulingProtocolError,
    assign,
    build_window,
    earliest_availability,
    episode_loop,
    is_feasible_at,
    prepare_episode,
    run_episode,
    slack,
)
from vecoff.domain import ChannelParams
from vecoff.heuristics import FcfsScheduler, RandomScheduler

from conftest import make_task, make_task_set

# A task of this size transmitting alone on the default 20 MHz band takes
# exactly 0.25 s per direction.
SIZE_QUARTER_S = 5e6


class TestEarliestAvailability:
    def test_picks_soonest_server(self):
        mecs = [MecState(id=1, available_at=4.0), MecState(id=2, available_at=2.5)]
        assert earliest_availability(mecs) == (2, 2.5)

    def test_tie_goes_to_lowest_id(self):
        mecs = [MecState(id=1), MecState(id=2)]
        assert earliest_availability(mecs) == (1, 0.0)

    def test_tie_goes_to_lowest_id_out_of_list_order(self):
        # a loop that keeps the first least server in list order gives 3
        mecs = [MecState(id=3, available_at=2.0), MecState(id=1, available_at=2.0),
                MecState(id=2, available_at=5.0)]
        assert earliest_availability(mecs) == (1, 2.0)

    def test_three_servers_tied_two_ways(self):
        # ids 3 and 2 tie below id 1; then all three tie
        mecs = [MecState(id=3, available_at=1.0), MecState(id=2, available_at=1.0),
                MecState(id=1, available_at=4.0)]
        assert earliest_availability(mecs) == (2, 1.0)
        assert earliest_availability(list(reversed(mecs))) == (2, 1.0)
        mecs[2].available_at = 1.0
        assert earliest_availability(mecs) == (1, 1.0)

    def test_the_winners_own_float_is_returned(self):
        # 0.0 == -0.0: the tie goes to id 1, and so does the signed zero
        mecs = [MecState(id=2, available_at=0.0), MecState(id=1, available_at=-0.0)]
        sid, at = earliest_availability(mecs)
        assert sid == 1 and math.copysign(1.0, at) == -1.0

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError):
            earliest_availability([])


class TestFeasibility:
    def waiting_budget_task(self):
        # proc 2 and comm 0.25 leave exactly 5.5 s of absorbable waiting
        return make_task(0, arrival=1.0, proc=2.0, remaining=7.75, comm=0.25)

    def test_slack_value(self):
        assert math.isclose(slack(self.waiting_budget_task()), 5.5)

    def test_feasible_within_budget(self):
        t = self.waiting_budget_task()
        assert is_feasible_at(t, t.arrival + 2.0)

    def test_boundary_is_inclusive(self):
        t = self.waiting_budget_task()
        assert is_feasible_at(t, t.arrival + 5.5)

    def test_infeasible_past_budget(self):
        t = self.waiting_budget_task()
        assert not is_feasible_at(t, t.arrival + 6.1)

    def test_slack_requires_comm_time(self):
        t = make_task(0, arrival=0.0, proc=1.0, remaining=5.0)
        with pytest.raises(ValueError):
            slack(t)


class TestBuildWindow:
    def test_infeasible_members_dropped_and_removed(self):
        doomed = make_task(0, arrival=0.0, proc=0.5, remaining=1.0, comm=0.1)
        alive = make_task(1, arrival=0.0, proc=0.5, remaining=20.0, comm=0.1)
        pending = [doomed, alive]
        window = build_window(pending, t_e_av=5.0)
        assert [t.id for t in window.queued] == [0, 1]
        assert [t.id for t in window.feasible] == [1]
        assert doomed.status is TaskStatus.DROPPED
        assert pending == [alive]


class TestAssign:
    def test_idle_server_start_at_arrival(self):
        t = make_task(0, arrival=3.0, proc=2.0, remaining=10.0, comm=0.25)
        mec = MecState(id=1)
        free_at = assign(t, mec)
        assert t.start_proc == 3.0
        assert t.waiting == 0.0
        assert t.comp_latency == 2.0
        assert t.e2e_latency == 2.5
        assert t.assigned_mec == 1
        assert t.status is TaskStatus.COMPLETED
        assert free_at == 5.0
        assert mec.available_at == 5.0

    def test_busy_server_start_at_availability(self):
        t = make_task(0, arrival=3.0, proc=2.0, remaining=9.25, comm=0.25)
        mec = MecState(id=1)
        mec.add_busy(0.0, 10.0)
        free_at = assign(t, mec)
        assert t.start_proc == 10.0
        assert t.waiting == 7.0
        assert t.comp_latency == 9.0
        assert t.e2e_latency == 9.5
        assert free_at == 12.0

    def test_exact_deadline_fit_is_accepted(self):
        # waiting 7 equals the slack exactly: still a completion
        t = make_task(0, arrival=3.0, proc=2.0, remaining=9.25, comm=0.25)
        mec = MecState(id=1)
        mec.add_busy(0.0, 10.0)
        assign(t, mec)
        delivered = t.arrival + t.waiting + t.proc_time + t.comm_time
        assert math.isclose(delivered, t.deadline)

    def test_infeasible_assignment_drops(self):
        t = make_task(0, arrival=3.0, proc=2.0, remaining=9.2, comm=0.25)
        mec = MecState(id=1)
        mec.add_busy(0.0, 10.0)
        assert assign(t, mec) is None
        assert t.status is TaskStatus.DROPPED
        assert t.start_proc is None
        assert t.e2e_latency is None
        assert mec.available_at == 10.0

    def test_at_lifts_start_beyond_availability(self):
        t = make_task(0, arrival=0.0, proc=1.0, remaining=10.0, comm=0.1)
        mec = MecState(id=1)
        assign(t, mec, at=1.5)
        assert t.start_proc == 1.5
        assert t.waiting == 1.5


def run(tasks, scheduler, cfg, exec_cost=0.0):
    return run_episode(tasks, scheduler, cfg, ChannelParams(), exec_cost=exec_cost)


class TestRunEpisode:
    def test_idle_servers_need_no_scheduler(self, sim2):
        tasks = [
            make_task(0, arrival=1.0, proc=2.0, remaining=20.0, size=SIZE_QUARTER_S),
            make_task(1, arrival=1.2, proc=2.0, remaining=20.0, size=SIZE_QUARTER_S),
        ]
        result = run(tasks, FcfsScheduler(), sim2)
        assert result.windows == []
        assert result.num_windows == 0
        assert len(result.completed) == 2
        assert {t.assigned_mec for t in result.completed} == {1, 2}

    def test_single_server_queue_runs_in_arrival_order(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(i, arrival=0.1 * i, proc=1.0, remaining=20.0, size=2e4)
            for i in range(5)
        ]
        result = run(tasks, FcfsScheduler(), cfg)
        assert len(result.completed) == 5
        by_id = {t.id: t for t in result.tasks}
        assert [by_id[i].start_proc for i in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [w.queue_size for w in result.windows] == [4, 3, 2, 1]
        assert result.num_windows == 4
        for t in result.tasks:
            assert math.isclose(t.waiting, t.start_proc - t.arrival)

    def test_arrival_takes_the_server_that_freed_first(self, sim2):
        # server 1 frees at 3.0 and server 2 at 1.1; both are idle when
        # the third task arrives at 4.0, which goes to the earlier one
        tasks = [
            make_task(0, arrival=0.0, proc=3.0, remaining=20.0, size=2e4),
            make_task(1, arrival=0.1, proc=1.0, remaining=20.0, size=2e4),
            make_task(2, arrival=4.0, proc=1.0, remaining=20.0, size=2e4),
        ]
        result = run(tasks, FcfsScheduler(), sim2)
        by_id = {t.id: t for t in result.tasks}
        assert [by_id[i].assigned_mec for i in range(3)] == [1, 2, 2]
        assert [by_id[i].start_proc + by_id[i].proc_time for i in range(3)] == [3.0, 1.1, 5.0]
        assert result.windows == []

    def test_exact_deadline_completion_on_fast_path(self, sim2):
        t = make_task(0, arrival=0.0, proc=2.0, remaining=2.25, size=SIZE_QUARTER_S)
        result = run([t], FcfsScheduler(), sim2)
        (done,) = result.completed
        assert done.e2e_latency == 2.5
        assert result.num_dropped == 0

    def test_just_missed_deadline_drops_on_fast_path(self, sim2):
        t = make_task(0, arrival=0.0, proc=2.0, remaining=2.249, size=SIZE_QUARTER_S)
        result = run([t], FcfsScheduler(), sim2)
        assert result.num_dropped == 1
        assert result.tasks[0].e2e_latency is None

    def test_release_then_arrival_tie_uses_fast_path(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(0, arrival=0.0, proc=2.0, remaining=20.0, size=2e4),
            make_task(1, arrival=2.0, proc=1.0, remaining=20.0, size=2e4),
        ]
        result = run(tasks, FcfsScheduler(), cfg)
        assert result.windows == []
        by_id = {t.id: t for t in result.tasks}
        assert by_id[1].start_proc == 2.0
        assert by_id[1].waiting == 0.0

    def test_filter_can_empty_a_window(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(0, arrival=0.0, proc=5.0, remaining=20.0, size=2e4),
            make_task(1, arrival=1.0, proc=1.0, remaining=1.102, size=2e4),
        ]
        result = run(tasks, FcfsScheduler(), cfg)
        assert len(result.windows) == 1
        assert result.windows[0].feasible_size == 0
        assert result.num_windows == 0
        assert result.tasks[1].status is TaskStatus.DROPPED

    def test_uncharged_duration_does_not_move_the_clock(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(i, arrival=0.1 * i, proc=1.0, remaining=20.0, size=2e4)
            for i in range(5)
        ]
        slow = run(tasks, FcfsScheduler(), cfg, exec_cost=5.0)
        fast = run(tasks, FcfsScheduler(), cfg, exec_cost=0.0)
        assert [t.e2e_latency for t in slow.tasks] == [t.e2e_latency for t in fast.tasks]
        # the first task takes the fast path, so only four windows open
        assert slow.total_decision_time == 20.0
        assert fast.total_decision_time == 0.0

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 25),
        num_mecs=st.integers(1, 3),
        tight=st.booleans(),
    )
    def test_charged_zero_duration_changes_nothing(self, seed, n, num_mecs, tight):
        # Every placement starts at the clock; without a charge the clock
        # already equals the start, so a zero charge must change nothing.
        tasks = make_task_set(np.random.default_rng(seed), n, tight_deadlines=tight)
        a, b = (
            run(tasks, RandomScheduler(seed),
                SimConfig(num_mecs=num_mecs, charge_exec_time=charged), exec_cost=0.0)
            for charged in (True, False)
        )
        assert [t.to_dict() for t in a.tasks] == [t.to_dict() for t in b.tasks]

    def test_charged_decision_can_expire_its_own_pick(self):
        # B can absorb 9.5 s of waiting; the server frees at 10.0 after A,
        # so B is feasible when the window opens (waiting 9.5), but a 0.5 s
        # charged decision pushes its start to 10.5 and kills it.
        cfg = SimConfig(num_mecs=1, charge_exec_time=True)
        a = make_task(0, arrival=0.0, proc=10.0, remaining=30.0, size=SIZE_QUARTER_S)
        b = make_task(1, arrival=0.5, proc=1.0, remaining=10.75, size=SIZE_QUARTER_S)
        result = run([a, b], FcfsScheduler(), cfg, exec_cost=0.5)
        by_id = {t.id: t for t in result.tasks}
        assert by_id[0].status is TaskStatus.COMPLETED
        assert by_id[1].status is TaskStatus.DROPPED
        assert len(result.windows) == 1
        assert result.windows[0].feasible_size == 1
        assert result.windows[0].duration == 0.5

    def test_same_scenario_survives_without_the_charge(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=True)
        a = make_task(0, arrival=0.0, proc=10.0, remaining=30.0, size=SIZE_QUARTER_S)
        b = make_task(1, arrival=0.5, proc=1.0, remaining=10.75, size=SIZE_QUARTER_S)
        result = run([a, b], FcfsScheduler(), cfg, exec_cost=0.0)
        by_id = {t.id: t for t in result.tasks}
        assert by_id[1].status is TaskStatus.COMPLETED
        assert by_id[1].waiting == 9.5
        assert by_id[1].e2e_latency == 11.0

    def test_replay_is_deterministic(self, sim2, rng):
        tasks = make_task_set(rng, 12)
        a = run(tasks, FcfsScheduler(), sim2)
        b = run(tasks, FcfsScheduler(), sim2)
        assert [t.to_dict() for t in a.tasks] == [t.to_dict() for t in b.tasks]

    def test_input_tasks_not_mutated(self, sim2, rng):
        tasks = make_task_set(rng, 6)
        run(tasks, FcfsScheduler(), sim2)
        assert all(t.status is TaskStatus.PENDING for t in tasks)


class TestPrepareEpisode:
    def test_a_preparation_comes_back_as_it_is(self, rng):
        prepared = prepare_episode(make_task_set(rng, 5), ChannelParams())
        assert prepare_episode(prepared, ChannelParams()) is prepared

    def test_a_list_comes_back_in_id_order_with_comm_times(self):
        # ids out of arrival order: the later arrival holds the lower id
        tasks = [
            make_task(2, arrival=0.0, proc=1.0, remaining=20.0, size=SIZE_QUARTER_S),
            make_task(0, arrival=3.0, proc=1.0, remaining=20.0, size=SIZE_QUARTER_S),
            make_task(1, arrival=1.0, proc=1.0, remaining=20.0, size=SIZE_QUARTER_S),
        ]
        before = [t.to_dict() for t in tasks]
        prepared = prepare_episode(tasks, ChannelParams())
        assert [t.id for t in prepared.tasks] == [0, 1, 2]
        assert [t.arrival for t in prepared.tasks] == [3.0, 1.0, 0.0]
        # each transmits alone on the band
        assert [t.comm_time for t in prepared.tasks] == [0.25, 0.25, 0.25]
        assert all(t.status is TaskStatus.PENDING for t in prepared.tasks)
        assert [t.to_dict() for t in tasks] == before
        assert not any(p is t for p in prepared.tasks for t in tasks)


class TestEngineContract:
    def queued_window_loop(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.01),
            make_task(1, arrival=0.5, proc=1.0, remaining=20.0, comm=0.01),
        ]
        loop = episode_loop(tasks, cfg)
        next(loop)
        return loop

    def test_out_of_range_choice_rejected(self):
        loop = self.queued_window_loop()
        with pytest.raises(SchedulingProtocolError):
            loop.send((5, 0.0))

    def test_non_integer_choice_rejected(self):
        loop = self.queued_window_loop()
        with pytest.raises(SchedulingProtocolError):
            loop.send(("first", 0.0))

    def test_negative_duration_rejected(self):
        loop = self.queued_window_loop()
        with pytest.raises(SchedulingProtocolError):
            loop.send((0, -1.0))

    def test_nan_duration_rejected(self):
        loop = self.queued_window_loop()
        with pytest.raises(SchedulingProtocolError, match="nan"):
            loop.send((0, math.nan))

    def test_tasks_must_be_pending(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        t = make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.01)
        t.transition(TaskStatus.DROPPED)
        with pytest.raises(ValueError, match="expected pending"):
            next(episode_loop([t], cfg), None)

    def test_tasks_must_carry_comm_time(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        t = make_task(0, arrival=0.0, proc=1.0, remaining=20.0)
        with pytest.raises(ValueError, match="comm_time"):
            next(episode_loop([t], cfg), None)

    def test_duplicate_task_ids_rejected(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.01),
            make_task(0, arrival=1.0, proc=1.0, remaining=20.0, comm=0.01),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            next(episode_loop(tasks, cfg), None)

    def test_duplicate_task_ids_are_named_through_run_episode(self):
        cfg = SimConfig(num_mecs=1, charge_exec_time=False)
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=20.0),
            make_task(0, arrival=1.0, proc=1.0, remaining=20.0),
        ]
        with pytest.raises(ValueError, match="duplicate task id 0"):
            run_episode(tasks, FcfsScheduler(), cfg, ChannelParams())


class TestEpisodeInvariants:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 25),
        tight=st.booleans(),
    )
    def test_every_task_ends_terminal_and_consistent(self, seed, n, tight):
        tasks = make_task_set(np.random.default_rng(seed), n, tight_deadlines=tight)
        cfg = SimConfig(num_mecs=2, charge_exec_time=False)
        result = run_episode(tasks, RandomScheduler(seed), cfg, ChannelParams())

        assert len(result.completed) + len(result.dropped) == n
        for t in result.completed:
            assert t.waiting >= 0.0
            assert t.start_proc >= t.arrival
            assert t.assigned_mec in {1, 2}
            assert math.isclose(t.e2e_latency, t.waiting + t.proc_time + 2 * t.comm_time)
            delivered = t.arrival + t.waiting + t.proc_time + t.comm_time
            assert delivered <= t.deadline + 1e-9
        for t in result.dropped:
            assert t.e2e_latency is None
        for sid in (1, 2):
            spans = sorted(
                (t.start_proc, t.start_proc + t.proc_time)
                for t in result.completed if t.assigned_mec == sid
            )
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 <= s1 + 1e-9
            for s, e in spans:
                assert e > s
