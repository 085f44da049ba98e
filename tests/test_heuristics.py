import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecoff import heuristics
from vecoff.config import config_from_dict, section_to_dict
from vecoff.domain import ChannelParams, MecState, SimConfig, TaskStatus
from vecoff.engine import DecisionWindow, objective, run_episode, slack
from vecoff.heuristics import (
    AssignmentPlan,
    DynamicPsoScheduler,
    FcfsScheduler,
    PsoParams,
    SdfScheduler,
    brute_force_oracle,
    decode_priorities,
    fcfs_select,
    induced_ordering,
    prepare_tasks,
    pso_optimize_static,
    replay_cost,
    replay_ordering,
    sdf_select,
    swarm_search,
    _columns,
    _ordering_to_position,
)
from vecoff.rl.encoding import EncoderSpec
from vecoff.rl.nets import Mlp
from vecoff.rl.policy import Policy, PolicyScheduler

from conftest import make_task, make_task_set

CFG1 = SimConfig(num_mecs=1, charge_exec_time=False)
CFG2 = SimConfig(num_mecs=2, charge_exec_time=False)
FAST_PSO = PsoParams(swarm_size=8, iterations_static=10, iterations_dynamic=5)


def window_of(tasks):
    return DecisionWindow(index=1, queued=list(tasks), feasible=list(tasks), earliest_avail=0.0)


class TestQueueDisciplines:
    def test_fcfs_picks_earliest_arrival(self):
        tasks = [
            make_task(0, arrival=5.0, proc=1.0, remaining=20.0, comm=0.1),
            make_task(1, arrival=3.0, proc=1.0, remaining=20.0, comm=0.1),
            make_task(2, arrival=4.0, proc=1.0, remaining=20.0, comm=0.1),
        ]
        assert fcfs_select(window_of(tasks)) == 1

    def test_fcfs_arrival_tie_takes_lowest_id(self):
        tasks = [
            make_task(3, arrival=2.0, proc=1.0, remaining=20.0, comm=0.1),
            make_task(1, arrival=2.0, proc=1.0, remaining=20.0, comm=0.1),
        ]
        assert fcfs_select(window_of(tasks)) == 1

    def test_sdf_picks_soonest_deadline(self):
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.1),
            make_task(1, arrival=0.0, proc=1.0, remaining=12.0, comm=0.1),
            make_task(2, arrival=0.0, proc=1.0, remaining=15.0, comm=0.1),
        ]
        assert sdf_select(window_of(tasks)) == 1

    def test_sdf_and_fcfs_can_disagree(self):
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=30.0, comm=0.1),
            make_task(1, arrival=1.0, proc=1.0, remaining=4.0, comm=0.1),
        ]
        w = window_of(tasks)
        assert fcfs_select(w) == 0
        assert sdf_select(w) == 1

    def test_empty_window_rejected(self):
        empty = DecisionWindow(index=1, queued=[], feasible=[], earliest_avail=0.0)
        with pytest.raises(ValueError):
            fcfs_select(empty)
        with pytest.raises(ValueError):
            sdf_select(empty)

    def test_scheduler_wrappers_expose_names(self):
        assert FcfsScheduler().name == "fcfs"
        assert SdfScheduler().name == "sdf"
        assert DynamicPsoScheduler(FAST_PSO, 0.4).name == "on-dyn-pso"


def test_every_online_scheduler_takes_the_only_task():
    enc = EncoderSpec()
    rng = np.random.default_rng(0)
    sizes = [enc.state_dim, 8, enc.action_dim]
    schedulers = [
        FcfsScheduler(),
        SdfScheduler(),
        DynamicPsoScheduler(FAST_PSO, 0.4, seed=5),
        PolicyScheduler(Policy("dqn", enc, {"q": Mlp(sizes, rng=rng)})),
        PolicyScheduler(Policy("ppo", enc, {
            "actor": Mlp(sizes, rng=rng), "critic": Mlp(sizes[:-1] + [1], rng=rng),
        })),
    ]
    w = window_of([make_task(4, arrival=0.3, proc=0.4, remaining=9.0, comm=0.1)])
    mecs = [MecState(id=1), MecState(id=2)]
    for sched in schedulers:
        assert sched.select(w, mecs, now=0.5) == 0, sched.name


class TestRandomKeyEncoding:
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20, unique=True))
    def test_decode_is_a_permutation(self, keys):
        (order,) = decode_priorities(np.array([keys]))
        assert sorted(order) == list(range(len(keys)))

    @given(st.permutations(list(range(7))))
    def test_encode_decode_round_trip(self, perm):
        pos = _ordering_to_position(perm, len(perm))
        assert decode_priorities(pos[None, :]) == [tuple(perm)]

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                # few distinct keys, so rows carry ties
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2),
                    min_size=n, max_size=n,
                ),
                min_size=1, max_size=8,
            )
        )
    )
    def test_each_row_decodes_as_its_own_stable_sort(self, rows):
        orders = decode_priorities(np.array(rows))
        # sorted() is stable: tied keys keep the lower position first
        assert orders == [tuple(sorted(range(len(row)), key=row.__getitem__)) for row in rows]


class TestReplayOrdering:
    def test_rejects_non_permutation(self):
        tasks = [make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.1)]
        with pytest.raises(ValueError):
            replay_ordering(tasks, (0, 0), 1)

    def test_does_not_mutate_inputs(self):
        tasks = [make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.1)]
        replay_ordering(tasks, (0,), 1)
        assert tasks[0].status is TaskStatus.PENDING

    def test_order_decides_who_waits(self):
        tasks = [
            make_task(0, arrival=0.0, proc=5.0, remaining=30.0, comm=0.05),
            make_task(1, arrival=0.1, proc=1.0, remaining=30.0, comm=0.05),
        ]
        head_first = replay_ordering(tasks, (0, 1), 1)
        tail_first = replay_ordering(tasks, (1, 0), 1)
        assert objective(tail_first, 0.4) < objective(head_first, 0.4)

    def test_infeasible_position_is_dropped(self):
        tasks = [
            make_task(0, arrival=0.0, proc=5.0, remaining=30.0, comm=0.05),
            make_task(1, arrival=0.0, proc=1.0, remaining=2.0, comm=0.05),
        ]
        result = replay_ordering(tasks, (0, 1), 1)
        assert result.tasks[1].status is TaskStatus.DROPPED


def first_server_replay_cost(order, avails, arrivals, procs, comms, slacks, lam):
    """``replay_cost`` as a per-server scan: each task goes to the first
    least-available server, in server order."""
    av = list(avails)
    lats = []
    drops = 0
    for pos in order:
        free = min(av)
        j = av.index(free)
        start = max(free, arrivals[pos])
        waiting = start - arrivals[pos]
        if waiting <= slacks[pos]:
            av[j] = start + procs[pos]
            lats.append(waiting + procs[pos] + 2.0 * comms[pos])
        else:
            drops += 1
    return lam * math.fsum(lats) + (1.0 - lam) * drops / len(order)


class TestReplayCost:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 20),
        num_mecs=st.integers(1, 3),
        tight=st.booleans(),
        lam=st.floats(0.0, 1.0),
    )
    def test_matches_the_task_replay(self, seed, n, num_mecs, tight, lam):
        rng = np.random.default_rng(seed)
        prepared = prepare_tasks(make_task_set(rng, n, tight_deadlines=tight), ChannelParams())
        # columns out of id order: the score may not depend on the order
        # in which the objective or the replay meets the tasks
        base = [prepared[i] for i in rng.permutation(n)]
        order = tuple(rng.permutation(n).tolist())
        args = (
            order,
            [0.0] * num_mecs,
            [t.arrival for t in base],
            [t.proc_time for t in base],
            [t.comm_time for t in base],
            [slack(t) for t in base],
            lam,
        )
        assert replay_cost(*args) == objective(replay_ordering(base, order, num_mecs), lam)

    @given(
        data=st.data(),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 20),
        num_mecs=st.integers(1, 4),
        tight=st.booleans(),
    )
    @settings(max_examples=200)
    def test_heap_equals_the_first_least_available_server(
        self, data, seed, n, num_mecs, tight
    ):
        rng = np.random.default_rng(seed)
        base = prepare_tasks(make_task_set(rng, n, tight_deadlines=tight), ChannelParams())
        # few distinct availabilities, so servers tie, and unequal starts
        avails = data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=num_mecs, max_size=num_mecs
        ))
        order = tuple(rng.permutation(n).tolist())
        args = (
            [t.arrival for t in base],
            [t.proc_time for t in base],
            [t.comm_time for t in base],
            [slack(t) for t in base],
            0.4,
        )
        expected = first_server_replay_cost(order, avails, *args)
        assert replay_cost(order, avails, *args) == expected

    def test_replay_starts_from_the_given_availabilities(self):
        # one server busy until 1.0: the task waits 1.0 and still fits
        # its 2.5 s of slack; busy until 3.0 it cannot, and is dropped
        args = ([0.0], [0.5], [0.1], [2.5], 0.4)
        assert math.isclose(replay_cost((0,), [1.0], *args), 0.4 * (1.0 + 0.5 + 0.2))
        assert replay_cost((0,), [3.0], *args) == 0.6


def whole_array_swarm_search(score, n, starts, iterations, pso, rng):
    """``swarm_search`` as a whole-array step with one draw per step: the
    reference its in-place, block-drawn step is pinned to."""
    swarm = max(pso.swarm_size, len(starts))
    x = rng.uniform(0.0, 1.0, size=(swarm, n))
    v = rng.uniform(-0.1, 0.1, size=(swarm, n))
    for row, ordering in enumerate(starts):
        x[row] = _ordering_to_position(ordering, n)
    pbest_x = x.copy()
    pbest_val = [math.inf] * swarm
    best_val = math.inf
    best_ord = ()
    for step in range(iterations + 1):
        if step:
            r1, r2 = rng.random((2, swarm, n))
            v = (
                pso.inertia * v
                + pso.c1 * r1 * (pbest_x - x)
                + pso.c2 * r2 * (gbest_x - x)
            )
            np.maximum(v, -pso.velocity_clamp, out=v)
            np.minimum(v, pso.velocity_clamp, out=v)
            x += v
        for i, order in enumerate(heuristics.decode_priorities(x)):
            val = score(order)
            if val < pbest_val[i]:
                pbest_val[i] = val
                pbest_x[i] = x[i]
                if val < best_val:
                    best_val, best_ord = val, order
        gbest_x = pbest_x[pbest_val.index(min(pbest_val))]
    return best_val, best_ord


@st.composite
def swarm_cases(draw):
    """A search's arguments, and a draw block of 1 to 7 of its steps."""
    n = draw(st.one_of(st.integers(0, 12), st.sampled_from([60, 137, 200])))
    swarm = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    perm = np.random.default_rng(seed).permutation
    starts = [perm(n).tolist() for _ in range(draw(st.integers(0, swarm + 3)))]
    pso = PsoParams(
        swarm_size=swarm,
        inertia=draw(st.floats(-1.2, 1.2)),
        c1=draw(st.floats(-3.0, 3.0)),
        c2=draw(st.floats(-3.0, 3.0)),
        velocity_clamp=draw(st.one_of(st.floats(0.01, 2.0), st.just(math.inf))),
    )
    step_values = 2 * max(swarm, len(starts)) * n
    block = draw(st.integers(1, 7)) * step_values + draw(st.integers(0, max(step_values - 1, 0)))
    return n, starts, draw(st.integers(0, 40)), pso, seed, block


class TestSwarmSearch:
    def test_returns_the_best_ordering_it_scored(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(size=7)
        scored = {}

        def score(order):
            scored[order] = float(sum(weights[pos] * rank for rank, pos in enumerate(order)))
            return scored[order]

        val, order = swarm_search(score, 7, [], 5, FAST_PSO, rng)
        assert len(scored) > 1
        assert val == scored[order] == min(scored.values())

    @pytest.mark.parametrize("case, seed, expected", [
        ("window", 3, (1.0, (0, 2, 3, 4, 1), 0.2771291572368878)),
        ("window", 11, (1.0, (3, 2, 0, 1, 4), 0.1328618881297463)),
        ("offline", 3, (222.0, (
            6, 39, 10, 30, 38, 18, 34, 27, 2, 8, 14, 3, 19, 22, 26, 12, 23, 15, 35, 31,
            7, 11, 4, 32, 37, 24, 36, 13, 0, 5, 9, 28, 21, 17, 20, 33, 16, 25, 1, 29,
        ), 0.5242067559698691)),
        ("offline", 11, (224.0, (
            26, 15, 22, 31, 35, 38, 18, 34, 10, 14, 3, 19, 27, 2, 30, 7, 6, 23, 39, 16,
            11, 1, 28, 12, 24, 4, 32, 37, 9, 0, 8, 21, 33, 5, 13, 36, 29, 17, 25, 20,
        ), 0.9477697726145582)),
    ])
    def test_random_stream_is_pinned(self, case, seed, expected):
        # the result and the generator's next draw pin the search's draw
        # order and draw count; the window case has on-dyn-pso's shape,
        # the offline case off-sta-pso's warm starts. The score takes few
        # values, so personal bests tie and the result also pins which of
        # them leads the swarm.
        n, starts, iterations = {
            "window": (5, [range(5)], 30),
            "offline": (40, [
                range(40), range(39, -1, -1), [*range(0, 40, 2), *range(1, 40, 2)],
            ], 10),
        }[case]
        weights = [(3 * pos + 1) % 4 for pos in range(n)]
        rng = np.random.default_rng(seed)
        val, order = swarm_search(
            lambda order: float(sum(weights[pos] * (rank // 3) for rank, pos in enumerate(order))),
            n, starts, iterations, PsoParams(), rng,
        )
        assert (val, order, rng.random()) == expected

    @pytest.mark.parametrize("n, expected", [
        (0, (0.0, (), 0.5118216247002567)),
        (1, (1.0, (0,), 0.6234897555375004)),
    ])
    def test_no_task_and_one_task(self, n, expected):
        rng = np.random.default_rng(1)
        val, order = swarm_search(
            lambda order: float(len(order)), n, [], 3, PsoParams(swarm_size=4), rng,
        )
        assert (val, order, rng.random()) == expected

    @given(case=swarm_cases())
    @settings(max_examples=80, deadline=None)
    def test_in_place_step_equals_the_whole_array_step(self, case):
        # every step's positions, the result and the generator's state
        # agree bit for bit, across draw blocks of one and of several
        # steps and a last block cut short
        n, starts, iterations, pso, seed, block = case
        weights = [(3 * pos + 1) % 4 for pos in range(n)]
        runs = []
        for search in (swarm_search, whole_array_swarm_search):
            positions = []

            def recording_decode(x):
                positions.append(x.tobytes())
                return decode_priorities(x)

            rng = np.random.default_rng(seed)
            with mock.patch.object(heuristics, "_DRAW_BLOCK", block), \
                    mock.patch.object(heuristics, "decode_priorities", recording_decode):
                result = search(
                    lambda order: float(sum(weights[pos] * (rank // 3)
                                            for rank, pos in enumerate(order))),
                    n, starts, iterations, pso, rng,
                )
            runs.append((result, positions, rng.bit_generator.state))
        assert runs[0] == runs[1]


class TestBruteForceOracle:
    def three_task_spt_case(self):
        # one long head-of-line task punishes first-come order
        return [
            make_task(0, arrival=0.0, proc=5.0, remaining=30.0, size=1e6),
            make_task(1, arrival=0.1, proc=1.0, remaining=30.0, size=1e6),
            make_task(2, arrival=0.2, proc=1.0, remaining=30.0, size=1e6),
        ]

    def test_refuses_oversized_instances(self):
        tasks = [
            make_task(i, arrival=0.0, proc=1.0, remaining=20.0, size=1e6)
            for i in range(9)
        ]
        with pytest.raises(ValueError, match="exhaustive"):
            brute_force_oracle(tasks, CFG1, ChannelParams())

    def test_beats_arrival_order_when_it_should(self):
        tasks = self.three_task_spt_case()
        plan = brute_force_oracle(tasks, CFG1, ChannelParams())
        base = prepare_tasks(tasks, ChannelParams())
        fcfs_obj = objective(replay_ordering(base, (0, 1, 2), 1), CFG1.lambda_weight)
        assert plan.objective < fcfs_obj
        assert plan.ordering[0] != 0

    def test_reported_objective_matches_its_replay(self):
        tasks = self.three_task_spt_case()
        plan = brute_force_oracle(tasks, CFG2, ChannelParams())
        base = prepare_tasks(tasks, ChannelParams())
        replayed = objective(
            replay_ordering(base, plan.ordering, CFG2.num_mecs), CFG2.lambda_weight
        )
        assert replayed == plan.objective

    def test_identical_tasks_tie_lexicographically(self):
        tasks = [
            make_task(0, arrival=0.0, proc=1.0, remaining=20.0, size=1e6, vehicle=0),
            make_task(1, arrival=0.0, proc=1.0, remaining=20.0, size=1e6, vehicle=1),
        ]
        plan = brute_force_oracle(tasks, CFG2, ChannelParams())
        assert plan.ordering == (0, 1)

    def test_single_task(self):
        tasks = [make_task(0, arrival=0.0, proc=1.0, remaining=20.0, size=1e6)]
        plan = brute_force_oracle(tasks, CFG1, ChannelParams())
        assert plan.ordering == (0,)
        # alone on the band: comm = 1e6 / 20e6 s, latency = proc + 2*comm
        assert math.isclose(plan.objective, 0.4 * (1.0 + 2 * 0.05))

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
    @settings(max_examples=20)
    def test_oracle_is_a_lower_bound(self, seed, n):
        tasks = make_task_set(np.random.default_rng(seed), n)
        plan = brute_force_oracle(tasks, CFG2, ChannelParams())
        base = prepare_tasks(tasks, ChannelParams())
        for order in [
            tuple(range(n)),
            tuple(sorted(range(n), key=lambda i: base[i].deadline)),
            tuple(reversed(range(n))),
        ]:
            assert plan.objective <= objective(
                replay_ordering(base, order, 2), CFG2.lambda_weight
            ) + 1e-12


class TestStaticPso:
    def test_empty_episode(self):
        plan = pso_optimize_static([], CFG2, ChannelParams(), FAST_PSO, seed=0)
        assert plan == AssignmentPlan(ordering=(), objective=0.0)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8))
    @settings(max_examples=15)
    def test_never_worse_than_its_warm_starts(self, seed, n):
        tasks = make_task_set(np.random.default_rng(seed), n)
        base = prepare_tasks(tasks, ChannelParams())
        plan = pso_optimize_static(tasks, CFG2, ChannelParams(), FAST_PSO, seed=seed)
        arrival_order = tuple(
            sorted(range(n), key=lambda i: (base[i].arrival, base[i].id))
        )
        deadline_order = tuple(
            sorted(range(n), key=lambda i: (base[i].deadline, base[i].id))
        )
        for order in (arrival_order, deadline_order):
            assert plan.objective <= objective(
                replay_ordering(base, order, 2), CFG2.lambda_weight
            ) + 1e-12

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
    @settings(max_examples=10)
    def test_seeded_with_the_optimum_it_returns_the_optimum(self, seed, n):
        tasks = make_task_set(np.random.default_rng(seed), n)
        oracle = brute_force_oracle(tasks, CFG2, ChannelParams())
        plan = pso_optimize_static(
            tasks, CFG2, ChannelParams(), FAST_PSO, seed=seed,
            seed_orderings=[oracle.ordering],
        )
        # sandwiched: cannot beat the optimum, cannot lose its warm start
        assert math.isclose(plan.objective, oracle.objective, abs_tol=1e-12)

    def test_deterministic_for_fixed_seed(self, rng):
        tasks = make_task_set(rng, 6)
        a = pso_optimize_static(tasks, CFG2, ChannelParams(), FAST_PSO, seed=3)
        b = pso_optimize_static(tasks, CFG2, ChannelParams(), FAST_PSO, seed=3)
        assert a == b

    def test_a_warm_start_beyond_the_swarm_size_is_kept(self):
        # two particles, three starts: the caller's optimum comes third
        tasks = make_task_set(np.random.default_rng(0), 6, tight_deadlines=True)
        oracle = brute_force_oracle(tasks, CFG1, ChannelParams())
        plan = pso_optimize_static(
            tasks, CFG1, ChannelParams(), PsoParams(swarm_size=2, iterations_static=0),
            seed=0, seed_orderings=[oracle.ordering],
        )
        assert math.isclose(plan.objective, oracle.objective, abs_tol=1e-12)

    @given(
        data=st.data(),
        n=st.integers(1, 7),
        swarm=st.integers(1, 3),
        iterations=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_any_warm_start_whatever_the_swarm_size(
        self, data, n, swarm, iterations, seed
    ):
        tasks = make_task_set(np.random.default_rng(seed), n, tight_deadlines=True)
        base = prepare_tasks(tasks, ChannelParams())
        seeded = data.draw(st.lists(st.permutations(range(n)), max_size=4))
        pso = PsoParams(swarm_size=swarm, iterations_static=iterations)
        plan = pso_optimize_static(
            tasks, CFG1, ChannelParams(), pso, seed=seed, seed_orderings=seeded
        )
        starts = [
            sorted(range(n), key=lambda i: (base[i].arrival, base[i].id)),
            sorted(range(n), key=lambda i: (base[i].deadline, base[i].id)),
            *seeded,
        ]
        for start in starts:
            assert plan.objective <= objective(
                replay_ordering(base, start, 1), CFG1.lambda_weight
            ) + 1e-12

    @pytest.mark.parametrize(
        "warm", [(0, 1), (0, 0, 1, 1, 2, 2), tuple(range(7))], ids=["short", "repeats", "long"]
    )
    def test_rejects_a_warm_start_that_is_not_a_permutation(self, rng, warm):
        tasks = make_task_set(rng, 6)
        with pytest.raises(ValueError, match="must be a permutation of task positions"):
            pso_optimize_static(
                tasks, CFG2, ChannelParams(), FAST_PSO, seed=3, seed_orderings=[warm]
            )


class TestDynamicPso:
    def test_single_task_window_short_circuits(self):
        sched = DynamicPsoScheduler(FAST_PSO, 0.4, seed=5)
        state_before = sched._rng.bit_generator.state
        w = window_of([make_task(0, arrival=0.0, proc=1.0, remaining=20.0, comm=0.1)])
        assert sched.select(w, [MecState(id=1)], now=0.0) == 0
        assert sched._rng.bit_generator.state == state_before

    def test_empty_window_rejected(self):
        sched = DynamicPsoScheduler(FAST_PSO, 0.4)
        empty = DecisionWindow(index=1, queued=[], feasible=[], earliest_avail=0.0)
        with pytest.raises(ValueError):
            sched.select(empty, [MecState(id=1)], now=0.0)

    def test_frozen_swarm_takes_the_window_head(self):
        # one particle pinned at the arrival-order keys with zero weights
        # has zero velocity and cannot move: the search degenerates to
        # "pick index 0"
        params = PsoParams(swarm_size=1, iterations_dynamic=5, inertia=0.0, c1=0.0, c2=0.0)
        sched = DynamicPsoScheduler(params, 0.4, seed=9)
        tasks = [
            make_task(0, arrival=0.0, proc=5.0, remaining=30.0, comm=0.1),
            make_task(1, arrival=0.1, proc=1.0, remaining=30.0, comm=0.1),
        ]
        assert sched.select(window_of(tasks), [MecState(id=1)], now=0.0) == 0

    def test_rescues_an_urgent_task_when_that_is_cheap(self):
        # serving the tiny urgent task first delays the long one by 0.05 s;
        # serving the long one first expires the urgent one, and here the
        # drop penalty (0.6 * 1/2) outweighs the latency saved by dropping
        sched = DynamicPsoScheduler(PsoParams(), 0.4, seed=2)
        tasks = [
            make_task(0, arrival=0.0, proc=2.0, remaining=30.0, comm=0.01),
            make_task(1, arrival=0.0, proc=0.05, remaining=0.2, comm=0.01),
        ]
        assert sched.select(window_of(tasks), [MecState(id=1)], now=0.0) == 1


def uncached_select(sched, window, mecs):
    """``DynamicPsoScheduler.select``'s search with every ordering replayed."""
    feas = window.feasible
    avails = [m.available_at for m in mecs]
    columns = _columns(feas)
    _, ordering = swarm_search(
        lambda order: replay_cost(order, avails, *columns, sched._lam),
        len(feas), [range(len(feas))], sched._p.iterations_dynamic, sched._p, sched._rng,
    )
    return ordering[0]


def counting_replays(monkeypatch):
    """Patch ``replay_cost`` to record every (ordering, availabilities) it replays."""
    calls = []

    def counted(order, avails, *rest):
        calls.append((order, tuple(avails)))
        return replay_cost(order, avails, *rest)

    monkeypatch.setattr(heuristics, "replay_cost", counted)
    return calls


class TestDynamicPsoScoreCache:
    @given(
        seed=st.integers(0, 2**31 - 1),
        w=st.integers(2, 10),
        avails=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
        tight=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_select_matches_the_uncached_search(self, seed, w, avails, tight):
        tasks = make_task_set(np.random.default_rng(seed), w, tight_deadlines=tight)
        mecs = [MecState(id=j + 1, available_at=a) for j, a in enumerate(avails)]
        cached = DynamicPsoScheduler(FAST_PSO, 0.4, seed=seed)
        reference = DynamicPsoScheduler(FAST_PSO, 0.4, seed=seed)
        for _ in range(2):  # the second window starts from the advanced rng
            assert cached.select(window_of(tasks), mecs, now=0.0) == uncached_select(
                reference, window_of(tasks), mecs
            )
            assert cached._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_replays_each_distinct_ordering_once(self, monkeypatch, rng):
        calls = counting_replays(monkeypatch)
        decoded = []

        def recording_decode(x):
            orders = decode_priorities(x)
            decoded.extend(orders)
            return orders

        monkeypatch.setattr(heuristics, "decode_priorities", recording_decode)
        sched = DynamicPsoScheduler(PsoParams(), 0.4, seed=1)
        for w in (2, 3, 6):
            calls.clear()
            decoded.clear()
            sched.select(window_of(make_task_set(rng, w)), [MecState(id=1), MecState(id=2)], 0.0)
            assert sorted(order for order, _ in calls) == sorted(set(decoded))
        # a 2-task window has two orderings; its 50 x 31 particles replay at most those
        calls.clear()
        sched.select(window_of(make_task_set(rng, 2)), [MecState(id=1)], 0.0)
        assert 1 <= len(calls) <= 2

    def test_a_new_window_is_scored_afresh(self, monkeypatch, rng):
        calls = counting_replays(monkeypatch)
        sched = DynamicPsoScheduler(FAST_PSO, 0.4, seed=3)
        tasks = make_task_set(rng, 4)
        sched.select(window_of(tasks), [MecState(id=1, available_at=0.0)], 0.0)
        first = set(calls)
        calls.clear()
        sched.select(window_of(tasks), [MecState(id=1, available_at=2.5)], 0.0)
        assert calls and len(calls) == len(set(calls))
        assert all(avails == (2.5,) for _, avails in calls)
        # orderings scored in the first window are replayed again, not reused
        assert {order for order, _ in first} & {order for order, _ in calls}


class TestInducedOrdering:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 20), tight=st.booleans())
    @settings(max_examples=30)
    def test_replaying_an_episode_reproduces_its_objective(self, seed, n, tight):
        tasks = make_task_set(np.random.default_rng(seed), n, tight_deadlines=tight)
        for scheduler in (FcfsScheduler(), SdfScheduler()):
            result = run_episode(tasks, scheduler, CFG2, ChannelParams(), exec_cost=0.0)
            base = prepare_tasks(tasks, ChannelParams())
            replayed = replay_ordering(base, induced_ordering(result), 2)
            assert math.isclose(
                objective(replayed, 0.4), objective(result, 0.4), abs_tol=1e-12
            )

    def test_dropped_tasks_sort_last(self):
        tasks = [
            make_task(0, arrival=0.0, proc=5.0, remaining=30.0, comm=0.05),
            make_task(1, arrival=0.0, proc=1.0, remaining=2.0, comm=0.05),
        ]
        result = replay_ordering(tasks, (0, 1), 1)
        assert induced_ordering(result) == (0, 1)
        assert result.tasks[1].status is TaskStatus.DROPPED


class TestPsoParams:
    def test_round_trip(self):
        p = PsoParams(swarm_size=12, iterations_static=7)
        assert config_from_dict({"pso": section_to_dict(p)}).pso == p
