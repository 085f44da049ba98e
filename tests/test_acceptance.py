"""Acceptance gate: one test per shipping requirement.

Every test computes its verdict, prints a single [PASS]/[FAIL] line on
the real stdout so the whole gate reads as a checklist even under
captured output, then asserts. The trained policies and the 100-vehicle
comparison matrix are built once and shared; the first test that needs
them pays the wall-clock cost.
"""

import dataclasses
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fd_gradient_gap
from vecoff.config import default_config
from vecoff.domain import ChannelParams, SimConfig, Task, TaskStatus
from vecoff.engine import DecisionWindow, objective, run_episode
from vecoff.experiments import (
    ALGO_TAGS,
    build_episode_tasks,
    run_matrix,
)
from vecoff.heuristics import (
    DynamicPsoScheduler,
    FcfsScheduler,
    RandomScheduler,
    SdfScheduler,
    brute_force_oracle,
    pso_optimize_static,
)
from vecoff.rl.dqn import train_dqn
from vecoff.rl.envs import OffloadEnv, ToyTwoActionEnv
from vecoff.rl.nets import Mlp
from vecoff.rl.params import DqnParams
from vecoff.rl.policy import PolicyScheduler, load_policy, masked_argmax, save_policy
from vecoff.rl.ppo import train_ppo
from vecoff.rl.reward import decision_reward

TEN_SEEDS = tuple(range(1, 11))


def gate(ok: bool, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


@pytest.fixture(scope="module")
def trained():
    """Both policies at full training budgets, trained once."""
    cfg = default_config()

    def practice_env(seed):
        return OffloadEnv(
            cfg.geometry, cfg.workload, cfg.sim, cfg.channel, cfg.encoder,
            cfg.train_vehicles, seed,
        )

    t0 = time.perf_counter()
    dqn = train_dqn(practice_env(401), cfg.dqn, seed=41)
    dqn_wall = time.perf_counter() - t0
    ppo = train_ppo(practice_env(402), cfg.ppo, seed=42)
    return SimpleNamespace(
        cfg=cfg,
        dqn=dqn,
        ppo=ppo,
        dqn_wall=dqn_wall,
        policies={"dqn": dqn.policy, "ppo": ppo.policy},
    )


@pytest.fixture(scope="module")
def hundred_matrix(trained):
    """Charged 100-vehicle comparison with real wall-clock decisions."""
    report = run_matrix(
        trained.cfg,
        algos=["dqn", "ppo", "on-dyn-pso"],
        vehicle_counts=[100],
        seeds=TEN_SEEDS,
        policies=trained.policies,
    )
    rows = {}
    for r in report.rows:
        rows.setdefault(r.algo, []).append(r)
    return rows


def test_01_small_instance_oracle_bound():
    cfg_master = default_config()
    chan = cfg_master.channel
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    exact_hits = 0
    worst_gap = 0.0
    for i in range(50):
        n = int(rng.integers(2, 7))
        m = 1 + i % 2
        tasks = []
        for tid in range(n):
            arrival = float(rng.uniform(0.0, 3.0))
            remaining = float(rng.uniform(0.8, 8.0))
            tasks.append(Task(
                id=tid, vehicle_id=tid, arrival=arrival,
                size=float(rng.uniform(0.5e6, 8e6)),
                proc_time=float(rng.uniform(0.05, 0.5)),
                remaining_in_range=remaining,
            ))
        sim = SimConfig(num_mecs=m, num_vehicles=n, rng_seed=1,
                        charge_exec_time=False)
        plan = brute_force_oracle(tasks, sim, chan)
        static = pso_optimize_static(tasks, sim, chan, cfg_master.pso, seed=i)
        if rel(static.objective, plan.objective) <= 1e-9:
            exact_hits += 1
        assert static.objective >= plan.objective - 1e-12
        dynamics = (
            FcfsScheduler(),
            SdfScheduler(),
            DynamicPsoScheduler(cfg_master.pso, sim.lambda_weight, seed=i),
        )
        for sched in dynamics:
            res = run_episode(tasks, sched, sim, chan, exec_cost=0.0)
            worst_gap = min(worst_gap, objective(res, sim.lambda_weight) - plan.objective)
    elapsed = time.perf_counter() - t0
    ok = worst_gap >= -1e-9 and exact_hits >= 45 and elapsed < 60.0
    gate(ok, "01 small-instance oracle bound",
         f"worst gap {worst_gap:+.2e}, swarm matched the oracle on "
         f"{exact_hits}/50, {elapsed:.1f} s")


def test_02_offline_bound_over_dynamic_runs(trained):
    report = run_matrix(
        trained.cfg, algos=list(ALGO_TAGS), vehicle_counts=[50],
        seeds=TEN_SEEDS, policies=trained.policies,
    )
    by_algo: dict[str, dict[int, float]] = {}
    for r in report.rows:
        by_algo.setdefault(r.algo, {})[r.seed] = r.objective
    violations = 0
    smallest_gap = float("inf")
    for seed in TEN_SEEDS:
        bound = by_algo["off-sta-pso"][seed]
        for algo in ALGO_TAGS:
            if algo == "off-sta-pso":
                continue
            gap = by_algo[algo][seed] - bound
            smallest_gap = min(smallest_gap, gap)
            if gap < -1e-9:
                violations += 1
    gate(violations == 0, "02 offline bound over dynamic runs",
         f"{violations} violations over 10 seeds x 5 dynamics, "
         f"smallest gap {smallest_gap:+.4f}")


def test_03_latency_closed_form():
    rng = np.random.default_rng(7)
    sched = FcfsScheduler()
    worst = 0.0
    for i in range(1000):
        chan = ChannelParams(
            bandwidth_max=float(rng.uniform(5e6, 40e6)),
            tx_power=float(rng.uniform(0.5, 4.0)),
            channel_gain=float(rng.uniform(0.25, 2.0)),
            noise_density=float(rng.uniform(0.5, 2.0)),
        )
        size = float(rng.uniform(1e5, 1e7))
        proc = float(rng.uniform(0.02, 1.5))
        arrival = float(rng.uniform(0.0, 5.0))
        link = chan.bandwidth_max * math.log2(1.0 + chan.snr)
        comm = size / link
        remaining = proc + 2.0 * comm + 0.5
        task = Task(id=0, vehicle_id=0, arrival=arrival, size=size,
                    proc_time=proc, remaining_in_range=remaining)
        sim = SimConfig(num_mecs=2, num_vehicles=1, rng_seed=1,
                        charge_exec_time=False)
        res = run_episode([task], sched, sim, chan, exec_cost=0.0)
        got = res.tasks[0]
        assert got.status is TaskStatus.COMPLETED
        worst = max(
            worst,
            rel(got.comm_time, comm),
            rel(got.comp_latency, proc),
            rel(got.e2e_latency, proc + 2.0 * comm),
        )
    gate(worst <= 1e-9, "03 latency closed form",
         f"worst relative error {worst:.2e} over 1000 single-task runs")


def test_04_bandwidth_conservation():
    cfg = default_config()
    band = cfg.channel.bandwidth_max
    singles = multi = 0
    worst = 0.0
    exact_singles = True
    for tasks_per_vehicle in (1, 3):
        sim = dataclasses.replace(
            cfg.sim, num_vehicles=200, tasks_per_vehicle=tasks_per_vehicle,
            charge_exec_time=False,
        )
        _, tasks = build_episode_tasks(
            dataclasses.replace(cfg, sim=sim), 200, seed=1,
        )
        res = run_episode(tasks, FcfsScheduler(), sim, cfg.channel, exec_cost=0.0)
        for ev in res.bandwidth_events:
            total = sum(ev.allocations)
            if len(ev.task_ids) == 1:
                singles += 1
                exact_singles &= ev.allocations[0] == band
            else:
                multi += 1
                worst = max(worst, rel(total, band))
    ok = exact_singles and worst <= 1e-9 and multi > 0
    gate(ok, "04 bandwidth conservation",
         f"{singles} lone offloads at exactly {band:.0f} Hz, "
         f"{multi} shared instants conserved to {worst:.2e}")


def _fabricated_window(rng, w: int, scale: float = 1.0) -> DecisionWindow:
    t_av = float(rng.uniform(0.0, 10.0))
    tasks = []
    for i in range(w):
        gap = float(rng.uniform(0.1, 20.0)) * scale
        deadline = t_av + gap
        tasks.append(Task(
            id=i, vehicle_id=i, arrival=0.0, size=1e6,
            proc_time=float(rng.uniform(0.05, 3.0)),
            remaining_in_range=deadline,
        ))
    return DecisionWindow(index=1, queued=list(tasks), feasible=list(tasks),
                          earliest_avail=t_av)


def test_05_reward_algebra():
    rng = np.random.default_rng(11)
    worst_scale_drift = 0.0
    for _ in range(10_000):
        w = int(rng.integers(2, 11))
        window = _fabricated_window(rng, w)
        picks = [decision_reward(window, c) for c in range(w)]
        for b in picks:
            assert b.r_total == b.r_drop + b.r_latency
        gaps = picks[0].gaps
        procs = [t.proc_time for t in window.feasible]
        best_drop = max(b.r_drop for b in picks)
        best_lat = max(b.r_latency for b in picks)
        assert picks[int(np.argmin(gaps))].r_drop == best_drop
        assert picks[int(np.argmin(procs))].r_latency == best_lat
        # stretching every deadline gap by the same factor moves no reward
        stretched = dataclasses.replace(
            window,
            queued=[dataclasses.replace(
                t, remaining_in_range=window.earliest_avail + 3.0 * g,
            ) for t, g in zip(window.queued, gaps)],
        )
        stretched.feasible = list(stretched.queued)
        c = int(rng.integers(0, w))
        worst_scale_drift = max(
            worst_scale_drift,
            rel(decision_reward(stretched, c).r_drop, picks[c].r_drop),
        )
    gate(worst_scale_drift <= 1e-9, "05 reward algebra",
         f"totals exact, enumeration agrees, gap-scaling drift "
         f"{worst_scale_drift:.2e} over 10000 windows")


def test_06_single_candidate_reward_is_zero():
    rng = np.random.default_rng(13)
    for _ in range(500):
        window = _fabricated_window(rng, 1)
        b = decision_reward(window, 0)
        assert b.r_drop == 0.0 and b.r_latency == 0.0 and b.r_total == 0.0
    gate(True, "06 single-candidate reward",
         "500 windows of one task all scored exactly zero")


def test_07_learning_signal(trained):
    toy = train_dqn(
        ToyTwoActionEnv(seed=1),
        DqnParams(episodes=500, eval_every=100, eval_episodes=5),
        seed=1,
    )
    probe = ToyTwoActionEnv(seed=99)
    net = toy.policy.networks["q"]
    hits = 0
    for _ in range(400):
        state, mask = probe.reset()
        hits += masked_argmax(net.forward(state), mask) == probe.best_action
    accuracy = hits / 400

    curve = trained.dqn.reward_curve
    k = len(curve) // 10
    first = sum(curve[:k]) / k
    last = sum(curve[-k:]) / k
    growth = last / first
    ok = accuracy >= 0.99 and growth >= 1.2 and trained.dqn_wall <= 1800.0
    gate(ok, "07 learning signal",
         f"toy accuracy {accuracy:.3f} in 500 episodes; full curve "
         f"{first:.0f} -> {last:.0f} (x{growth:.2f}) trained in "
         f"{trained.dqn_wall:.0f} s")


def test_08_decision_speed_ordering(hundred_matrix):
    per_window = {
        algo: sum(r.total_exec_s for r in rows) / sum(r.windows for r in rows)
        for algo, rows in hundred_matrix.items()
    }
    speedup = per_window["on-dyn-pso"] / per_window["dqn"]
    ok = (per_window["dqn"] < per_window["ppo"] < per_window["on-dyn-pso"]
          and speedup >= 10.0)
    gate(ok, "08 decision speed ordering",
         f"per window dqn {per_window['dqn']*1e3:.3f} ms < ppo "
         f"{per_window['ppo']*1e3:.3f} ms < swarm "
         f"{per_window['on-dyn-pso']*1e3:.3f} ms, speedup x{speedup:.0f}")


def test_09_scheduling_quality_direction(hundred_matrix):
    mean = lambda rows, f: sum(f(r) for r in rows) / len(rows)
    drops = {a: mean(r, lambda x: x.drop_ratio) for a, r in hundred_matrix.items()}
    e2e = {a: mean(r, lambda x: x.mean_e2e_s) for a, r in hundred_matrix.items()}
    ok = drops["dqn"] <= drops["on-dyn-pso"] and e2e["dqn"] <= e2e["on-dyn-pso"]
    gate(ok, "09 scheduling quality direction",
         f"drop ratio {drops['dqn']:.4f} vs swarm {drops['on-dyn-pso']:.4f}; "
         f"e2e {e2e['dqn']:.4f} s vs {e2e['on-dyn-pso']:.4f} s")


def test_10_window_count_bands(trained):
    # reference decision-window counts 20/62/178 at the three densities,
    # accepted within +-50%
    bands = {50: (10, 30), 100: (31, 93), 200: (89, 267)}
    report = run_matrix(
        trained.cfg, algos=["dqn"], vehicle_counts=list(bands),
        seeds=TEN_SEEDS, policies=trained.policies,
    )
    means = {}
    for vehicles in bands:
        rows = [r for r in report.rows if r.vehicles == vehicles]
        means[vehicles] = sum(r.windows for r in rows) / len(rows)
    ok = all(bands[v][0] <= means[v] <= bands[v][1] for v in bands)
    gate(ok, "10 window count bands",
         "; ".join(f"{v} vehicles: mean {means[v]:.1f} in {bands[v]}"
                   for v in bands))


def test_11_engine_invariant_fuzz():
    rng = np.random.default_rng(17)
    chan = default_config().channel
    completed_total = dropped_total = 0
    for i in range(10_000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        tasks = []
        for tid in range(n):
            arrival = float(rng.uniform(0.0, 4.0))
            remaining = float(rng.uniform(0.05, 6.0))
            tasks.append(Task(
                id=tid, vehicle_id=tid, arrival=arrival,
                size=float(rng.uniform(1e5, 5e6)),
                proc_time=float(rng.uniform(0.05, 1.5)),
                remaining_in_range=remaining,
            ))
        sim = SimConfig(num_mecs=m, num_vehicles=n, rng_seed=1,
                        charge_exec_time=bool(i % 2))
        sched = (FcfsScheduler(), SdfScheduler(), RandomScheduler(seed=i))[i % 3]
        cost = (0.0, 1e-3, 0.05)[i % 3]
        res = run_episode(tasks, sched, sim, chan, exec_cost=cost)
        assert len(res.completed) + res.num_dropped == n
        completed_total += len(res.completed)
        dropped_total += res.num_dropped
        for t in res.completed:
            assert t.waiting >= 0.0
            assert t.assigned_mec is not None
            delivered = t.start_proc + t.proc_time + t.comm_time
            assert delivered <= t.deadline + 1e-9
        for t in res.dropped:
            assert t.assigned_mec is None
        for sid in range(1, m + 1):
            spans = sorted(
                (t.start_proc, t.start_proc + t.proc_time)
                for t in res.completed if t.assigned_mec == sid
            )
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert s0 <= e0 <= s1 <= e1
    gate(True, "11 engine invariant fuzz",
         f"10000 episodes clean ({completed_total} completions, "
         f"{dropped_total} drops)")


def test_12_reproducible_reports(trained, tmp_path):
    costs = {"off-sta-pso": 2.0, "on-dyn-pso": 0.02, "dqn": 5e-4,
             "ppo": 1e-3, "fcfs": 1e-5, "sdf": 1e-5}
    blobs = []
    for run in range(2):
        report = run_matrix(
            trained.cfg, algos=list(ALGO_TAGS), vehicle_counts=[50],
            seeds=(1, 2, 3), policies=trained.policies,
            synthetic_costs=costs,
        )
        csv_path = tmp_path / f"report-{run}.csv"
        json_path = tmp_path / f"report-{run}.json"
        report.to_csv(str(csv_path))
        report.to_json(str(json_path))
        blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok = blobs[0] == blobs[1]
    gate(ok, "12 reproducible reports",
         f"two fixed-cost runs agree byte for byte "
         f"({len(blobs[0][0])} csv bytes, {len(blobs[0][1])} json bytes)")


class _RecordingScheduler:
    def __init__(self, inner):
        self.inner = inner
        self.choices = []

    def select(self, window, mecs, now):
        choice = self.inner.select(window, mecs, now)
        self.choices.append(choice)
        return choice


def test_13_policy_persistence_round_trip(trained, tmp_path):
    cfg = trained.cfg
    sim = dataclasses.replace(cfg.sim, num_vehicles=100, rng_seed=21,
                              charge_exec_time=False)
    _, tasks = build_episode_tasks(cfg, 100, seed=21)
    details = []
    for tag in ("dqn", "ppo"):
        policy = trained.policies[tag]
        path = tmp_path / f"{tag}.json"
        save_policy(policy, str(path))
        reloaded = load_policy(str(path))
        live = _RecordingScheduler(PolicyScheduler(policy))
        disk = _RecordingScheduler(PolicyScheduler(reloaded))
        res_live = run_episode(tasks, live, sim, cfg.channel, exec_cost=0.0)
        res_disk = run_episode(tasks, disk, sim, cfg.channel, exec_cost=0.0)
        assert live.choices == disk.choices and len(live.choices) > 0
        obj_live = objective(res_live, sim.lambda_weight)
        obj_disk = objective(res_disk, sim.lambda_weight)
        assert obj_live == obj_disk
        details.append(f"{tag} {len(live.choices)} decisions, "
                       f"objective {obj_live:.6f}")
    gate(True, "13 policy persistence", "; ".join(details))


def test_14_gradient_check():
    rng = np.random.default_rng(23)
    worst = 0.0
    for i in range(20):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(3, 11)) for _ in range(depth + 1)]
        net = Mlp(sizes, rng=rng, activation=("relu", "tanh")[i % 2])
        worst = max(worst, fd_gradient_gap(net, rng))
    gate(worst < 1e-4, "14 gradient check",
         f"worst backprop vs central-difference gap {worst:.2e} "
         f"over 20 networks")
