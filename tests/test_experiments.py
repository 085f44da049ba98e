import dataclasses
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest

from vecoff import engine, experiments, heuristics
from vecoff.config import default_config
from vecoff.domain import ChannelParams, SimConfig
from vecoff.engine import objective, prepare_episode
from vecoff.experiments import (
    ALGO_TAGS,
    CSV_COLUMNS,
    MetricsReport,
    RunRow,
    build_episode_tasks,
    export_report,
    make_scheduler,
    run_cell,
    run_matrix,
)
from vecoff.heuristics import PsoParams, replay_ordering
from vecoff.rl.encoding import EncoderSpec
from vecoff.rl.nets import Mlp
from vecoff.rl.policy import Policy

from conftest import make_task


def small_config():
    cfg = default_config()
    cfg.pso = PsoParams(swarm_size=8, iterations_static=10, iterations_dynamic=5)
    return cfg


def one_task_result(proc=9.8, comm=0.1, remaining=30.0):
    t = make_task(0, arrival=0.0, proc=proc, remaining=remaining, comm=comm)
    return replay_ordering([t], (0,), 1)


class TestObjective:
    def test_latency_term(self):
        # waiting 0: e2e = proc + 2 * comm = 10 s
        result = one_task_result()
        assert math.isclose(objective(result, 0.4), 4.0)
        assert math.isclose(objective(result, 1.0), 10.0)

    def test_drop_term(self):
        t = make_task(0, arrival=0.0, proc=5.0, remaining=1.0, comm=0.1)
        result = replay_ordering([t], (0,), 1)
        assert result.num_dropped == 1
        assert math.isclose(objective(result, 0.4), 0.6)
        assert objective(result, 1.0) == 0.0

    def test_lambda_zero_is_the_drop_ratio(self):
        kept = make_task(0, arrival=0.0, proc=1.0, remaining=30.0, comm=0.1)
        lost = make_task(1, arrival=0.0, proc=5.0, remaining=1.0, comm=0.1)
        result = replay_ordering([kept, lost], (0, 1), 1)
        assert math.isclose(objective(result, 0.0), 0.5)

    def test_empty_result_scores_zero(self):
        result = replay_ordering([], (), 1)
        assert objective(result, 0.4) == 0.0
        assert RunRow.from_result("fcfs", 0, "1", 1, result, 0.4).objective_normalized == 0.0

    def test_normalized_divides_by_horizon(self):
        result = one_task_result()  # deadline 30, one task
        row = RunRow.from_result("fcfs", 1, "1", 1, result, 0.4)
        assert math.isclose(row.objective_normalized, 0.4 * 10.0 / 30.0)


class TestRunRow:
    def test_round_trip(self):
        result = one_task_result()
        row = RunRow.from_result("fcfs", 50, "1", 7, result, 0.4)
        assert RunRow.from_dict(row.to_dict()) == row

    def test_objectives_are_the_engines(self):
        # a column with drops, so both objective terms count
        cfg = small_config()
        row, result = run_cell(cfg, "fcfs", 200, "1", seed=3, synthetic_costs={"fcfs": 0.0})
        assert result.num_dropped > 0
        assert row.objective == objective(result, 0.4)
        n, drops = result.num_tasks, result.num_dropped
        lat = math.fsum(t.e2e_latency for t in result.completed)
        horizon = n * max(t.deadline for t in result.tasks)
        assert row.objective_normalized == 0.4 * lat / horizon + (1.0 - 0.4) * drops / n
        assert row.drop_ratio == result.num_dropped / result.num_tasks

    def test_log10_of_per_window_cost(self):
        cfg = small_config()
        row, result = run_cell(
            cfg, "fcfs", 50, "1", seed=1, synthetic_costs={"fcfs": 0.014}
        )
        assert result.num_windows >= 1
        assert math.isclose(row.per_window_exec_s, 0.014)
        assert math.isclose(row.log10_exec, math.log10(0.014))
        assert math.isclose(row.log10_exec, -1.8538719643217616)

    def test_offline_cost_is_a_total_not_per_window(self):
        cfg = small_config()
        row, result = run_cell(
            cfg, "off-sta-pso", 20, "1", seed=1, synthetic_costs={"off-sta-pso": 2.0}
        )
        assert row.total_exec_s == 2.0
        assert row.windows == 0
        assert math.isclose(row.log10_exec, math.log10(2.0))

    def test_drop_and_completion_partition(self):
        cfg = small_config()
        row, result = run_cell(cfg, "sdf", 30, "1", seed=3, synthetic_costs={"sdf": 0.0})
        assert len(result.completed) + len(result.dropped) == result.num_tasks
        assert math.isclose(
            row.drop_ratio, result.num_dropped / result.num_tasks, abs_tol=1e-12
        )


class TestReportSerialization:
    def small_report(self, tmp_path):
        cfg = small_config()
        return run_matrix(
            cfg,
            algos=("fcfs", "sdf"),
            vehicle_counts=(20,),
            seeds=(1, 2),
            synthetic_costs={"fcfs": 0.0, "sdf": 0.0},
        )

    def test_csv_round_trip_is_exact(self, tmp_path):
        report = self.small_report(tmp_path)
        path = tmp_path / "report.csv"
        report.to_csv(str(path))
        back = MetricsReport.from_csv(str(path))
        assert back.rows == report.rows
        assert back.means == report.means

    def test_json_round_trip_is_exact(self, tmp_path):
        report = self.small_report(tmp_path)
        path = tmp_path / "report.json"
        report.to_json(str(path))
        back = MetricsReport.from_json(str(path))
        assert back.rows == report.rows
        assert back.means == report.means

    def test_csv_header_is_stable(self, tmp_path):
        path = tmp_path / "empty.csv"
        MetricsReport().to_csv(str(path))
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)
        back = MetricsReport.from_csv(str(path))
        assert back.rows == [] and back.means == []

    def test_foreign_csv_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            MetricsReport.from_csv(str(path))

    def test_export_format_dispatch(self, tmp_path):
        report = MetricsReport()
        export_report(report, "csv", str(tmp_path / "r.csv"))
        export_report(report, "json", str(tmp_path / "r.json"))
        with pytest.raises(ValueError, match="format"):
            export_report(report, "yaml", str(tmp_path / "r.yaml"))

    def test_mean_rows_recompute_from_run_rows(self, tmp_path):
        report = self.small_report(tmp_path)
        for mean in report.means:
            cell = [
                r for r in report.rows
                if r.algo == mean.algo and r.vehicles == mean.vehicles
            ]
            assert len(cell) == 2
            assert math.isclose(
                mean.objective, sum(r.objective for r in cell) / 2, abs_tol=1e-12
            )
            assert math.isclose(
                mean.drop_ratio, sum(r.drop_ratio for r in cell) / 2, abs_tol=1e-12
            )
            assert mean.run == "mean" and mean.seed == -1


class TestEpisodeDump:
    def test_objective_recomputes_from_the_dump(self, tmp_path):
        cfg = small_config()
        row, result = run_cell(cfg, "fcfs", 20, "1", seed=1, synthetic_costs={"fcfs": 0.0})
        path = tmp_path / "episode.jsonl"
        result.to_jsonl(str(path))
        tasks = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "task"
        ]
        lat = math.fsum(t["e2e_latency"] for t in tasks if t["status"] == "completed")
        drops = sum(1 for t in tasks if t["status"] == "dropped")
        recomputed = 0.4 * lat + 0.6 * drops / len(tasks)
        assert recomputed == row.objective


class TestMatrix:
    def test_shape_and_caller_order(self):
        cfg = small_config()
        report = run_matrix(
            cfg,
            algos=("sdf", "off-sta-pso", "fcfs"),
            vehicle_counts=(20, 30),
            seeds=(1, 2),
            synthetic_costs={"sdf": 0.0, "fcfs": 0.0, "off-sta-pso": 1.0},
        )
        assert len(report.rows) == 3 * 2 * 2
        assert len(report.means) == 3 * 2
        assert [r.algo for r in report.rows[:6]] == ["sdf"] * 2 + ["off-sta-pso"] * 2 + ["fcfs"] * 2
        assert {r.vehicles for r in report.rows[:6]} == {20}
        assert [m.algo for m in report.means] == ["sdf", "off-sta-pso", "fcfs"] * 2

    def test_offline_bound_holds_per_seed(self):
        cfg = small_config()
        report = run_matrix(
            cfg,
            algos=("fcfs", "sdf", "off-sta-pso"),
            vehicle_counts=(30,),
            seeds=(1, 2, 3),
            synthetic_costs={"fcfs": 0.0, "sdf": 0.0, "off-sta-pso": 1.0},
        )
        by = {(r.algo, r.seed): r.objective for r in report.rows}
        for seed in (1, 2, 3):
            assert by[("off-sta-pso", seed)] <= by[("fcfs", seed)] + 1e-12
            assert by[("off-sta-pso", seed)] <= by[("sdf", seed)] + 1e-12

    def test_synthetic_rerun_is_identical(self):
        cfg = small_config()
        kwargs = dict(
            algos=("fcfs", "off-sta-pso"),
            vehicle_counts=(20,),
            seeds=(1, 2),
            synthetic_costs={"fcfs": 5e-5, "off-sta-pso": 1.0},
        )
        a = run_matrix(cfg, **kwargs)
        b = run_matrix(cfg, **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_matrix(small_config(), algos=("lifo",), vehicle_counts=(20,), seeds=(1,))

    def test_repeats_are_named_together(self):
        with pytest.raises(ValueError) as err:
            run_matrix(
                small_config(), algos=("fcfs", "sdf", "fcfs"), vehicle_counts=(20, 30, 20),
                seeds=(1, 2, 2, 1, 3),
            )
        assert str(err.value) == (
            "repeated algorithm tags 'fcfs'; repeated densities 20; repeated seeds 1, 2"
        )

    def test_an_empty_seed_list_is_named(self):
        with pytest.raises(ValueError, match="no seeds"):
            run_matrix(small_config(), algos=("fcfs",), vehicle_counts=(20,), seeds=())

    def test_every_policy_that_cannot_run_is_named_before_the_first_cell(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_cell", lambda *a, **k: pytest.fail("a cell ran"))
        rng = np.random.default_rng(0)

        def ppo_policy(num_mecs):
            enc = EncoderSpec(num_mecs=num_mecs, window_cap=16)
            nets = [Mlp([enc.state_dim, 4, out], rng=rng) for out in (enc.action_dim, 1)]
            return Policy("ppo", enc, dict(zip(("actor", "critic"), nets)))

        with pytest.raises(ValueError) as err:
            run_matrix(
                small_config(), algos=("fcfs", "dqn", "ppo"), vehicle_counts=(20,), seeds=(1,),
                policies={"dqn": ppo_policy(2), "ppo": ppo_policy(3)},
            )
        assert str(err.value) == (
            "policy trained for ppo cannot run as dqn; "
            "ppo policy encoder expects 3 servers, simulation has 2"
        )

    def test_each_column_is_prepared_once(self, monkeypatch):
        attaches = []
        for module in (engine, heuristics):
            real = module.attach_comm_times
            monkeypatch.setattr(
                module, "attach_comm_times", lambda *a, real=real: attaches.append(a) or real(*a)
            )
        cfg = small_config()
        enc = cfg.encoder
        rng = np.random.default_rng(0)
        q, actor, critic = (
            Mlp([enc.state_dim, 4, out], rng=rng) for out in (enc.action_dim, enc.action_dim, 1)
        )
        policies = {
            "dqn": Policy("dqn", enc, {"q": q}),
            "ppo": Policy("ppo", enc, {"actor": actor, "critic": critic}),
        }
        report = run_matrix(
            cfg, algos=ALGO_TAGS, vehicle_counts=(30,), seeds=(1,), policies=policies,
            synthetic_costs=dict.fromkeys(ALGO_TAGS, 0.0),
        )
        assert len(report.rows) == len(ALGO_TAGS)
        assert len(attaches) == 1

    def test_orderings_are_recovered_only_for_the_offline_swarm(self, monkeypatch):
        calls = []
        real = heuristics.induced_ordering
        monkeypatch.setattr(
            heuristics, "induced_ordering", lambda result: calls.append(1) or real(result)
        )
        kwargs = dict(vehicle_counts=(20, 30), seeds=(1, 2),
                      synthetic_costs={"fcfs": 1e-4, "sdf": 1e-4, "off-sta-pso": 1.0})
        online = run_matrix(small_config(), algos=("fcfs", "sdf"), **kwargs)
        assert calls == []
        both = run_matrix(small_config(), algos=("fcfs", "off-sta-pso", "sdf"), **kwargs)
        assert len(calls) == 2 * 2 * 2  # one per online cell
        assert online.rows == [r for r in both.rows if r.algo != "off-sta-pso"]

    @pytest.mark.parametrize("algo", ["fcfs", "off-sta-pso"])
    def test_a_prepared_column_runs_as_its_task_list(self, algo):
        cfg = small_config()
        _, tasks = build_episode_tasks(cfg, 30, 1)
        column = prepare_episode(tasks, cfg.channel)
        costs = {algo: 0.0}
        row, result = run_cell(cfg, algo, 30, "1", 1, synthetic_costs=costs, tasks=tasks)
        for _ in range(2):
            again, again_result = run_cell(
                cfg, algo, 30, "1", 1, synthetic_costs=costs, tasks=column
            )
            assert again == row
            assert again_result.tasks == result.tasks
            assert again_result.bandwidth_events == result.bandwidth_events
        assert all(t.comm_time is None for t in tasks)

    def test_fixed_cost_schedules_are_pinned(self):
        # exact objectives of the swarm and queue schedules; a refactor
        # that moves any schedule by one task changes these
        algos = ("fcfs", "sdf", "on-dyn-pso", "off-sta-pso")
        report = run_matrix(
            small_config(), algos=algos, vehicle_counts=(50,), seeds=(1, 2),
            synthetic_costs={a: 1e-4 for a in algos},
        )
        assert {(r.algo, r.seed): r.objective for r in report.rows} == {
            ("fcfs", 1): 24.452826478830215,
            ("fcfs", 2): 22.25508323951064,
            ("sdf", 1): 24.185964830944087,
            ("sdf", 2): 22.25508323951064,
            ("on-dyn-pso", 1): 23.732826478830216,
            ("on-dyn-pso", 2): 22.16937816617402,
            ("off-sta-pso", 1): 23.729186478830226,
            ("off-sta-pso", 2): 22.16897816617402,
        }

    def test_fixed_cost_bytes_are_pinned(self, tmp_path):
        # sha256 of the fixed-cost CSV at one and three tasks per vehicle and
        # of one contended --dump file; a change that moves these bytes on
        # purpose re-pins them and says why in CHANGES.md
        algos = ("fcfs", "sdf", "on-dyn-pso", "off-sta-pso")
        costs = {a: 1e-4 for a in algos}

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def config(tasks_per_vehicle):
            cfg = small_config()
            cfg.sim = dataclasses.replace(cfg.sim, tasks_per_vehicle=tasks_per_vehicle)
            return cfg

        digests = {}
        for k in (1, 3):
            report = run_matrix(
                config(k), algos=algos, vehicle_counts=(50,), seeds=(1, 2, 3),
                synthetic_costs=costs,
            )
            report.to_csv(str(tmp_path / f"{k}.csv"))
            digests[f"csv {k}"] = sha256(tmp_path / f"{k}.csv")
        _, result = run_cell(config(3), "on-dyn-pso", 50, "1", 1, synthetic_costs=costs)
        result.to_jsonl(str(tmp_path / "dump.jsonl"))
        digests["dump 3"] = sha256(tmp_path / "dump.jsonl")
        assert digests == {
            "csv 1": "eb4cabc99ca500dca7146e12c64c5e0ea8fe670a55f5fef7dfbf7a585e05758a",
            "csv 3": "a8efdbd8574b8a544211621a0f065d7c717c099558998ee969d9acc296e7b4c7",
            "dump 3": "2b8c46ea986b80781be286457369dff6ef11a63cabf2929e57647fa124cf8c07",
        }


class TestMakeScheduler:
    def test_heuristic_tags(self):
        cfg = small_config()
        assert make_scheduler("fcfs", cfg, 1).name == "fcfs"
        assert make_scheduler("sdf", cfg, 1).name == "sdf"
        assert make_scheduler("on-dyn-pso", cfg, 1).name == "on-dyn-pso"

    def test_rl_tag_requires_policy(self):
        with pytest.raises(ValueError, match="trained policy"):
            make_scheduler("dqn", small_config(), 1)

    def test_policy_algorithm_must_match_tag(self):
        enc = EncoderSpec(num_mecs=2, window_cap=16)
        q = Mlp([enc.state_dim, 4, enc.action_dim], rng=__import__("numpy").random.default_rng(0))
        dqn_policy = Policy(algorithm="dqn", encoder=enc, networks={"q": q})
        with pytest.raises(ValueError, match="cannot run as"):
            make_scheduler("ppo", small_config(), 1, policies={"ppo": dqn_policy})

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_scheduler("lifo", small_config(), 1)


class TestBuildEpisodeTasks:
    def test_deterministic_per_seed(self):
        cfg = small_config()
        _, a = build_episode_tasks(cfg, 20, 5)
        _, b = build_episode_tasks(cfg, 20, 5)
        assert [t.to_dict() for t in a] == [t.to_dict() for t in b]

    def test_seed_changes_the_tasks(self):
        cfg = small_config()
        _, a = build_episode_tasks(cfg, 20, 5)
        _, b = build_episode_tasks(cfg, 20, 6)
        assert [t.to_dict() for t in a] != [t.to_dict() for t in b]

    def test_task_count_tracks_vehicles(self):
        cfg = small_config()
        _, tasks = build_episode_tasks(cfg, 25, 1)
        assert len(tasks) == 25 * cfg.sim.tasks_per_vehicle


def test_the_readme_standalone_objectives_hold():
    # the README's standalone off-sta-pso, sdf and on-dyn-pso objectives at
    # 200 vehicles, seed 1 and a 0.1 ms charge, read from its own sentence
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text().split())
    found = re.search(
        r"scores (\d+\.\d\d), against (\d+\.\d\d) for sdf and (\d+\.\d\d) for on-dyn-pso",
        text,
    )
    assert found, "the README no longer states the standalone objectives"
    cfg = default_config()
    for algo, figure in zip(("off-sta-pso", "sdf", "on-dyn-pso"), found.groups()):
        row, _ = run_cell(cfg, algo, 200, "1", 1, synthetic_costs={algo: 1e-4})
        assert f"{row.objective:.2f}" == figure, algo
