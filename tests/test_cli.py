import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import vecoff
from vecoff import cli
from vecoff.cli import _parse_cost_arg, _parse_policy_args, build_parser, main
from vecoff.config import default_config, save_config
from vecoff.experiments import ALGO_TAGS, CSV_COLUMNS, MetricsReport
from vecoff.heuristics import PsoParams
from vecoff.rl.encoding import EncoderSpec
from vecoff.rl.nets import Mlp
from vecoff.rl.policy import Policy, save_policy


@pytest.fixture
def fast_config(tmp_path):
    """Config file with a small swarm so CLI runs stay quick."""
    cfg = default_config()
    cfg.pso = PsoParams(swarm_size=8, iterations_static=10, iterations_dynamic=5)
    path = tmp_path / "config.json"
    save_config(cfg, str(path))
    return str(path)


class TestArgHelpers:
    def test_cost_single_float_covers_every_algo(self):
        costs = _parse_cost_arg("0.01")
        assert costs == {algo: 0.01 for algo in ALGO_TAGS}

    def test_cost_pairs(self):
        costs = _parse_cost_arg("dqn=5e-4, fcfs=1e-5")
        assert costs == {"dqn": 5e-4, "fcfs": 1e-5}

    def test_cost_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            _parse_cost_arg("lifo=1.0")

    def test_cost_malformed_rejected(self):
        with pytest.raises(ValueError):
            _parse_cost_arg("dqn")

    def test_cost_absent(self):
        assert _parse_cost_arg(None) is None

    def test_policy_bare_path_binds_to_the_subcommand_algo(self):
        assert _parse_policy_args(["p.json"], "dqn") == {"dqn": "p.json"}

    def test_policy_pairs(self):
        out = _parse_policy_args(["dqn=a.json", "ppo=b.json"], None)
        assert out == {"dqn": "a.json", "ppo": "b.json"}

    def test_policy_bare_path_needs_an_rl_context(self):
        with pytest.raises(ValueError, match="algo=path"):
            _parse_policy_args(["p.json"], "fcfs")

    def test_policy_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="dqn or ppo"):
            _parse_policy_args(["fcfs=p.json"], None)


class TestGenTrace:
    """A bad config file fails the command that loads it. The class keeps
    the name of the retired ``gen-trace`` command, which these cases ran
    first, so their ids stay the same."""

    @pytest.mark.parametrize("section, body", [
        ("geometry", {"lane": 3}),
        ("pso", {"swarm": 3}),
        ("sim", {"num_mec": 3}),
        ("sim", [1]),
    ])
    def test_bad_config_names_the_section(self, tmp_path, section, body):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: body}))
        src = os.path.dirname(os.path.dirname(vecoff.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "vecoff.cli", "run", "--algo", "fcfs", "--config", str(bad),
             "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {section}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestRun:
    def test_heuristic_run_writes_a_report(self, tmp_path, fast_config, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "run", "--config", fast_config, "--algo", "fcfs",
            "--vehicles", "30", "--seed", "1",
            "--synthetic-exec-cost", "0",
            "--out", str(out),
        ])
        assert code == 0
        report = MetricsReport.from_csv(str(out))
        assert len(report.rows) == 1
        assert report.rows[0].algo == "fcfs"
        assert "objective" in capsys.readouterr().out

    def test_dump_writes_task_records(self, tmp_path, fast_config):
        out = tmp_path / "report.csv"
        dump = tmp_path / "episode.jsonl"
        code = main([
            "run", "--config", fast_config, "--algo", "sdf",
            "--vehicles", "30", "--seed", "1",
            "--synthetic-exec-cost", "0",
            "--out", str(out), "--dump", str(dump),
        ])
        assert code == 0
        records = [json.loads(line) for line in dump.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert "task" in kinds
        assert sum(1 for r in records if r["kind"] == "task") == 30
        timing = ("start_proc", "waiting", "comp_latency", "e2e_latency", "assigned_mec")
        keys = {"kind", "id", "vehicle_id", "arrival", "size", "proc_time", "deadline",
                "remaining_in_range", "comm_time", "status", *timing}
        for r in records:
            if r["kind"] == "task":
                assert set(r) == keys
                if r["status"] == "dropped":
                    assert [r[k] for k in timing] == [None] * len(timing)

    def test_rl_algo_without_policy_fails_with_hint(self, tmp_path, capsys):
        code = main([
            "run", "--algo", "dqn", "--vehicles", "30",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--policy" in err
        assert "dqn" in err

    @pytest.mark.parametrize("argv, bad", [
        (["run", "--algo", "fcfs", "--vehicles", "100", "--seed", "1",
          "--synthetic-exec-cost=nan"], "nan"),
        (["run", "--algo", "fcfs", "--vehicles", "100", "--seed", "1",
          "--synthetic-exec-cost=-1"], "-1"),
        (["run", "--algo", "fcfs", "--vehicles", "100", "--seed", "1",
          "--synthetic-exec-cost=inf"], "inf"),
        (["matrix", "--algos", "fcfs,sdf", "--vehicles", "50", "--seeds", "1",
          "--synthetic-exec-cost", "sdf=0,fcfs=nan"], "fcfs=nan"),
        (["run", "--algo", "fcfs", "--vehicles", "100", "--seed", "1",
          "--synthetic-exec-cost", "fcfs=abc"], "fcfs=abc"),
        (["matrix", "--algos", "fcfs,sdf", "--vehicles", "50", "--seeds", "1",
          "--synthetic-exec-cost", "sdf=x,fcfs=-2,dqn=0"], "sdf=x, fcfs=-2"),
        (["run", "--algo", "fcfs", "--vehicles", "100", "--seed", "1",
          "--synthetic-exec-cost", "fcfs=1,sdf=0,fcfs=2"], "fcfs=1, fcfs=2"),
    ], ids=["run-nan", "run-negative", "run-inf", "matrix-nan-pair", "run-not-a-number",
            "matrix-every-bad-pair", "run-repeated-tag"])
    def test_bad_synthetic_cost_is_named(self, tmp_path, argv, bad):
        src = os.path.dirname(os.path.dirname(vecoff.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "vecoff.cli", *argv, "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: --synthetic-exec-cost ")
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.rstrip().endswith(f"got {bad}")

    @pytest.mark.parametrize("argv, fault", [
        (["run", "--algo", "fcfs", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["run", "--algo", "fcfs", "--vehicles", "-5"], "--vehicles must be non-negative, got -5"),
        (["run", "--algo", "fcfs", "--vehicles", "-5", "--seed", "-2"],
         "--vehicles must be non-negative, got -5; --seed must be non-negative, got -2"),
        (["train", "--algo", "dqn", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ], ids=["run-seed", "run-vehicles", "run-both", "train-seed"])
    def test_negative_number_is_named_by_its_flag(self, tmp_path, capsys, argv, fault):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {fault}\n"
        assert not out.exists()

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "fcfs"])  # no --out
        assert exc.value.code == 2

    def test_nan_policy_is_rejected(self, tmp_path, capsys):
        cfg = default_config()
        enc = cfg.encoder
        net = Mlp([enc.state_dim, 8, enc.action_dim], rng=np.random.default_rng(0))
        net.weights[1][2, 3] = np.nan
        path = tmp_path / "policy.json"
        save_policy(Policy("dqn", enc, {"q": net}), str(path))
        code = main([
            "run", "--algo", "dqn", "--vehicles", "20", "--policy", str(path),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: network q layer 1: non-finite weights\n"

    def test_policy_for_another_server_count_is_rejected_before_the_run(
        self, tmp_path, capsys
    ):
        # at 20 vehicles no window opens, so only a check before the run
        # can catch the mismatch
        enc = EncoderSpec(num_mecs=3, window_cap=12)
        net = Mlp([enc.state_dim, 8, enc.action_dim], rng=np.random.default_rng(0))
        path = tmp_path / "policy.json"
        save_policy(Policy("dqn", enc, {"q": net}), str(path))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--algo", "dqn", "--vehicles", "20", "--policy", str(path),
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dqn policy encoder expects 3 servers, simulation has 2\n"
        )
        assert not out.exists()

    def test_bad_config_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text("{broken")
        code = main([
            "run", "--config", str(bad), "--algo", "fcfs",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainAndDeploy:
    @pytest.mark.parametrize("algo", ["dqn", "ppo"])
    def test_tiny_train_then_run(self, tmp_path, fast_config, capsys, algo):
        policy_path = tmp_path / f"{algo}.json"
        code = main([
            "train", "--config", fast_config, "--algo", algo,
            "--vehicles", "30", "--episodes", "8", "--seed", "2",
            "--out", str(policy_path), "--curve", str(tmp_path / "curve.csv"),
        ])
        assert code == 0
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "episode,total_reward"
        assert len(curve) == 9

        out = tmp_path / "report.csv"
        code = main([
            "run", "--config", fast_config, "--algo", algo,
            "--vehicles", "30", "--seed", "1",
            "--policy", str(policy_path),
            "--synthetic-exec-cost", "0",
            "--out", str(out),
        ])
        assert code == 0
        report = MetricsReport.from_csv(str(out))
        assert report.rows[0].algo == algo

    def test_policy_takes_its_shape_from_the_sim_section(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sim": {"num_mecs": 3, "window_cap": 12}}))
        policy_path = tmp_path / "dqn.json"
        code = main([
            "train", "--config", str(config), "--algo", "dqn",
            "--vehicles", "20", "--episodes", "2", "--out", str(policy_path),
        ])
        assert code == 0
        saved = json.loads(policy_path.read_text())
        assert (saved["num_mecs"], saved["window_cap"]) == (3, 12)
        assert saved["networks"]["q"]["layer_shapes"][0][0] == 3 + 4 * 12
        code = main([
            "run", "--config", str(config), "--algo", "dqn", "--vehicles", "100",
            "--policy", str(policy_path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 0

    @pytest.mark.parametrize("flag", ["--episodes", "--vehicles"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_override_is_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "policy.json"
        code = main(["train", "--algo", "dqn", flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be positive, got {value}\n"
        assert not out.exists()

    def test_diverged_training_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ppo": {
            "lr_actor": 1e12, "lr_critic": 1e12, "rollout": 64, "minibatch": 16,
        }}))
        out = tmp_path / "policy.json"
        code = main(["train", "--config", str(config), "--algo", "ppo", "--episodes", "5",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: ppo training diverged: chosen-action probability collapsed to zero\n"
        assert not out.exists()


class TestMatrixAndExport:
    def test_small_matrix_then_export_round_trip(self, tmp_path, fast_config):
        csv_path = tmp_path / "report.csv"
        code = main([
            "matrix", "--config", fast_config,
            "--algos", "fcfs,sdf",
            "--vehicles", "20,30", "--seeds", "1,2",
            "--synthetic-exec-cost", "0",
            "--format", "csv", "--out", str(csv_path),
        ])
        assert code == 0
        report = MetricsReport.from_csv(str(csv_path))
        assert len(report.rows) == 2 * 2 * 2
        assert len(report.means) == 4

        json_path = tmp_path / "report.json"
        assert main([
            "export", "--in", str(csv_path), "--format", "json", "--out", str(json_path),
        ]) == 0
        back = MetricsReport.from_json(str(json_path))
        assert back.rows == report.rows
        assert back.means == report.means

        again = tmp_path / "again.csv"
        assert main([
            "export", "--in", str(json_path), "--format", "csv", "--out", str(again),
        ]) == 0
        assert again.read_bytes() == csv_path.read_bytes()

    def test_export_reads_a_csv_report_by_its_suffix_in_any_case(self, tmp_path):
        csv_path, json_path = tmp_path / "r.CSV", tmp_path / "r.json"
        assert main([
            "run", "--algo", "fcfs", "--vehicles", "20", "--synthetic-exec-cost", "0",
            "--out", str(csv_path),
        ]) == 0
        assert main([
            "export", "--in", str(csv_path), "--format", "json", "--out", str(json_path),
        ]) == 0
        assert MetricsReport.from_json(str(json_path)).rows == (
            MetricsReport.from_csv(str(csv_path)).rows
        )

    @pytest.mark.parametrize("name, body, fault", [
        ("r.json", '{"rows": [{"algo": "x"}], "means": []}',
         "r.json: rows[0]: missing fields vehicles, run, seed,"),
        ("r.csv", ",".join(CSV_COLUMNS) + "\nfcfs,20,1\n",
         "r.csv: line 2: missing fields seed, drop_ratio,"),
        ("r.csv", ",".join(CSV_COLUMNS) + "\nfcfs,2x,1,1" + ",0.5" * 9 + "\n",
         "r.csv: line 2: vehicles must be int, got '2x'"),
    ], ids=["json-row-fields", "csv-short-row", "csv-bad-int"])
    def test_malformed_report_names_its_place(self, tmp_path, capsys, name, body, fault):
        src = tmp_path / name
        src.write_text(body)
        code = main(["export", "--in", str(src), "--format", "csv",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / fault}") and err.count("\n") == 1, err

    def test_matrix_reads_a_lone_seed_as_its_seed_list(self, tmp_path):
        # matrix has no --seed of its own, so argparse takes it for --seeds
        out = tmp_path / "r.csv"
        code = main(["matrix", "--algos", "fcfs", "--vehicles", "20", "--seed", "5",
                     "--synthetic-exec-cost", "0", "--out", str(out)])
        assert code == 0
        assert [row.seed for row in MetricsReport.from_csv(str(out)).rows] == [5]

    def test_matrix_rejects_a_policy_of_another_algorithm_before_any_cell(
        self, tmp_path, capsys
    ):
        enc = default_config().encoder
        rng = np.random.default_rng(0)
        nets = [Mlp([enc.state_dim, 8, out], rng=rng) for out in (enc.action_dim, 1)]
        path = tmp_path / "ppo.json"
        save_policy(Policy("ppo", enc, dict(zip(("actor", "critic"), nets))), str(path))
        out = tmp_path / "r.csv"
        with mock.patch("vecoff.experiments.run_cell", side_effect=AssertionError("a cell ran")):
            code = main([
                "matrix", "--algos", "on-dyn-pso,dqn", "--vehicles", "200", "--seeds", "1,2,3",
                "--policy", f"dqn={path}", "--synthetic-exec-cost", "0.0001", "--out", str(out),
            ])
        assert code == 1
        assert capsys.readouterr().err == "error: policy trained for ppo cannot run as dqn\n"
        assert not out.exists()

    def test_matrix_rl_needs_policies(self, tmp_path, capsys):
        code = main([
            "matrix", "--algos", "fcfs,dqn", "--vehicles", "20", "--seeds", "1",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert "--policy" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, bad", [
        ("--vehicles", "50,x", "'x'"),
        ("--seeds", "1,,2.5", "'', '2.5'"),
        ("--vehicles", "200,-5", "'-5'"),
        ("--seeds", "-1", "'-1'"),
        ("--seeds", "3,-1,y", "'-1', 'y'"),
    ])
    def test_non_integer_list_entry_is_named(self, tmp_path, capsys, flag, value, bad):
        out = tmp_path / "r.csv"
        # a bad number fails before the grid starts: a check inside it
        # would first run every cell of the good densities
        with mock.patch("vecoff.cli.run_matrix", side_effect=AssertionError("grid ran")):
            code = main(["matrix", "--algos", "fcfs", flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} expects comma-separated non-negative integers, got {bad}\n"
        assert not out.exists()

    def test_repeated_seed_fails_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "matrix", "--algos", "fcfs,fcfs", "--vehicles", "20", "--seeds", "1,1",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: repeated algorithm tags 'fcfs'; repeated seeds 1\n"
        assert not out.exists()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def documented_commands():
    """Every ``vecoff`` command line the README and the ``vecoff.cli``
    docstring print, once each: fenced lines with their ``\\``
    continuations joined, inline code spans (which may wrap across lines)
    and the docstring's examples. A bare subcommand name such as ``vecoff
    train`` names a command and runs none, so it is skipped."""
    lines, prose = [], []
    for i, part in enumerate(re.split(r"^```.*$", README.read_text(), flags=re.M)):
        if i % 2:
            lines += re.sub(r"\\\n\s*", " ", part).splitlines()
        else:
            prose.append(part)
    lines += re.findall(r"`([^`]+)`", "\n".join(prose))
    lines += cli.__doc__.splitlines()
    commands = (" ".join(line.split()) for line in lines)
    return list(dict.fromkeys(
        c for c in commands if c.startswith("vecoff ") and len(shlex.split(c)) > 2
    ))


DOCUMENTED = documented_commands()


def test_documented_commands_include_the_wrapped_and_continued_lines():
    assert any(c.startswith("vecoff run --algo off-sta-pso") for c in DOCUMENTED), DOCUMENTED
    assert any(c.endswith("--seeds 1,2,3 --out report.csv") for c in DOCUMENTED), DOCUMENTED
    assert "vecoff export --in report.json --format csv --out report.csv" in DOCUMENTED


@pytest.mark.parametrize("command", DOCUMENTED)
def test_documented_command_parses(command):
    try:
        build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} exits {exc.code} with a usage error")
