"""``tools/bench_pairs.py`` alternates its sides and summarises every run.

The runner is replaced by a fake that returns fixed metrics, so no
benchmark runs here.
"""

import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def fake_runs(pairs):
    """A runner whose change reads 10 us lower on decide, equal on the
    objective, and higher on wall_s in the first pair only."""
    order = []

    def run(checkout, workload, seed, seconds):
        order.append(checkout)
        k = sum(1 for c in order if c == checkout)
        change = checkout == "C"
        wall = 1.0 + (0.5 if change and k == 1 else 0.0) - (0.1 if change and k > 1 else 0.0)
        facts = {"workload": workload, "seed": seed, "report_sha256": "ab"}
        return {
            "failed": 0, "attempted": 3,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "decide_mean_us.dqn": {"value": 20.0 + k - (10.0 if change else 0.0), "unit": "us"},
                "objective_mean": {"value": 82.0, "unit": "objective"},
            },
            "facts_line": "# facts: " + json.dumps(facts),
        }

    runs = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "study", 1, pairs, 25,
                                 run=run, log=io.StringIO())
    return order, runs


def test_the_parent_runs_first_on_odd_pairs():
    order, _ = fake_runs(4)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"]


def test_summary_counts_wins_ties_and_quartiles():
    _, runs = fake_runs(5)
    entry = bench_pairs.summarise(runs, {"wall_s": "lower", "decide_mean_us.dqn": "lower",
                                         "objective_mean": "lower"})
    assert entry["pairs"] == 5
    assert entry["first_by_pair"] == ["parent", "change", "parent", "change", "parent"]
    assert entry["change_better_in_pairs"] == {
        "wall_s": 4, "decide_mean_us.dqn": 5, "objective_mean": 0}
    assert entry["equal_in_pairs"]["objective_mean"] == 5
    parent = entry["sides"]["parent"]
    assert parent["metrics"]["decide_mean_us.dqn"] == [21.0, 22.0, 23.0, 24.0, 25.0]
    assert parent["median"]["decide_mean_us.dqn"] == 23.0
    assert parent["quartiles"]["decide_mean_us.dqn"] == [22.0, 23.0, 24.0]
    assert parent["report_sha256"] == ["ab"] * 5
    assert entry["facts_line"].startswith("# facts: ")


def test_an_existing_file_keeps_its_other_entries(tmp_path, monkeypatch):
    def run(checkout, workload, seed, seconds):
        return {"failed": 0, "attempted": 1, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
                "facts_line": None}

    monkeypatch.setattr(bench_pairs, "run_once", run)
    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: None)
    monkeypatch.setattr(bench_pairs, "directions", lambda checkout: {"wall_s": "lower"})
    base = ["--parent", "P", "--change", "C", "--pairs", "1", "--label", "t",
            "--out-dir", str(tmp_path)]
    assert bench_pairs.main(base + ["--workload", "study", "--seed", "1"]) == 0
    assert bench_pairs.main(base + ["--workload", "train", "--seed", "7919"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert sorted(record["workloads"]) == ["study", "train"]
    assert list(record["workloads"]["train"]) == ["7919"]


def test_a_run_is_read_from_its_output(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('# facts: ' + json.dumps({'report_sha256': 'cd'}))\n"
        "print('# unscaled timings: ' + json.dumps({'speed_scale': {'pass': 0.7}}))\n"
        "print(json.dumps({'failed': 0, 'attempted': 2, 'metrics': {}}))\n"
    )
    result = bench_pairs.run_once(str(tmp_path), "study", 1, 25)
    assert result["attempted"] == 2
    assert result["speed_scale"] == {"pass": 0.7}
    assert json.loads(result["facts_line"][len("# facts: "):]) == {"report_sha256": "cd"}


def runs_of(parent, change, name="decide_mean_us.on-dyn-pso"):
    """Each side's runs, one metric value per pair."""
    run = lambda v: {"failed": 0, "attempted": 1, "facts_line": None,
                     "metrics": {name: {"value": v, "unit": "us"}}}
    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


PARENT = [190.0, 192.0, 191.0, 189.0, 193.0, 190.5, 191.5, 192.5, 189.5, 190.0]
NAME = "decide_mean_us.on-dyn-pso"


def test_a_clear_win_meets_the_claim_rule():
    entry = bench_pairs.summarise(runs_of(PARENT, [v - 25.0 for v in PARENT]), {NAME: "lower"})
    rule = entry["claim_rule"][NAME]
    assert rule["wins_nine_tenths"] and rule["gap_beyond_spread"]
    assert rule["parent_spread"] == 191.875 - 190.0
    assert abs(rule["relative_change"] - (-25.0 / 190.75)) < 1e-12
    line = bench_pairs.summary_line(entry, "study", 1, NAME)
    assert "(-13.11%), change better in 10 of 10; parent spread 1.875" in line
    assert line.endswith("won 9/10: yes, gap beyond spread: yes")


def test_seven_wins_in_ten_do_not_meet_it():
    change = [v - 25.0 for v in PARENT[:7]] + [v + 1.0 for v in PARENT[7:]]
    rule = bench_pairs.summarise(runs_of(PARENT, change), {NAME: "lower"})["claim_rule"][NAME]
    assert not rule["wins_nine_tenths"] and rule["gap_beyond_spread"]


def test_ties_count_for_neither_side():
    change = [v - 25.0 for v in PARENT[:8]] + PARENT[8:]
    rule = bench_pairs.summarise(runs_of(PARENT, change), {NAME: "lower"})["claim_rule"][NAME]
    assert not rule["wins_nine_tenths"]
    change = [v - 25.0 for v in PARENT[:9]] + PARENT[9:]
    rule = bench_pairs.summarise(runs_of(PARENT, change), {NAME: "lower"})["claim_rule"][NAME]
    assert rule["wins_nine_tenths"]


def test_a_gap_inside_the_parents_spread_does_not_meet_it():
    parent = [100.0 + 10.0 * k for k in range(10)]
    entry = bench_pairs.summarise(runs_of(parent, [v - 5.0 for v in parent]), {NAME: "lower"})
    rule = entry["claim_rule"][NAME]
    assert rule["wins_nine_tenths"] and not rule["gap_beyond_spread"]
    assert rule["parent_spread"] == 45.0
    assert bench_pairs.summary_line(entry, "study", 1, NAME).endswith(
        "won 9/10: yes, gap beyond spread: no")


def test_the_rule_follows_the_metrics_direction():
    parent = [0.5, 0.6, 0.55, 0.52, 0.58]
    runs = runs_of(parent, [v + 0.2 for v in parent], "offline_swarm_gain")
    rule = bench_pairs.summarise(runs, {"offline_swarm_gain": "higher"})["claim_rule"]
    assert rule["offline_swarm_gain"]["wins_nine_tenths"]
    assert rule["offline_swarm_gain"]["gap_beyond_spread"]
    runs = runs_of(parent, [v - 0.2 for v in parent], "offline_swarm_gain")
    rule = bench_pairs.summarise(runs, {"offline_swarm_gain": "higher"})["claim_rule"]
    assert not rule["offline_swarm_gain"]["wins_nine_tenths"]
    assert not rule["offline_swarm_gain"]["gap_beyond_spread"]
