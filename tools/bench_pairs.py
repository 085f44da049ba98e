"""Run the benchmark of two checkouts in alternating pairs and record them.

    python3 tools/bench_pairs.py --parent ../base --change . \\
        --workload study --seed 1 --pairs 10 --label mine

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first on odd pairs and the change first on even ones, so a slow
spell of the machine falls on both sides alike. The runs of one
(workload, seed) go into ``BENCH_<label>.json`` under
``workloads.<workload>.<seed>``; entries for other workloads and seeds
already in the file are kept, so one file can collect several
invocations. For each side it holds every run's end-to-end metrics,
failed and attempted counts, report hash and speed scales, and each
metric's median and inclusive quartiles; for each metric, the pairs
where the change read better, by the direction ``BENCHMARK.json``
gives it, and the pairs where both read the same. The facts line of
the last run is kept too.

Each metric's summary line also states the claim rule for a gain: the
relative change of the medians, the parent's quartile spread, whether
the change read better in at least nine tenths of the pairs (ties count
for neither side) and whether the medians differ, in the change's
favour, by more than that spread. Standard library only.

``--workload episode`` times the engine alone instead of the benchmark:

    python3 tools/bench_pairs.py --parent ../base --change . \\
        --workload episode --seed 1 --pairs 6 --label mine

Each run is a fresh interpreter in the checkout that prepares the sdf
episodes at 200 vehicles with 1 and with 3 tasks per vehicle (default
config, the given seed) and simulates each ``REPEATS`` (41) times under
a fixed 0.1 ms decision charge; it takes no ``--seconds``. Its metrics are the median episode time of
each, ``episode_ms.sdf.200x1`` and ``episode_ms.sdf.200x3``, and its
``report_sha256`` hashes the task records and window logs, so the same
pairs check that both sides schedule alike. The record goes under the
file's ``episode`` key, beside ``workloads``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Callable

SIDES = ("parent", "change")
FACTS = "# facts: "
UNSCALED = "# unscaled timings: "
EPISODES = (1, 3)  # tasks per vehicle of the timed sdf episodes, at 200 vehicles
REPEATS = 41  # timed simulations of each episode per run; the run reports their median
SECONDS = 25  # default length of one benchmark run

# What one ``--workload episode`` run executes in the checkout, with the
# seed, the repeats and EPISODES as its arguments.
EPISODE_PROBE = """
import dataclasses, hashlib, json, statistics, sys, time
from vecoff.config import default_config
from vecoff.engine import prepare_episode, run_episode
from vecoff.experiments import build_episode_tasks
from vecoff.heuristics import SdfScheduler

seed, repeats, per_vehicle = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
digest, metrics = hashlib.sha256(), {}
for k in per_vehicle:
    cfg = default_config()
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, tasks_per_vehicle=k))
    prepared = prepare_episode(build_episode_tasks(cfg, 200, seed)[1], cfg.channel)
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        result = run_episode(prepared, SdfScheduler(), cfg.sim, cfg.channel, exec_cost=1e-4)
        times.append(time.perf_counter() - t0)
    for t in result.tasks:
        digest.update(json.dumps(t.to_dict(), sort_keys=True).encode())
    for w in result.windows:
        digest.update(json.dumps(dataclasses.asdict(w), sort_keys=True).encode())
    metrics[f"episode_ms.sdf.200x{k}"] = {"value": statistics.median(times[1:]) * 1e3, "unit": "ms"}
facts = {"seed": seed, "repeats": repeats, "report_sha256": digest.hexdigest()}
print("# facts: " + json.dumps(facts))
print(json.dumps({"failed": 0, "attempted": len(per_vehicle), "metrics": metrics}))
"""


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    """One untraced benchmark run in ``checkout``, read by ``read_run``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    return read_run(checkout, cmd, " ".join(cmd))


def run_episode_probe(checkout: str, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    """One run of ``EPISODE_PROBE`` in a fresh interpreter in ``checkout``,
    read by ``read_run``. It has ``run_once``'s signature so ``run_pairs``
    can call it; ``workload`` and ``seconds`` are not used."""
    cmd = [sys.executable, "-c", EPISODE_PROBE, str(seed), str(REPEATS), json.dumps(EPISODES)]
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    return read_run(checkout, cmd, "the episode probe", env)


def read_run(checkout: str, cmd: list[str], what: str, env=None) -> dict[str, Any]:
    """Run ``cmd`` in ``checkout``: its last JSON line, plus the ``# facts:``
    line it printed and the speed scales from its ``# unscaled timings:``
    line (the factors its timings were scaled by), if it printed one."""
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {what} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["facts_line"] = next((ln for ln in lines if ln.startswith(FACTS)), None)
    unscaled = next((ln for ln in lines if ln.startswith(UNSCALED)), None)
    if unscaled is not None:
        result["speed_scale"] = json.loads(unscaled[len(UNSCALED):])["speed_scale"]
    return result


def first_side(pair: int) -> str:
    """The side that runs first in pair ``pair`` (counted from 1)."""
    return "parent" if pair % 2 == 1 else "change"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(runs: dict[str, list[dict[str, Any]]], better: dict[str, str]) -> dict[str, Any]:
    """The record of one (workload, seed) from each side's runs, in pair order.

    A run's ``metrics`` map each name to ``{"value": ..., "unit": ...}``, as
    ``perfbench/run.py`` prints them; the record keeps the values."""
    pairs = len(runs["parent"])
    entry: dict[str, Any] = {
        "pairs": pairs,
        "first_by_pair": [first_side(p) for p in range(1, pairs + 1)],
        "sides": {},
    }
    for side in SIDES:
        rs = runs[side]
        metrics = {name: [r["metrics"][name]["value"] for r in rs] for name in rs[0]["metrics"]}
        entry["sides"][side] = {
            "failed": [r["failed"] for r in rs],
            "attempted": [r["attempted"] for r in rs],
            "report_sha256": [
                json.loads(r["facts_line"][len(FACTS):]).get("report_sha256")
                if r.get("facts_line") else None
                for r in rs
            ],
            "speed_scale": [r.get("speed_scale") for r in rs],
            "metrics": metrics,
            "median": {k: statistics.median(v) for k, v in metrics.items()},
            "quartiles": {k: quartiles(v) for k, v in metrics.items()},
        }
    wins, ties = {}, {}
    for name in entry["sides"]["parent"]["metrics"]:
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        p = entry["sides"]["parent"]["metrics"][name]
        c = entry["sides"]["change"]["metrics"][name]
        wins[name] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ties[name] = sum(a == b for a, b in zip(p, c))
    entry["change_better_in_pairs"] = wins
    entry["equal_in_pairs"] = ties
    entry["claim_rule"] = {name: claim_rule(entry, name, better.get(name, "lower"))
                           for name in wins}
    entry["facts_line"] = runs["change"][-1].get("facts_line")
    return entry


def claim_rule(entry: dict[str, Any], name: str, better: str) -> dict[str, Any]:
    """The claim rule for a gain on ``name``: the change reads better in
    at least 9 of every 10 pairs, and its median beats the parent's by
    more than the parent's quartile spread."""
    parent, change = entry["sides"]["parent"], entry["sides"]["change"]
    base, median = parent["median"][name], change["median"][name]
    q1, _, q3 = parent["quartiles"][name]
    gain = (base - median) if better == "lower" else (median - base)
    return {
        "relative_change": (median - base) / base if base else None,
        "parent_spread": q3 - q1,
        "wins_nine_tenths": 10 * entry["change_better_in_pairs"][name] >= 9 * entry["pairs"],
        "gap_beyond_spread": gain > q3 - q1,
    }


def summary_line(entry: dict[str, Any], workload: str, seed: int, name: str) -> str:
    """One metric's medians, pairs won and claim rule, on one line."""
    rule = entry["claim_rule"][name]
    rel = rule["relative_change"]
    return (f"{workload} seed {seed} {name}: parent "
            f"{entry['sides']['parent']['median'][name]:.6g} change "
            f"{entry['sides']['change']['median'][name]:.6g} "
            f"({'n/a' if rel is None else f'{rel:+.2%}'}), change better in "
            f"{entry['change_better_in_pairs'][name]} of {entry['pairs']}; parent spread "
            f"{rule['parent_spread']:.6g}; won 9/10: {('no', 'yes')[rule['wins_nine_tenths']]}, "
            f"gap beyond spread: {('no', 'yes')[rule['gap_beyond_spread']]}")


def run_pairs(
    checkouts: dict[str, str], workload: str, seed: int, pairs: int, seconds: int,
    run: Callable[[str, str, int, int], dict[str, Any]] | None = None, log=None,
) -> dict[str, list[dict[str, Any]]]:
    """Each side's runs in pair order; ``run`` defaults to ``run_once``."""
    run, log = run or run_once, log or sys.stderr
    runs: dict[str, list[dict[str, Any]]] = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        order = SIDES if first_side(pair) == "parent" else SIDES[::-1]
        for side in order:
            result = run(checkouts[side], workload, seed, seconds)
            runs[side].append(result)
            print(f"# {workload} seed {seed} pair {pair} {side}: "
                  + json.dumps(result["metrics"]), file=log, flush=True)
    return runs


def directions(checkout: str) -> dict[str, str]:
    """Each end-to-end metric's better direction, from ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def git_head(checkout: str) -> str | None:
    """The checkout's commit, suffixed ``-dirty`` if its tree differs."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=("study", "charged", "train", "episode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help=f"length of one benchmark run (default {SECONDS}); "
                             "--workload episode takes none")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out-dir", default=".", help="where the file goes (default: here)")
    parser.add_argument("--what", help="a description to store in the file")
    args = parser.parse_args(argv)
    episode = args.workload == "episode"
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if episode and args.seconds is not None:
        parser.error("--workload episode takes no --seconds")
    seconds = SECONDS if args.seconds is None else args.seconds

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    run = run_episode_probe if episode else None
    runs = run_pairs(checkouts, args.workload, args.seed, args.pairs, seconds, run=run)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    record: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    if args.what:
        record["what"] = args.what
    record.update(label=args.label, commits={side: git_head(checkouts[side]) for side in SIDES})
    entry = summarise(runs, directions(checkouts["change"]))
    if episode:
        entry["command"] = (f"tools/bench_pairs.py EPISODE_PROBE, {REPEATS} repeats, "
                            f"tasks per vehicle {list(EPISODES)}")
        record.setdefault("episode", {})[str(args.seed)] = entry
    else:
        record["command"] = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                             f"--seconds {seconds} --trace 0")
        record.setdefault("workloads", {}).setdefault(args.workload, {})[str(args.seed)] = entry
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in entry["sides"]["change"]["median"]:
        print(summary_line(entry, args.workload, args.seed, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
