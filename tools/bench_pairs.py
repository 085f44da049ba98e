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
the last run is kept too. Standard library only.
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


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    """One untraced benchmark run in ``checkout``: its last JSON line, plus
    the ``# facts:`` line it printed and the speed scales from its
    ``# unscaled timings:`` line (the factors its timings were scaled by)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
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
    entry["facts_line"] = runs["change"][-1].get("facts_line")
    return entry


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
    parser.add_argument("--workload", required=True, choices=("study", "charged", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out-dir", default=".", help="where the file goes (default: here)")
    parser.add_argument("--what", help="a description to store in the file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = run_pairs(checkouts, args.workload, args.seed, args.pairs, args.seconds)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    record: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    if args.what:
        record["what"] = args.what
    record.update(
        label=args.label,
        command=f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                f"--seconds {args.seconds} --trace 0",
        commits={side: git_head(checkouts[side]) for side in SIDES},
    )
    entry = summarise(runs, directions(checkouts["change"]))
    record.setdefault("workloads", {}).setdefault(args.workload, {})[str(args.seed)] = entry
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, median in entry["sides"]["change"]["median"].items():
        print(f"{args.workload} seed {args.seed} {name}: parent "
              f"{entry['sides']['parent']['median'][name]:.6g} change {median:.6g}, "
              f"change better in {entry['change_better_in_pairs'][name]} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
