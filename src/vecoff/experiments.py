"""Comparison metrics and the experiment matrix.

Each report row carries the scheduling objective (``engine.objective``)
and its normalized variant beside drop, latency and decision-time
figures.

``run_matrix`` reproduces the comparative study shape: every algorithm on
every traffic density, ten seeded runs each, with per-run rows plus a mean
row per cell. RL algorithms are deployed test-only: one greedy episode per
seeded trace from a policy trained beforehand.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence, get_type_hints

from . import heuristics
from .domain import read_json
from .engine import EpisodeResult, _objective, prepare_episode, run_episode
from .mobility import episode_seeds, generate_trace, spawn_tasks
from .rl.encoding import PolicyContractError
from .rl.policy import POLICY_ALGORITHMS, PolicyScheduler

ALGO_TAGS = ("off-sta-pso", "on-dyn-pso", "dqn", "ppo", "fcfs", "sdf")
DEFAULT_SEEDS = tuple(range(1, 11))
DEFAULT_VEHICLE_COUNTS = (50, 100, 200)


def _log10_exec(windows: float, per_window_s: float, total_s: float) -> float:
    """Decision time on a log scale: an online scheduler is judged per
    decision, the offline one, which has no windows, by its single run."""
    x = per_window_s if windows else total_s
    return math.log10(x) if x > 0 else float("-inf")


@dataclass
class RunRow:
    """One line of the comparison report."""

    algo: str
    vehicles: int
    run: str
    seed: int
    drop_ratio: float
    mean_e2e_s: float
    mean_wait_s: float
    objective: float
    objective_normalized: float
    total_exec_s: float
    windows: int
    per_window_exec_s: float
    log10_exec: float

    @classmethod
    def from_result(
        cls,
        algo: str,
        vehicles: int,
        run: str,
        seed: int,
        result: EpisodeResult,
        lambda_weight: float,
        total_exec_s: float | None = None,
    ) -> "RunRow":
        """Distill one episode. ``total_exec_s`` overrides the engine's
        decision-time total for algorithms whose cost is not per-window
        (the offline optimizer)."""
        completed = result.completed
        n = result.num_tasks
        drops = result.num_dropped
        served = len(completed) or 1  # both sums are 0.0 when none was served
        e2e_sum = math.fsum(t.e2e_latency for t in completed)
        mean_wait = math.fsum(t.waiting for t in completed) / served
        windows = result.num_windows
        exec_s = result.total_decision_time if total_exec_s is None else total_exec_s
        per_window = exec_s / windows if windows else 0.0
        return cls(
            algo=algo,
            vehicles=vehicles,
            run=run,
            seed=seed,
            drop_ratio=drops / n if n else 0.0,
            mean_e2e_s=e2e_sum / served,
            mean_wait_s=mean_wait,
            objective=_objective(result, lambda_weight, e2e_sum, drops),
            objective_normalized=_objective(result, lambda_weight, e2e_sum, drops, normalized=True),
            total_exec_s=exec_s,
            windows=windows,
            per_window_exec_s=per_window,
            log10_exec=_log10_exec(windows, per_window, exec_s),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Any, where: str = "report row") -> "RunRow":
        """A row from its cells, each converted to its field's type.

        Raises one ValueError, prefixed by ``where``, that names every
        missing, unknown or unreadable field.
        """
        if not isinstance(d, Mapping):
            raise ValueError(f"{where}: must be an object, got {type(d).__name__}")
        problems = [f"unknown field {name!r}" for name in d if name not in CSV_COLUMNS]
        missing = [name for name in CSV_COLUMNS if name not in d]
        if missing:
            problems.append(f"missing fields {', '.join(missing)}")
        values = {}
        for name, kind in _CELL_TYPES.items():
            if name not in d:
                continue
            try:
                values[name] = kind(d[name])
            except (TypeError, ValueError):
                problems.append(f"{name} must be {kind.__name__}, got {d[name]!r}")
        if problems:
            raise ValueError(f"{where}: " + "; ".join(problems))
        return cls(**values)


# A report's columns are RunRow's fields, in order; each cell reads back
# through its field's type.
_CELL_TYPES = get_type_hints(RunRow)
CSV_COLUMNS = list(_CELL_TYPES)


# The columns a mean row averages; it rounds the mean window count.
_AVERAGED = (
    "drop_ratio", "mean_e2e_s", "mean_wait_s", "objective", "objective_normalized",
    "total_exec_s", "windows", "per_window_exec_s",
)


def _mean_row(rows: Sequence[RunRow]) -> RunRow:
    """Average the numeric columns of one (algo, vehicles) cell."""
    mean = {name: math.fsum(getattr(r, name) for r in rows) / len(rows) for name in _AVERAGED}
    return RunRow(
        algo=rows[0].algo,
        vehicles=rows[0].vehicles,
        run="mean",
        seed=-1,
        **{**mean, "windows": round(mean["windows"])},
        log10_exec=_log10_exec(mean["windows"], mean["per_window_exec_s"], mean["total_exec_s"]),
    )


@dataclass
class MetricsReport:
    """Per-run rows plus one mean row per (algorithm, density) cell."""

    rows: list[RunRow] = field(default_factory=list)
    means: list[RunRow] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "means": [r.to_dict() for r in self.means],
        }

    @classmethod
    def from_dict(cls, d: Any, where: str = "report") -> "MetricsReport":
        parts = ("rows", "means")
        if not (isinstance(d, Mapping) and all(isinstance(d.get(p), list) for p in parts)):
            raise ValueError(f"{where}: must be an object with lists 'rows' and 'means'")
        return cls(**{
            p: [RunRow.from_dict(r, f"{where}: {p}[{i}]") for i, r in enumerate(d[p])]
            for p in parts
        })

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "MetricsReport":
        return cls.from_dict(read_json(path), path)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in list(self.rows) + list(self.means):
                d = row.to_dict()
                writer.writerow([_csv_cell(d[c]) for c in CSV_COLUMNS])

    @classmethod
    def from_csv(cls, path: str) -> "MetricsReport":
        report = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ValueError(
                    f"{path}: unexpected header {header!r}, expected {CSV_COLUMNS}"
                )
            for cells in reader:
                where = f"{path}: line {reader.line_num}"
                if len(cells) > len(CSV_COLUMNS):
                    raise ValueError(
                        f"{where}: {len(cells)} cells, the header has {len(CSV_COLUMNS)}"
                    )
                row = RunRow.from_dict(dict(zip(CSV_COLUMNS, cells)), where)
                (report.means if row.run == "mean" else report.rows).append(row)
        return report


def _csv_cell(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _policy_faults(algo: str, config: "ExperimentConfig", policy) -> list[str]:
    """Why a loaded ``policy`` cannot drive ``config``'s simulation as the
    RL tag ``algo``, in order: another algorithm's, another server count."""
    faults = []
    if policy.algorithm != algo:
        faults.append(f"policy trained for {policy.algorithm} cannot run as {algo}")
    if policy.encoder.num_mecs != config.sim.num_mecs:
        faults.append(
            f"{algo} policy encoder expects {policy.encoder.num_mecs} servers, "
            f"simulation has {config.sim.num_mecs}"
        )
    return faults


def make_scheduler(
    algo: str,
    config: "ExperimentConfig",
    seed: int,
    policies: Mapping[str, Any] | None = None,
):
    """Instantiate the scheduler behind an algorithm tag.

    RL tags need a policy in ``policies`` that can run ``config``; the first
    of its ``_policy_faults`` is raised as a PolicyContractError. A fresh
    scheduler is built per call so stateful search seeds stay reproducible.
    """
    if algo == "fcfs":
        return heuristics.FcfsScheduler()
    if algo == "sdf":
        return heuristics.SdfScheduler()
    if algo == "on-dyn-pso":
        return heuristics.DynamicPsoScheduler(
            config.pso, config.sim.lambda_weight, seed=seed
        )
    if algo in POLICY_ALGORITHMS:
        policy = (policies or {}).get(algo)
        if policy is None:
            raise ValueError(f"algorithm {algo} requires a trained policy")
        if faults := _policy_faults(algo, config, policy):
            raise PolicyContractError(faults[0])
        return PolicyScheduler(policy)
    raise ValueError(f"unknown algorithm tag {algo!r}; expected one of {ALGO_TAGS}")


def build_episode_tasks(config: "ExperimentConfig", vehicles: int, seed: int):
    """Trace plus task list for one seeded run, on independent substreams."""
    trace_seed, task_seed = episode_seeds(seed)
    trace = generate_trace(config.geometry, vehicles, trace_seed)
    tasks = spawn_tasks(
        trace,
        config.geometry,
        config.workload,
        config.sim.tasks_per_vehicle,
        task_seed,
    )
    return trace, tasks


def run_cell(
    config: "ExperimentConfig",
    algo: str,
    vehicles: int,
    run: str,
    seed: int,
    policies: Mapping[str, Any] | None = None,
    synthetic_costs: Mapping[str, float] | None = None,
    tasks=None,
    seed_orderings: Sequence[Sequence[int]] = (),
) -> tuple[RunRow, EpisodeResult]:
    """One (algorithm, density, seed) run.

    With ``synthetic_costs`` given, each scheduler invocation is charged
    the map's fixed cost for the algorithm instead of measured wall-clock,
    making the run byte-for-byte reproducible. The offline optimizer runs
    uncharged; its reported execution time is its optimization wall-clock
    (or the map's value, read as a total, in synthetic mode).
    ``tasks`` is the run's task list or its ``PreparedEpisode``; when it
    is None the list is built from the seed. It is prepared once, and
    every algorithm reads that preparation: the online ones run on it,
    the offline swarm searches its positions and replays its plan on it.
    ``seed_orderings`` warm-starts the offline swarm and is ignored by
    the online algorithms.
    """
    sim = config.sim
    cost = None if synthetic_costs is None else synthetic_costs.get(algo, 0.0)
    if tasks is None:
        _, tasks = build_episode_tasks(config, vehicles, seed)
    episode = prepare_episode(tasks, config.channel)

    if algo == "off-sta-pso":
        t0 = time.perf_counter()
        plan = heuristics.pso_optimize_static(
            episode, sim, config.channel, config.pso, seed,
            seed_orderings=seed_orderings,
        )
        wall = time.perf_counter() - t0
        result = heuristics.replay_ordering(episode.tasks, plan.ordering, sim.num_mecs)
        row = RunRow.from_result(
            algo, vehicles, run, seed, result, sim.lambda_weight,
            total_exec_s=wall if cost is None else cost,
        )
        return row, result

    scheduler = make_scheduler(algo, config, seed, policies)
    result = run_episode(episode, scheduler, sim, config.channel, exec_cost=cost)
    row = RunRow.from_result(algo, vehicles, run, seed, result, sim.lambda_weight)
    return row, result


def run_matrix(
    config: "ExperimentConfig",
    algos: Sequence[str] = ALGO_TAGS,
    vehicle_counts: Sequence[int] = DEFAULT_VEHICLE_COUNTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    policies: Mapping[str, Any] | None = None,
    synthetic_costs: Mapping[str, float] | None = None,
) -> MetricsReport:
    """The full comparison: algorithms x densities x seeded runs.

    Every algorithm sees the same task list for a given (density, seed),
    so rows are comparable within a column; the list is prepared once
    per column and every cell runs on copies of it. The offline
    optimizer runs after the online algorithms of its column and
    warm-starts its swarm with the schedules they actually executed,
    which pins it to its role as the performance bound: it can only
    improve on them. Repeated tags, densities or seeds, an empty seed
    list (a cell with no row to average) and given policies that cannot run
    are rejected before the first cell, each kind in one error (a missing
    policy fails at its cell; the CLI rejects it before the call).
    """
    for algo in algos:
        if algo not in ALGO_TAGS:
            raise ValueError(f"unknown algorithm tag {algo!r}")
    repeats = [
        f"{what} {', '.join(map(repr, dup))}"
        for what, values in (
            ("algorithm tags", algos), ("densities", vehicle_counts), ("seeds", seeds)
        )
        if (dup := [v for v, n in Counter(values).items() if n > 1])
    ]
    if repeats:
        raise ValueError("repeated " + "; repeated ".join(repeats))
    if not seeds:
        raise ValueError("no seeds: every cell needs at least one seeded run")
    policies = policies or {}
    rl_given = [a for a in algos if a in POLICY_ALGORITHMS and a in policies]
    if faults := [f for a in rl_given for f in _policy_faults(a, config, policies[a])]:
        raise ValueError("; ".join(faults))
    report = MetricsReport()
    ordered = [a for a in algos if a != "off-sta-pso"] + [
        a for a in algos if a == "off-sta-pso"
    ]
    warm_starts = "off-sta-pso" in algos  # nothing else reads the online orderings
    for vehicles in vehicle_counts:
        columns = {
            seed: prepare_episode(build_episode_tasks(config, vehicles, seed)[1], config.channel)
            for seed in seeds
        }
        executed: dict[int, list[tuple[int, ...]]] = {seed: [] for seed in seeds}
        rows_by_algo: dict[str, list[RunRow]] = {}
        for algo in ordered:
            cell_rows = []
            for i, seed in enumerate(seeds, start=1):
                row, result = run_cell(
                    config,
                    algo,
                    vehicles,
                    run=str(i),
                    seed=seed,
                    policies=policies,
                    synthetic_costs=synthetic_costs,
                    tasks=columns[seed],
                    seed_orderings=executed[seed],
                )
                cell_rows.append(row)
                if warm_starts and algo != "off-sta-pso":
                    executed[seed].append(heuristics.induced_ordering(result))
            rows_by_algo[algo] = cell_rows
        # report in the caller's algorithm order, not execution order
        for algo in algos:
            report.rows.extend(rows_by_algo[algo])
            report.means.append(_mean_row(rows_by_algo[algo]))
    return report


def export_report(report: MetricsReport, fmt: str, path: str) -> None:
    if fmt == "csv":
        report.to_csv(path)
    elif fmt == "json":
        report.to_json(path)
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected csv or json")
