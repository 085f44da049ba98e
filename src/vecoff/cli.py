"""Command-line front end.

    vecoff train --algo dqn --out policy.json --curve curve.csv
    vecoff run --algo fcfs --vehicles 100 --seed 1 --out report.csv
    vecoff matrix --algos fcfs,sdf --out report.csv
    vecoff export --in report.json --format csv --out report.csv

Every subcommand but ``export`` takes ``--config <json>`` (defaults apply
when omitted); ``train`` and ``run`` take one ``--seed``, ``matrix`` a
``--seeds`` list. Each exits 0 on success, 1 with a diagnostic on stderr
otherwise; argparse reports usage errors with exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .config import ExperimentConfig, default_config, load_config
from .domain import ConfigError
from .experiments import (
    ALGO_TAGS,
    DEFAULT_SEEDS,
    DEFAULT_VEHICLE_COUNTS,
    MetricsReport,
    export_report,
    run_cell,
    run_matrix,
)
from .rl.policy import POLICY_ALGORITHMS, load_policy


def _parse_policy_args(pairs: list[str], default_algo: str | None) -> dict[str, str]:
    """``--policy`` values: either ``algo=path`` or a bare path for the
    subcommand's single algorithm."""
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" in pair:
            algo, path = pair.split("=", 1)
            if algo not in POLICY_ALGORITHMS:
                tags = " or ".join(POLICY_ALGORITHMS)
                raise ValueError(f"--policy tag must be {tags}, got {algo!r}")
            out[algo] = path
        elif default_algo in POLICY_ALGORITHMS:
            out[default_algo] = pair
        else:
            raise ValueError(
                f"--policy needs the algo=path form here, got {pair!r}"
            )
    return out


def _parse_cost_arg(text: str | None) -> dict[str, float] | None:
    """``--synthetic-exec-cost``: a single float applied to every
    algorithm, or ``algo=seconds`` pairs separated by commas, one per tag.
    Every cost must be a finite, non-negative number; one error names each
    one that is not, and every pair of a repeated tag."""
    if text is None:
        return None
    text = text.strip()
    try:
        flat = float(text)
    except ValueError:
        given: list[tuple[str, str, float]] = []  # (tag, as written, cost)
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(
                    f"--synthetic-exec-cost expects a float or algo=seconds pairs, got {part!r}"
                )
            algo, value = (s.strip() for s in part.split("=", 1))
            if algo not in ALGO_TAGS:
                raise ValueError(f"unknown algorithm tag {algo!r} in --synthetic-exec-cost")
            try:
                cost = float(value)
            except ValueError:
                cost = math.nan  # named below with the other bad costs
            given.append((algo, f"{algo}={value}", cost))
        costs = {algo: cost for algo, _, cost in given}
    else:
        given = [("", text, flat)]
        costs = dict.fromkeys(ALGO_TAGS, flat)
    tags = [algo for algo, _, _ in given]
    faults = []
    if repeated := [label for algo, label, _ in given if tags.count(algo) > 1]:
        faults.append("takes each tag once, got " + ", ".join(repeated))
    if bad := [label for _, label, cost in given if not (math.isfinite(cost) and cost >= 0)]:
        faults.append("must be finite and non-negative, got " + ", ".join(bad))
    if faults:
        raise ValueError("--synthetic-exec-cost " + "; ".join(faults))
    return costs


def _parse_int_list(flag: str, text: str) -> list[int]:
    """A comma-separated list of non-negative integers; one error names
    the flag and every entry that is not one."""
    values, bad = [], []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            bad.append(part)
        else:
            if values[-1] < 0:
                bad.append(part)
    if bad:
        raise ValueError(
            f"{flag} expects comma-separated non-negative integers, got "
            + ", ".join(map(repr, bad))
        )
    return values


def _check_floors(*checks: tuple[str, int | None, int]) -> None:
    """One error naming every ``(flag, value, floor)`` whose value is set
    and below its floor, which is 1 (positive) or 0 (non-negative)."""
    bad = [
        f"{flag} must be {'positive' if floor else 'non-negative'}, got {value}"
        for flag, value, floor in checks
        if value is not None and value < floor
    ]
    if bad:
        raise ValueError("; ".join(bad))


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    return default_config()


def _cmd_train(args: argparse.Namespace) -> int:
    from .rl.dqn import train_dqn
    from .rl.envs import OffloadEnv
    from .rl.policy import save_policy
    from .rl.ppo import train_ppo
    from .rl.training import TrainingDiverged

    _check_floors(
        ("--vehicles", args.vehicles, 1), ("--episodes", args.episodes, 1), ("--seed", args.seed, 0)
    )
    config = _config_from(args)
    env = OffloadEnv(
        geometry=config.geometry,
        workload=config.workload,
        sim=config.sim,
        channel=config.channel,
        encoder=config.encoder,
        vehicles=config.train_vehicles if args.vehicles is None else args.vehicles,
        seed=args.seed,
    )
    if args.algo == "dqn":
        params, train = config.dqn, train_dqn
    else:
        params, train = config.ppo, train_ppo
    if args.episodes is not None:
        params = dataclasses.replace(params, episodes=args.episodes)
    try:
        result = train(env, params, seed=args.seed)
    except TrainingDiverged as exc:
        raise ValueError(f"{args.algo} training diverged: {exc}") from exc
    save_policy(result.policy, args.out)
    if args.curve:
        result.save_curve(args.curve)
    best = f", best eval {result.best_eval:.1f}" if result.best_eval is not None else ""
    print(
        f"trained {args.algo} for {len(result.reward_curve)} episodes{best}, "
        f"policy at {args.out}"
    )
    return 0


def _require_policies(algos: list[str], args: argparse.Namespace, default_algo=None):
    policy_paths = _parse_policy_args(args.policy or [], default_algo)
    missing = [a for a in algos if a in POLICY_ALGORITHMS and a not in policy_paths]
    if missing:
        raise ValueError(
            f"algorithm(s) {', '.join(missing)} need a trained policy; "
            "pass --policy (algo=path for the matrix)"
        )
    return {algo: load_policy(path) for algo, path in policy_paths.items()}


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _check_floors(("--vehicles", args.vehicles, 0), ("--seed", args.seed, 0))
    policies = _require_policies([args.algo], args, default_algo=args.algo)
    costs = _parse_cost_arg(args.synthetic_exec_cost)
    row, result = run_cell(
        config,
        args.algo,
        vehicles=args.vehicles,
        run="1",
        seed=args.seed,
        policies=policies,
        synthetic_costs=costs,
    )
    report = MetricsReport(rows=[row])
    export_report(report, args.format, args.out)
    if args.dump:
        result.to_jsonl(args.dump)
    print(
        f"{args.algo} at {args.vehicles} vehicles, seed {args.seed}: "
        f"objective {row.objective:.4f}, drops {row.drop_ratio:.3f}, "
        f"report at {args.out}"
    )
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    config = _config_from(args)
    algos = args.algos.split(",") if args.algos else list(ALGO_TAGS)
    vehicle_counts = (
        _parse_int_list("--vehicles", args.vehicles)
        if args.vehicles
        else list(DEFAULT_VEHICLE_COUNTS)
    )
    seeds = _parse_int_list("--seeds", args.seeds) if args.seeds else list(DEFAULT_SEEDS)
    policies = _require_policies(algos, args)
    costs = _parse_cost_arg(args.synthetic_exec_cost)
    report = run_matrix(
        config,
        algos=algos,
        vehicle_counts=vehicle_counts,
        seeds=seeds,
        policies=policies,
        synthetic_costs=costs,
    )
    export_report(report, args.format, args.out)
    print(
        f"matrix of {len(algos)} algorithms x {len(vehicle_counts)} densities "
        f"x {len(seeds)} seeds written to {args.out}"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    src = args.infile
    read = MetricsReport.from_csv if src.lower().endswith(".csv") else MetricsReport.from_json
    report = read(src)
    export_report(report, args.format, args.out)
    print(f"rewrote {src} as {args.format} at {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecoff",
        description="Edge task-offloading simulator and scheduler suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a scheduler policy")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algo", choices=POLICY_ALGORITHMS, required=True)
    p.add_argument("--vehicles", type=int, help="override the training density")
    p.add_argument("--episodes", type=int, help="override the episode budget")
    p.add_argument("--out", required=True, help="policy JSON path")
    p.add_argument("--curve", help="reward curve CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="one algorithm on one seeded trace")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algo", choices=list(ALGO_TAGS), required=True)
    p.add_argument("--vehicles", type=int, default=50)
    p.add_argument("--policy", action="append", help="policy JSON (RL algorithms)")
    p.add_argument("--synthetic-exec-cost", help="fixed decision cost: float or algo=s pairs")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--dump", help="also write the episode dump JSONL here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("matrix", help="full comparison grid")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--algos", help="comma-separated tags (default: all six)")
    p.add_argument("--vehicles", help="comma-separated densities (default: 50,100,200)")
    p.add_argument("--seeds", help="comma-separated seeds (default: 1..10)")
    p.add_argument("--policy", action="append", help="algo=path, repeatable")
    p.add_argument("--synthetic-exec-cost", help="fixed decision cost: float or algo=s pairs")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("export", help="rewrite a report between csv and json")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["csv", "json"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
