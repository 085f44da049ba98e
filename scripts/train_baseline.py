#!/usr/bin/env python3
"""Train both policies at full budget and save them beside reward curves.

Usage:
    python3 scripts/train_baseline.py [--out-dir artifacts] [--episodes N]
                                      [--config cfg.json] [--seed S]

Produces <out-dir>/dqn_policy.json, ppo_policy.json and matching
<algo>_curve.csv files (episode,total_reward). With the default budget of
2500 episodes this takes a few minutes per algorithm on a desktop CPU.
"""

import argparse
import dataclasses
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vecoff.config import default_config, load_config
from vecoff.rl import OffloadEnv, train_dqn, train_ppo
from vecoff.rl.policy import save_policy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="artifacts")
    ap.add_argument("--episodes", type=int, help="override both training budgets")
    ap.add_argument("--config", help="experiment config JSON")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    config = load_config(args.config) if args.config else default_config()
    os.makedirs(args.out_dir, exist_ok=True)

    for algo, params, train in (
        ("dqn", config.dqn, train_dqn),
        ("ppo", config.ppo, train_ppo),
    ):
        if args.episodes:
            params = dataclasses.replace(params, episodes=args.episodes)
        env = OffloadEnv(
            geometry=config.geometry,
            workload=config.workload,
            sim=config.sim,
            channel=config.channel,
            encoder=config.encoder,
            vehicles=config.train_vehicles,
            seed=args.seed,
        )
        t0 = time.perf_counter()
        result = train(env, params, seed=args.seed)
        wall = time.perf_counter() - t0
        policy_path = os.path.join(args.out_dir, f"{algo}_policy.json")
        save_policy(result.policy, policy_path)
        result.save_curve(os.path.join(args.out_dir, f"{algo}_curve.csv"))
        curve = result.reward_curve
        decile = max(1, len(curve) // 10)
        first = sum(curve[:decile]) / decile
        last = sum(curve[-decile:]) / decile
        print(
            f"{algo}: {len(curve)} episodes in {wall:.0f}s, "
            f"first-decile mean {first:.0f}, last-decile mean {last:.0f} "
            f"({(last - first) / abs(first) * 100 if first else 0:+.0f}%), "
            f"best eval {result.best_eval}, policy at {policy_path}"
        )


if __name__ == "__main__":
    main()
