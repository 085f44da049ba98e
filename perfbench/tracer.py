"""Layer spans for vecoff, recorded from outside the package.

Every layer boundary is a public function or method that some caller
looks up by name at call time: a module global (``pso_optimize_static``
calls ``replay_ordering`` through ``vecoff.heuristics``), or a class
attribute (the engine calls ``scheduler.select``). ``Tracer.install``
replaces each such name with a wrapper that opens a span, calls the
original and closes the span; ``Tracer.restore`` puts every original
back. Nothing under ``src/`` is edited.

A span is (name, start, end, parent, cell). The cell is shared by all
spans of one (workload, algorithm, vehicles, seed) run. Spans stay in
memory in flat arrays and are written once, by ``write``. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable

# Span name -> layer. The layers are vecoff's modules; "bench" is the
# benchmark's own time between calls into the package.
LAYER_OF = {
    "bench.pass": "bench",
    "mobility.generate_trace": "mobility",
    "mobility.spawn_tasks": "mobility",
    "channel.attach_comm_times": "channel",
    "engine.run_episode": "engine",
    "engine.episode_loop": "engine",
    "heuristics.replay_ordering": "heuristics",
    "heuristics.pso_optimize_static": "heuristics",
    "heuristics.dyn_pso_select": "heuristics",
    "heuristics.queue_select": "heuristics",
    "rl.encoding.encode_state": "rl.encoding",
    "rl.nets.forward": "rl.nets",
    "rl.nets.backward": "rl.nets",
    "rl.nets.adam_step": "rl.nets",
    "rl.policy.select.dqn": "rl.policy",
    "rl.policy.select.ppo": "rl.policy",
    "rl.reward.decision_reward": "rl.reward",
    "rl.envs.reset": "rl.envs",
    "rl.envs.step": "rl.envs",
    "rl.envs.snapshot_score": "rl.envs",
    "rl.dqn.train_dqn": "rl.dqn",
    "rl.ppo.train_ppo": "rl.ppo",
    "experiments.run_matrix": "experiments",
    "experiments.run_cell": "experiments",
    "experiments.build_episode_tasks": "experiments",
    "experiments.objective": "experiments",
    "experiments.from_result": "experiments",
}

# Layer -> the per-layer metric that carries its self time.
BUSY_METRIC = {
    "bench": "bench.busy_s",
    "mobility": "mobility.busy_s",
    "channel": "channel.busy_s",
    "engine": "engine.busy_s",
    "heuristics": "heuristics.busy_s",
    "rl.encoding": "rl.encoding.busy_s",
    "rl.nets": "rl.nets.busy_s",
    "rl.policy": "rl.policy.busy_s",
    "rl.reward": "rl.reward.busy_s",
    "rl.envs": "rl.envs.busy_s",
    "rl.dqn": "rl.dqn.self_s",
    "rl.ppo": "rl.ppo.self_s",
    "experiments": "experiments.busy_s",
}

ALGOS = ("off-sta-pso", "on-dyn-pso", "dqn", "ppo", "fcfs", "sdf")
DENSITIES = (50, 100, 200)

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "mobility.generate_trace_ms": "ms",
    "mobility.spawn_tasks_ms": "ms",
    "mobility.busy_s": "s",
    "mobility.tasks": "count",
    "channel.attach_us": "us",
    "channel.busy_s": "s",
    "engine.self_us_per_window": "us",
    "engine.busy_s": "s",
    "engine.windows": "count",
    "engine.windows_empty": "count",
    "engine.drops": "count",
    "heuristics.replays": "count",
    "heuristics.replay_us": "us",
    "heuristics.replay_busy_s": "s",
    **{f"heuristics.offline_s.{v}": "s" for v in DENSITIES},
    "heuristics.offline_improving_frac": "ratio",
    "heuristics.offline_swarm_gain": "ratio",
    "heuristics.dyn_pso_select_us": "us",
    "heuristics.dyn_pso_evals": "count",
    "heuristics.dyn_pso_us_per_eval": "us",
    "heuristics.queue_select_us": "us",
    "heuristics.busy_s": "s",
    "rl.encode_state_us": "us",
    "rl.encoding.busy_s": "s",
    "rl.nets.forward_b1_us": "us",
    "rl.nets.forward_b64_us": "us",
    "rl.nets.backward_b64_us": "us",
    "rl.nets.adam_step_us": "us",
    "rl.nets.busy_s": "s",
    "rl.policy.select_us.dqn": "us",
    "rl.policy.select_us.ppo": "us",
    "rl.policy.forwards_per_select.ppo": "count",
    "rl.policy.busy_s": "s",
    "rl.reward.decision_reward_us": "us",
    "rl.reward.busy_s": "s",
    "rl.envs.reset_ms": "ms",
    "rl.envs.step_us": "us",
    "rl.envs.snapshot_score_s": "s",
    "rl.envs.draws_per_episode": "count",
    "rl.envs.busy_s": "s",
    "rl.dqn.self_s": "s",
    "rl.dqn.steps": "count",
    "rl.ppo.self_s": "s",
    "rl.ppo.steps": "count",
    **{f"experiments.run_cell_s.{a}": "s" for a in ALGOS},
    "experiments.objective_us": "us",
    "experiments.report_ms": "ms",
    "experiments.busy_s": "s",
    "bench.busy_s": "s",
    "trace.overhead_s": "s",
}


class Patcher:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self) -> None:
        self.saved: list[tuple[Any, str, Any]] = []  # (owner, name, original)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # the raw attribute, so a classmethod is restored as a classmethod
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, workload: str, pso_evals_per_window: int) -> None:
        self.workload = workload
        self.pso_evals_per_window = pso_evals_per_window
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cells: list[list[Any]] = []
        self._cell_ids: dict[tuple, int] = {}
        self.cell = self._cell_id((workload, "-", 0, 0))
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_cell = array("l")
        self._stack: list[list[Any]] = []  # [span index, name, children's seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._offline: list[dict[str, Any]] = []
        self._trainer: str | None = None
        self._snapshot_depth = 0
        self._patcher = Patcher()

    # -- spans ------------------------------------------------------------

    def _cell_id(self, cell: tuple) -> int:
        cid = self._cell_ids.get(cell)
        if cid is None:
            cid = self._cell_ids[cell] = len(self.cells)
            self.cells.append(list(cell))
        return cid

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_cell.append(self.cell)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), name, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> float:
        end = time.perf_counter()
        idx, name, children = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.total_s[name] += dur
        self.self_s[name] += dur - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result, seconds)`` runs
        once the span is closed."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.close()
            if after is not None:
                after(args, result, dur)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, pkg: dict[str, Any]) -> None:
        """Wrap every layer boundary of the package modules in ``pkg``."""
        ex, heur, eng = pkg["experiments"], pkg["heuristics"], pkg["engine"]
        envs, pol, nets = pkg["rl.envs"], pkg["rl.policy"], pkg["rl.nets"]
        p = self._patcher

        def wrap(owner, attr, name, after=None):
            p.patch(owner, attr, self.span(name, getattr(owner, attr), after))

        def count_tasks(args, tasks, dur):
            self.counts["mobility.tasks"] += len(tasks)

        def count_draw(args, trace, dur):
            self.counts["env_draws"] += 1

        for mod in (ex, envs):
            wrap(mod, "spawn_tasks", "mobility.spawn_tasks", count_tasks)
        wrap(ex, "generate_trace", "mobility.generate_trace")
        wrap(envs, "generate_trace", "mobility.generate_trace", count_draw)
        for mod in (eng, heur, envs):
            wrap(mod, "attach_comm_times", "channel.attach_comm_times")

        wrap(ex, "run_episode", "engine.run_episode")
        for mod in (eng, envs):
            p.patch(mod, "episode_loop", self._traced_loop(mod.episode_loop))

        wrap(heur, "replay_ordering", "heuristics.replay_ordering")
        p.patch(heur, "pso_optimize_static", self._traced_offline(heur.pso_optimize_static))
        wrap(heur, "objective", "experiments.objective", self._after_objective)
        wrap(heur.DynamicPsoScheduler, "select", "heuristics.dyn_pso_select", self._after_dyn)
        wrap(heur.FcfsScheduler, "select", "heuristics.queue_select")
        wrap(heur.SdfScheduler, "select", "heuristics.queue_select")

        for mod in (pol, envs):
            wrap(mod, "encode_state", "rl.encoding.encode_state")
        wrap(nets.Mlp, "forward", "rl.nets.forward", self._after_forward)
        wrap(nets.Mlp, "backward", "rl.nets.backward", self._after_backward)
        wrap(nets.Adam, "step", "rl.nets.adam_step")
        original_select = pol.PolicyScheduler.select

        def policy_select(sched, *args, **kwargs):
            self.open(f"rl.policy.select.{sched.name}")
            try:
                return original_select(sched, *args, **kwargs)
            finally:
                self.close()

        p.patch(pol.PolicyScheduler, "select", policy_select)
        wrap(envs, "decision_reward", "rl.reward.decision_reward")
        wrap(envs.OffloadEnv, "reset", "rl.envs.reset")
        wrap(envs.OffloadEnv, "step", "rl.envs.step", self._after_step)
        p.patch(envs.OffloadEnv, "snapshot_score",
                self._traced_snapshot(envs.OffloadEnv.snapshot_score))
        p.patch(pkg["rl.dqn"], "train_dqn",
                self._traced_trainer("dqn", pkg["rl.dqn"].train_dqn))
        p.patch(pkg["rl.ppo"], "train_ppo",
                self._traced_trainer("ppo", pkg["rl.ppo"].train_ppo))

        wrap(ex, "run_matrix", "experiments.run_matrix")
        p.patch(ex, "run_cell", self._traced_cell(ex.run_cell))
        p.patch(ex, "build_episode_tasks", self._traced_tasks(ex.build_episode_tasks))
        # run_cell looks up RunRow.from_result on the class at call time
        p.patch(ex.RunRow, "from_result",
                staticmethod(self.span("experiments.from_result", ex.RunRow.from_result)))

    def restore(self) -> None:
        self._patcher.restore()

    def patched(self) -> list[tuple[Any, str, Any]]:
        return list(self._patcher.saved)

    # -- wrappers with bookkeeping ---------------------------------------

    def _traced_loop(self, original: Callable) -> Callable:
        """The engine generator, with one span per resumption."""
        tracer = self

        def traced_loop(*args, **kwargs):
            inner = original(*args, **kwargs)
            sent = None
            first = True
            while True:
                tracer.open("engine.episode_loop")
                try:
                    point = next(inner) if first else inner.send(sent)
                except StopIteration as stop:
                    tracer.close()
                    result = stop.value
                    tracer.counts["engine.windows"] += len(result.windows)
                    tracer.counts["engine.windows_empty"] += sum(
                        1 for w in result.windows if w.feasible_size == 0
                    )
                    tracer.counts["engine.drops"] += result.num_dropped
                    return result
                except BaseException:
                    tracer.close()
                    raise
                tracer.close()
                first = False
                sent = yield point

        return traced_loop

    def _traced_offline(self, original: Callable) -> Callable:
        def offline(tasks, cfg, params, pso, seed, seed_orderings=()):
            vehicles = self.cells[self.cell][2]
            state = {"starts": 2 + len(seed_orderings), "vals": [], "best": None, "improving": 0}
            self._offline.append(state)
            self.open("heuristics.pso_optimize_static")
            try:
                plan = original(tasks, cfg, params, pso, seed, seed_orderings=seed_orderings)
            finally:
                dur = self.close()
                self._offline.pop()
            self.sums[f"offline_s.{vehicles}"] += dur
            self.counts[f"offline_calls.{vehicles}"] += 1
            swarm = max(pso.swarm_size, 1)
            warm = state["vals"][: min(state["starts"], swarm)]
            if warm and min(warm) > 0:
                self.sums["offline_gain"] += (min(warm) - plan.objective) / min(warm)
                self.counts["offline_gain_n"] += 1
            self.counts["offline_evals"] += len(state["vals"])
            self.counts["offline_improving"] += state["improving"]
            return plan

        return offline

    def _after_objective(self, args, value, dur) -> None:
        if not self._offline:
            return
        state = self._offline[-1]
        if state["best"] is None or value < state["best"]:
            if state["best"] is not None:
                state["improving"] += 1
            state["best"] = value
        state["vals"].append(value)

    def _after_dyn(self, args, choice, dur) -> None:
        window = args[1]
        if len(window.feasible) >= 2:
            self.counts["dyn_pso_evals"] += self.pso_evals_per_window
            self.sums["dyn_pso_search_s"] += dur

    def _after_forward(self, args, out, dur) -> None:
        x = args[1]
        batch = 1 if x.ndim == 1 else x.shape[0]
        if batch in (1, 64):
            self.sums[f"forward_b{batch}_s"] += dur
            self.counts[f"forward_b{batch}"] += 1
        if self.parent_name() == "rl.policy.select.ppo":
            self.counts["ppo_select_forwards"] += 1

    def _after_backward(self, args, grads, dur) -> None:
        grad_out = args[2]
        if grad_out.ndim == 2 and grad_out.shape[0] == 64:
            self.sums["backward_b64_s"] += dur
            self.counts["backward_b64"] += 1

    def _after_step(self, args, out, dur) -> None:
        if self._trainer is not None and self._snapshot_depth == 0:
            self.counts[f"{self._trainer}_steps"] += 1

    def _traced_snapshot(self, original: Callable) -> Callable:
        def snapshot_score(env, *args, **kwargs):
            self._snapshot_depth += 1
            self.open("rl.envs.snapshot_score")
            try:
                return original(env, *args, **kwargs)
            finally:
                self.close()
                self._snapshot_depth -= 1

        return snapshot_score

    def _traced_trainer(self, algo: str, original: Callable) -> Callable:
        def train(env, params, seed=0, **kwargs):
            outer_cell = self.cell
            self.cell = self._cell_id((self.workload, algo, env.vehicles, seed))
            self._trainer = algo
            self.open(f"rl.{algo}.train_{algo}")
            try:
                return original(env, params, seed=seed, **kwargs)
            finally:
                self.close()
                self._trainer = None
                self.cell = outer_cell
                self.counts["env_episodes"] += env.episodes_seen

        return train

    def _traced_cell(self, original: Callable) -> Callable:
        def run_cell(config, algo, vehicles, run, seed, *args, **kwargs):
            outer_cell = self.cell
            self.cell = self._cell_id((self.workload, algo, vehicles, seed))
            self.open("experiments.run_cell")
            try:
                return original(config, algo, vehicles, run, seed, *args, **kwargs)
            finally:
                dur = self.close()
                self.cell = outer_cell
                self.sums[f"run_cell_s.{algo}"] += dur
                self.counts[f"run_cell.{algo}"] += 1

        return run_cell

    def _traced_tasks(self, original: Callable) -> Callable:
        def build_episode_tasks(config, vehicles, seed):
            outer_cell = self.cell
            self.cell = self._cell_id((self.workload, "tasks", vehicles, seed))
            self.open("experiments.build_episode_tasks")
            try:
                return original(config, vehicles, seed)
            finally:
                self.close()
                self.cell = outer_cell

        return build_episode_tasks

    # -- results ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in BUSY_METRIC}
        for name, secs in self.self_s.items():
            out[LAYER_OF[name]] += secs
        return out

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric; totals are per pass, timings per call."""
        c, s, n = self.counts, self.sums, self.calls

        def per_call(name: str, scale: float) -> float:
            return self.total_s[name] / n[name] * scale if n[name] else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {
            "mobility.generate_trace_ms": per_call("mobility.generate_trace", 1e3),
            "mobility.spawn_tasks_ms": per_call("mobility.spawn_tasks", 1e3),
            "mobility.tasks": c["mobility.tasks"] / passes,
            "channel.attach_us": per_call("channel.attach_comm_times", 1e6),
            "engine.self_us_per_window": ratio(
                (self.self_s["engine.run_episode"] + self.self_s["engine.episode_loop"]) * 1e6,
                c["engine.windows"],
            ),
            "engine.windows": c["engine.windows"] / passes,
            "engine.windows_empty": c["engine.windows_empty"] / passes,
            "engine.drops": c["engine.drops"] / passes,
            "heuristics.replays": n["heuristics.replay_ordering"] / passes,
            "heuristics.replay_us": per_call("heuristics.replay_ordering", 1e6),
            "heuristics.replay_busy_s": self.self_s["heuristics.replay_ordering"] / passes,
            "heuristics.offline_improving_frac": ratio(c["offline_improving"], c["offline_evals"]),
            "heuristics.offline_swarm_gain": ratio(s["offline_gain"], c["offline_gain_n"]),
            "heuristics.dyn_pso_select_us": per_call("heuristics.dyn_pso_select", 1e6),
            "heuristics.dyn_pso_evals": c["dyn_pso_evals"] / passes,
            "heuristics.dyn_pso_us_per_eval": ratio(s["dyn_pso_search_s"] * 1e6, c["dyn_pso_evals"]),
            "heuristics.queue_select_us": per_call("heuristics.queue_select", 1e6),
            "rl.encode_state_us": per_call("rl.encoding.encode_state", 1e6),
            "rl.nets.forward_b1_us": ratio(s["forward_b1_s"] * 1e6, c["forward_b1"]),
            "rl.nets.forward_b64_us": ratio(s["forward_b64_s"] * 1e6, c["forward_b64"]),
            "rl.nets.backward_b64_us": ratio(s["backward_b64_s"] * 1e6, c["backward_b64"]),
            "rl.nets.adam_step_us": per_call("rl.nets.adam_step", 1e6),
            "rl.policy.select_us.dqn": per_call("rl.policy.select.dqn", 1e6),
            "rl.policy.select_us.ppo": per_call("rl.policy.select.ppo", 1e6),
            "rl.policy.forwards_per_select.ppo": ratio(
                c["ppo_select_forwards"], n["rl.policy.select.ppo"]
            ),
            "rl.reward.decision_reward_us": per_call("rl.reward.decision_reward", 1e6),
            "rl.envs.reset_ms": per_call("rl.envs.reset", 1e3),
            "rl.envs.step_us": per_call("rl.envs.step", 1e6),
            "rl.envs.snapshot_score_s": per_call("rl.envs.snapshot_score", 1.0),
            "rl.envs.draws_per_episode": ratio(c["env_draws"], c["env_episodes"]),
            "rl.dqn.steps": c["dqn_steps"] / passes,
            "rl.ppo.steps": c["ppo_steps"] / passes,
            "experiments.objective_us": per_call("experiments.objective", 1e6),
            "experiments.report_ms": ratio(
                self.total_s["experiments.from_result"] * 1e3, n["experiments.run_matrix"]
            ),
            "trace.overhead_s": overhead_s,
        }
        for v in DENSITIES:
            m[f"heuristics.offline_s.{v}"] = ratio(s[f"offline_s.{v}"], c[f"offline_calls.{v}"])
        for algo in ALGOS:
            m[f"experiments.run_cell_s.{algo}"] = ratio(s[f"run_cell_s.{algo}"], c[f"run_cell.{algo}"])
        for layer, secs in self.layer_self_s().items():
            m[BUSY_METRIC[layer]] = secs / passes
        missing = set(PER_LAYER_UNITS) - set(m)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        return {k: m[k] for k in PER_LAYER_UNITS}

    def print_table(self, passes: int, wall_s: float, out=sys.stdout) -> None:
        """Self time per layer, per pass, keyed by its metric name."""
        selfs = self.layer_self_s()
        total = sum(selfs.values())
        print(f"per-layer self time, seconds per pass (traced pass {wall_s:.4f} s):", file=out)
        for layer, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
            share = secs / total if total else 0.0
            print(f"  {BUSY_METRIC[layer]:<22} {secs / passes:10.4f}  {share:6.1%}", file=out)

    def write(self, path: str) -> None:
        doc = {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent", "cell"],
            "names": self.names,
            "cells": self.cells,
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "cell": list(self.span_cell),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
