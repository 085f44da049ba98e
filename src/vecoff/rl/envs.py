"""Episode environments for training schedulers.

Both environments share one minimal interface: ``reset() -> (state,
mask)`` and ``step(action) -> (reward, next_or_None, done)``, where
``state`` is the flat float vector and ``mask`` the boolean action mask,
plus ``snapshot_score(policy, episodes)``, the score of the pick
``PolicyScheduler`` deploys by which trainers keep their best snapshot.
There is deliberately no discounting or bookkeeping here; trainers own
that.

Actions outside the mask are legal to *take* but worthless: the step
earns zero reward and the episode advances as if the first task of the
window had been chosen. Exploration can therefore roam the whole padded
action space and learn which slots hold real work, while the simulator
behind the environment only ever sees valid choices.
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from ..channel import ChannelParams, attach_comm_times
from ..domain import MecState, SimConfig, Task
from ..engine import (
    DecisionPoint,
    DecisionWindow,
    EpisodeResult,
    PreparedEpisode,
    episode_loop,
    objective,
    prepare_episode,
    run_episode,
)
from ..mobility import ScenarioGeometry, WorkloadModel, episode_seeds, generate_trace, spawn_tasks
from .encoding import EncoderSpec, encode_state
from .policy import Policy, PolicyScheduler
from .reward import decision_reward

Obs = tuple[np.ndarray, np.ndarray]

# draws a reset makes before it calls a scenario too sparse to train on
MAX_REDRAWS = 200


class OffloadEnv:
    """Full simulation episodes, one decision window per step.

    Every reset draws a fresh traffic trace and task set from the
    environment's own seed stream, so two environments built with the
    same seed replay the same episode sequence. Scenarios that happen to
    produce no decision windows (every task lands on an idle server) are
    skipped and redrawn; a scenario so sparse that this keeps happening
    is a configuration error and raises.
    """

    def __init__(
        self,
        geometry: ScenarioGeometry,
        workload: WorkloadModel,
        sim: SimConfig,
        channel: ChannelParams,
        encoder: EncoderSpec,
        vehicles: int,
        seed: int,
    ):
        self.geometry = geometry
        self.workload = workload
        self.sim = sim
        self.channel = channel
        self.encoder = encoder
        self.vehicles = vehicles
        self._seed_rng = np.random.default_rng(seed)
        # the held-out stream: disjoint from the training stream
        self._held_out_rng = np.random.default_rng(seed + 1_000_003)
        self._held_out: list[PreparedEpisode] = []
        self._loop = None
        self._point: DecisionPoint | None = None
        self.episodes_seen = 0
        self.last_result: EpisodeResult | None = None

    def _draw_playable(
        self, rng: np.random.Generator
    ) -> tuple[PreparedEpisode, Generator, DecisionPoint]:
        """The next draw of ``rng``'s stream that reaches a decision window:
        its ``PreparedEpisode``, and the engine paused at that window,
        running on copies of the preparation's tasks."""
        for _ in range(MAX_REDRAWS):
            trace_seed, task_seed = episode_seeds(int(rng.integers(0, 2**31 - 1)))
            trace = generate_trace(self.geometry, self.vehicles, trace_seed)
            tasks = spawn_tasks(
                trace, self.geometry, self.workload, self.sim.tasks_per_vehicle, task_seed
            )
            episode = prepare_episode(tasks, self.channel)
            loop = episode_loop([t.copy() for t in episode.tasks], self.sim)
            try:
                return episode, loop, next(loop)
            except StopIteration:
                # ran to completion without ever consulting a scheduler
                continue
        raise RuntimeError(
            f"no decision windows in {MAX_REDRAWS} redraws; "
            "scenario has no contention"
        )

    def reset(self) -> Obs:
        _, self._loop, point = self._draw_playable(self._seed_rng)
        self._point = point
        self.episodes_seen += 1
        return encode_state(point.mecs, point.window, point.now, self.encoder)

    def step(self, action: int) -> tuple[float, Obs | None, bool]:
        if self._point is None or self._loop is None:
            raise RuntimeError("step() before reset(), or episode already done")
        window = self._point.window
        # a pick outside the feasible window earns nothing; the engine
        # still needs a decision, so the first feasible task stands in
        visible = min(len(window.feasible), self.encoder.window_cap)
        if 0 <= action < visible:
            reward = decision_reward(window, action).r_total
            choice = action
        else:
            reward = 0.0
            choice = 0
        try:
            point = self._loop.send((choice, 0.0))
        except StopIteration as stop:
            self.last_result = stop.value
            self._loop = None
            self._point = None
            return reward, None, True
        self._point = point
        return reward, encode_state(point.mecs, point.window, point.now, self.encoder), False

    def snapshot_score(self, policy: Policy, episodes: int = 10) -> float:
        """Greedy scheduling quality of ``policy``, as a score to maximize.

        Replays a held-out episode set, drawn and prepared once from this
        environment's seed and disjoint from its training stream, under
        ``PolicyScheduler`` at zero decision cost, and returns the negated
        mean scheduling objective. Trainers use this to pick the snapshot
        worth deploying: per-episode reward sums barely move with policy
        quality here, because every window pays its chosen task a similar
        amount and unchosen tasks come back in later windows, while the
        objective is the quantity schedulers actually compete on.
        """
        while len(self._held_out) < episodes:
            episode, _, _ = self._draw_playable(self._held_out_rng)
            # only objectives are read, so the set keeps no sharing log
            # (about 0.27 MB per env at 100 vehicles)
            self._held_out.append(PreparedEpisode(episode.tasks, ()))
        scheduler = PolicyScheduler(policy)
        objectives = []
        for episode in self._held_out[:episodes]:
            result = run_episode(episode, scheduler, self.sim, self.channel, exec_cost=0.0)
            objectives.append(objective(result, self.sim.lambda_weight))
        return -math.fsum(objectives) / episodes


class ToyTwoActionEnv:
    """One fabricated two-task window per episode, for sanity training.

    Each window holds an urgent cheap task (gap 0, tiny processing time)
    and a lax expensive one (gap 5..15 s, processing 1..3 s), with the
    good slot's position randomized. Picking the urgent task scores about
    199 of the 200 available points, the other near 0, so a learner that
    reads the state at all converges fast and one that exploits a fixed
    position cannot beat 50%.
    """

    URGENT_PROC = 0.01

    def __init__(self, encoder: EncoderSpec | None = None, seed: int = 0):
        self.encoder = encoder if encoder is not None else EncoderSpec()
        if self.encoder.window_cap < 2:
            raise ValueError("toy environment needs a window cap of at least 2")
        self._rng = np.random.default_rng(seed)
        self._mecs = [MecState(id=j + 1) for j in range(self.encoder.num_mecs)]
        self._window: DecisionWindow | None = None
        self.best_action: int | None = None
        self._episode = 0

    def _make_task(self, tid: int, gap: float, proc: float) -> Task:
        return Task(
            id=tid,
            vehicle_id=tid,
            arrival=0.0,
            size=1e6,
            proc_time=proc,
            remaining_in_range=gap,
        )

    def reset(self) -> Obs:
        best = int(self._rng.integers(0, 2))
        gap_big = float(self._rng.uniform(5.0, 15.0))
        proc_big = float(self._rng.uniform(1.0, 3.0))
        urgent = self._make_task(0, 0.0, self.URGENT_PROC)
        lax = self._make_task(1, gap_big, proc_big)
        slots = [urgent, lax] if best == 0 else [lax, urgent]
        self._episode += 1
        self._window = DecisionWindow(
            index=self._episode, queued=list(slots), feasible=list(slots),
            earliest_avail=0.0,
        )
        self.best_action = best
        return encode_state(self._mecs, self._window, 0.0, self.encoder)

    def step(self, action: int) -> tuple[float, Obs | None, bool]:
        if self._window is None:
            raise RuntimeError("step() before reset(), or episode already done")
        if 0 <= action < len(self._window.feasible):
            reward = decision_reward(self._window, action).r_total
        else:
            reward = 0.0
        self._window = None
        return reward, None, True

    def snapshot_score(self, policy: Policy, episodes: int = 10) -> float:
        """Mean reward of ``policy``'s greedy pick over the next ``episodes``
        windows of this env's stream."""
        scheduler = PolicyScheduler(policy)
        rewards = []
        for _ in range(episodes):
            self.reset()
            rewards.append(self.step(scheduler.select(self._window, self._mecs, 0.0))[0])
        return float(np.mean(rewards))
