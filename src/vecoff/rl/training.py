"""What the value-based and the policy-gradient trainer share.

Rewards enter both learners divided by REWARD_SCALE; reward curves stay
in raw units. A ``SnapshotKeeper`` owns the evaluation cadence and the
best snapshot, which becomes the returned policy. The environment's
``snapshot_score`` scores each snapshot through ``PolicyScheduler``, the
pick that deploys it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .policy import Policy

REWARD_SCALE = 100.0


class TrainingDiverged(RuntimeError):
    """A loss or value estimate stopped being finite."""


@dataclass
class TrainResult:
    """What a training run hands back: ``policy``, the best snapshot seen
    during evaluation (the final weights when evaluation never ran); the
    raw per-episode training return as ``reward_curve``; and (episode,
    score) pairs of the environment's ``snapshot_score`` as ``eval_curve``."""

    policy: Policy
    reward_curve: list[float]
    eval_curve: list[tuple[int, float]] = field(default_factory=list)
    best_eval: float | None = None

    def save_curve(self, path: str) -> None:
        """Write the reward curve as CSV rows ``episode,total_reward``."""
        with open(path, "w") as fh:
            fh.write("episode,total_reward\n")
            for ep, total in enumerate(self.reward_curve, start=1):
                fh.write(f"{ep},{total!r}\n")


class SnapshotKeeper:
    """The evaluation cadence and the best snapshot of one training run.

    ``policy`` holds the trainer's live networks, which it updates in
    place; it is scored as it stands at each eval point.
    """

    def __init__(self, env, params, policy: Policy):
        self.env = env
        self.params = params
        self.policy = policy
        self.eval_curve: list[tuple[int, float]] = []
        self.best_eval: float | None = None
        self._best = policy

    def after_episode(self, ep: int) -> None:
        """Score the live policy if ``ep`` (1-based) is an eval point."""
        every = self.params.eval_every
        if not every or ep % every:
            return
        score = float(self.env.snapshot_score(self.policy, self.params.eval_episodes))
        self.eval_curve.append((ep, score))
        if self.best_eval is None or score > self.best_eval:
            self.best_eval = score
            networks = {name: net.clone() for name, net in self.policy.networks.items()}
            self._best = replace(self.policy, networks=networks)

    def result(self, reward_curve: list[float], seed: int) -> TrainResult:
        """The best snapshot, or the final weights, as a policy with the run's curves."""
        metadata = {"episodes": self.params.episodes, "reward_scale": REWARD_SCALE, "seed": seed}
        policy = replace(self._best, metadata=metadata)
        return TrainResult(policy, reward_curve, self.eval_curve, self.best_eval)
