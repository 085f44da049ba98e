"""The trainers' hyperparameters, one config section each.

They live apart from the trainers, so that loading a config (and the
CLI, which loads one first) imports neither ``rl.dqn`` nor ``rl.ppo``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..domain import NON_NEGATIVE, POSITIVE, UNIT, UNIT_NO_ZERO, check_fields, field_faults


@dataclass
class DqnParams:
    episodes: int = field(default=2500, metadata=POSITIVE)
    lr: float = field(default=1e-4, metadata=POSITIVE)
    gamma: float = field(default=0.3, metadata=UNIT_NO_ZERO)
    batch_size: int = field(default=64, metadata=POSITIVE)
    replay_capacity: int = field(default=50_000, metadata=POSITIVE)
    target_sync: int = field(default=500, metadata=POSITIVE)
    eps_start: float = field(default=1.0, metadata=UNIT)
    eps_end: float = field(default=0.05, metadata=UNIT)
    eps_anneal_frac: float = field(default=0.6, metadata=UNIT_NO_ZERO)
    explore_full_frac: float = field(default=0.5, metadata=UNIT)
    warmup: int = field(default=128, metadata=NON_NEGATIVE)
    updates_per_step: int = field(default=1, metadata=POSITIVE)
    hidden: tuple[int, ...] = field(default=(128, 128), metadata=POSITIVE)
    eval_every: int = field(default=50, metadata=NON_NEGATIVE)
    eval_episodes: int = field(default=10, metadata=POSITIVE)

    def __post_init__(self) -> None:
        faults = field_faults(self)
        cross = []
        eps = (self.eps_end, self.eps_start)
        if not faults.keys() & {"eps_end", "eps_start"} and eps[0] > eps[1]:
            cross.append(f"need 0 <= eps_end <= eps_start <= 1, got {eps!r}")
        sizes = (self.batch_size, self.replay_capacity)
        if not faults.keys() & {"batch_size", "replay_capacity"} and sizes[0] > sizes[1]:
            cross.append(f"need 1 <= batch_size <= replay_capacity, got {sizes!r}")
        check_fields(self, faults, *cross)


@dataclass
class PpoParams:
    episodes: int = field(default=2500, metadata=POSITIVE)
    lr_actor: float = field(default=3e-4, metadata=POSITIVE)
    lr_critic: float = field(default=3e-4, metadata=POSITIVE)
    gamma: float = field(default=0.95, metadata=UNIT_NO_ZERO)
    gae_lambda: float = field(default=0.95, metadata=UNIT)
    clip: float = field(default=0.2, metadata=POSITIVE)
    rollout: int = field(default=2048, metadata=POSITIVE)
    epochs: int = field(default=10, metadata=POSITIVE)
    minibatch: int = field(default=64, metadata=POSITIVE)
    entropy_coef: float = 0.01
    hidden: tuple[int, ...] = field(default=(128, 128), metadata=POSITIVE)
    eval_every: int = field(default=50, metadata=NON_NEGATIVE)
    eval_episodes: int = field(default=10, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)
