"""Learning schedulers: state encoding, reward shaping, numpy networks, training
environments, DQN and PPO over one snapshot keeper, and policy persistence."""

from .encoding import EncoderSpec, encode_state
from .reward import RewardBreakdown, decision_reward
from .nets import Adam, Mlp
from .policy import (
    Policy,
    PolicyContractError,
    PolicyFormatError,
    PolicyScheduler,
    load_policy,
    save_policy,
)
from .training import TrainResult, TrainingDiverged
from .dqn import DqnParams, train_dqn
from .ppo import PpoParams, train_ppo
from .envs import OffloadEnv, ToyTwoActionEnv

__all__ = [
    "EncoderSpec",
    "encode_state",
    "RewardBreakdown",
    "decision_reward",
    "Adam",
    "Mlp",
    "Policy",
    "PolicyContractError",
    "PolicyFormatError",
    "PolicyScheduler",
    "load_policy",
    "save_policy",
    "DqnParams",
    "TrainResult",
    "TrainingDiverged",
    "train_dqn",
    "PpoParams",
    "train_ppo",
    "OffloadEnv",
    "ToyTwoActionEnv",
]
