"""Actor-critic training of the window scheduler.

Clipped-surrogate policy optimization with generalized advantage
estimation, masked action distributions, and separate optimizers for the
actor and critic. Gradients are hand-derived against the network's
logits: the score term is (one-hot - probs) scaled by the active
surrogate branch, the entropy bonus differentiates to -p (log p + H),
and masked-out logits receive exactly zero gradient because they carry
zero probability and never enter the log-partition.
"""

from __future__ import annotations

import numpy as np

from .encoding import EncoderSpec
from .nets import Adam, Mlp
from .params import PpoParams
from .policy import Policy, masked_softmax
from .training import REWARD_SCALE, SnapshotKeeper, TrainingDiverged, TrainResult


def _sample_from(probs: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(probs)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, len(probs) - 1))


def train_ppo(env, params: PpoParams, seed: int = 0) -> TrainResult:
    """Train an actor-critic pair on ``env``; returns the best snapshot.

    Episode accounting matches the value-based trainer: the run ends when
    ``params.episodes`` environment episodes have completed, regardless
    of how rollout boundaries fall.
    """
    enc: EncoderSpec = env.encoder
    rng = np.random.default_rng(seed)
    actor = Mlp([enc.state_dim, *params.hidden, enc.action_dim], rng=rng)
    critic = Mlp([enc.state_dim, *params.hidden, 1], rng=rng)
    opt_actor = Adam(actor.params(), lr=params.lr_actor)
    opt_critic = Adam(critic.params(), lr=params.lr_critic)

    keeper = SnapshotKeeper(env, params, Policy("ppo", enc, {"actor": actor, "critic": critic}))
    reward_curve: list[float] = []

    state, mask = env.reset()
    ep_reward = 0.0

    # the rollout store, rewritten from row 0 by every rollout
    n = params.rollout
    states = np.zeros((n, enc.state_dim))
    masks = np.zeros((n, enc.action_dim), dtype=bool)
    actions = np.zeros(n, dtype=np.int64)
    logprobs = np.zeros(n)
    rewards = np.zeros(n)
    dones = np.zeros(n, dtype=bool)
    values = np.zeros(n)

    while len(reward_curve) < params.episodes:
        # one rollout, cut wherever the step budget lands; rows from t on
        # are stale and never read
        t = 0
        while t < n:
            probs = masked_softmax(actor.forward_one(state), mask)
            if not np.all(np.isfinite(probs[mask])):
                raise TrainingDiverged("action probabilities are not finite")
            action = _sample_from(probs, rng)
            value = float(critic.forward_one(state)[0])
            reward, nxt, done = env.step(action)
            states[t] = state
            masks[t] = mask
            actions[t] = action
            logprobs[t] = np.log(probs[action])
            rewards[t] = reward / REWARD_SCALE
            dones[t] = done
            values[t] = value
            ep_reward += reward
            t += 1
            if done:
                reward_curve.append(ep_reward)
                ep_reward = 0.0
                keeper.after_episode(len(reward_curve))
                if len(reward_curve) >= params.episodes:
                    break
                state, mask = env.reset()
            else:
                state, mask = nxt

        bootstrap = 0.0 if dones[t - 1] else float(critic.forward_one(state)[0])
        advantages = _gae(
            rewards[:t], values[:t], dones[:t], bootstrap, params.gamma, params.gae_lambda
        )
        returns = advantages + values[:t]
        norm_adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        for _ in range(params.epochs):
            order = rng.permutation(t)
            for lo in range(0, t, params.minibatch):
                mb = order[lo : lo + params.minibatch]
                _update_actor(
                    actor, opt_actor, states[mb], masks[mb], actions[mb],
                    logprobs[mb], norm_adv[mb], params,
                )
                _update_critic(critic, opt_critic, states[mb], returns[mb])

    return keeper.result(reward_curve, seed)


def _gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimates, episodes cut at done flags."""
    n = len(rewards)
    adv = np.zeros(n)
    next_value = bootstrap
    running = 0.0
    for i in range(n - 1, -1, -1):
        cont = 0.0 if dones[i] else 1.0
        delta = rewards[i] + gamma * next_value * cont - values[i]
        running = delta + gamma * lam * cont * running
        adv[i] = running
        next_value = values[i]
    return adv


def _update_actor(
    actor: Mlp,
    opt: Adam,
    states: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    logprobs_old: np.ndarray,
    advantages: np.ndarray,
    params: PpoParams,
) -> None:
    b = len(actions)
    logits, cache = actor.forward(states, want_cache=True)
    probs = masked_softmax(logits, masks)
    rows = np.arange(b)
    p_a = probs[rows, actions]
    if np.any(p_a <= 0.0) or not np.all(np.isfinite(p_a)):
        raise TrainingDiverged("chosen-action probability collapsed to zero")
    ratio = np.exp(np.log(p_a) - logprobs_old)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - params.clip, 1.0 + params.clip) * advantages
    # gradient flows only where the unclipped branch is the active minimum
    active = surr1 <= surr2
    g_logp = np.where(active, -advantages * ratio, 0.0) / b

    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    grad_logits = g_logp[:, None] * (onehot - probs)

    if params.entropy_coef > 0.0:
        # log p is taken as 0 where p is 0, so masked slots add nothing
        logp = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        entropy = -(probs * logp).sum(axis=1)
        # d(-c H)/dz = c * p (log p + H)
        grad_logits += params.entropy_coef * probs * (logp + entropy[:, None]) / b

    grads = actor.backward(cache, grad_logits)
    opt.step(grads)


def _update_critic(critic: Mlp, opt: Adam, states: np.ndarray, returns: np.ndarray) -> None:
    v, cache = critic.forward(states, want_cache=True)
    v = v.reshape(-1)
    err = v - returns
    if not np.all(np.isfinite(err)):
        raise TrainingDiverged("value estimates are not finite")
    grad_out = (2.0 * err / len(err)).reshape(-1, 1)
    grads = critic.backward(cache, grad_out)
    opt.step(grads)
