import dataclasses

import numpy as np
import pytest

from vecoff import engine
from vecoff.rl import dqn, envs, ppo
from vecoff.rl.dqn import ReplayBuffer, train_dqn
from vecoff.rl.envs import OffloadEnv, ToyTwoActionEnv
from vecoff.rl.nets import Mlp
from vecoff.rl.params import DqnParams, PpoParams
from vecoff.rl.policy import Policy, masked_argmax, masked_softmax, policy_to_dict
from vecoff.rl.ppo import train_ppo
from vecoff.rl.training import SnapshotKeeper, TrainingDiverged
from vecoff.config import default_config

# exploration roams the whole padded action space, so the toy needs a
# few hundred episodes before every seed locks onto the rule
TOY_DQN = DqnParams(episodes=500, eval_every=100, eval_episodes=5)
TOY_PPO = PpoParams(episodes=300, rollout=64, epochs=4, minibatch=32, eval_every=100, eval_episodes=5)


def greedy_action(policy, state, mask):
    if policy.algorithm == "dqn":
        return masked_argmax(policy.networks["q"].forward(state), mask)
    probs = masked_softmax(policy.networks["actor"].forward(state), mask)
    return masked_argmax(probs, mask)


def toy_accuracy(policy, episodes=400, seed=99):
    env = ToyTwoActionEnv(seed=seed)
    hits = 0
    for _ in range(episodes):
        state, mask = env.reset()
        hits += greedy_action(policy, state, mask) == env.best_action
    return hits / episodes


class NanRewardEnv(ToyTwoActionEnv):
    """Poisoned environment for exercising divergence detection."""

    def step(self, action):
        reward, nxt, done = super().step(action)
        return float("nan"), nxt, done


class TestToyConvergence:
    def test_dqn_learns_the_toy_rule(self):
        result = train_dqn(ToyTwoActionEnv(seed=1), TOY_DQN, seed=1)
        assert toy_accuracy(result.policy) >= 0.95
        assert len(result.reward_curve) == 500
        assert result.policy.algorithm == "dqn"

    def test_ppo_learns_the_toy_rule(self):
        result = train_ppo(ToyTwoActionEnv(seed=2), TOY_PPO, seed=2)
        assert toy_accuracy(result.policy) >= 0.95
        assert len(result.reward_curve) == 300
        assert result.policy.algorithm == "ppo"
        assert set(result.policy.networks) == {"actor", "critic"}

    @pytest.mark.parametrize("train, params", [
        (train_dqn, DqnParams(episodes=20)),
        (train_ppo, PpoParams(episodes=20, rollout=32, epochs=2, minibatch=16)),
    ], ids=["dqn", "ppo"])
    def test_metadata_records_the_run(self, train, params):
        result = train(ToyTwoActionEnv(seed=1), params, seed=7)
        assert result.policy.metadata["episodes"] == 20
        assert result.policy.metadata["seed"] == 7
        assert result.policy.metadata["reward_scale"] == 100.0


# (trainer module, trainer, a budget small enough for a 30-vehicle OffloadEnv)
SKELETON_RUNS = {
    "dqn": (dqn, train_dqn, DqnParams(
        episodes=6, hidden=(16,), batch_size=16, warmup=16, eval_every=2, eval_episodes=2)),
    "ppo": (ppo, train_ppo, PpoParams(
        episodes=6, hidden=(16,), rollout=64, epochs=2, minibatch=32, eval_every=2,
        eval_episodes=2)),
}


def tiny_offload_env() -> OffloadEnv:
    cfg = default_config()
    return OffloadEnv(
        cfg.geometry, cfg.workload, cfg.sim, cfg.channel, cfg.encoder, vehicles=30, seed=5,
    )


@pytest.fixture
def live_nets(monkeypatch):
    """Each trainer's live networks, as handed to its SnapshotKeeper."""
    seen = []

    class RecordingKeeper(SnapshotKeeper):
        def __init__(self, env, params, policy):
            super().__init__(env, params, policy)
            seen.append(policy.networks)

    for module in (dqn, ppo):
        monkeypatch.setattr(module, "SnapshotKeeper", RecordingKeeper)
    return seen


@pytest.mark.parametrize("algo", ["dqn", "ppo"])
class TestSnapshotKeeper:
    def test_the_policy_is_the_best_scored_snapshot(self, algo, live_nets):
        _, train, params = SKELETON_RUNS[algo]
        env = tiny_offload_env()
        result = train(env, params, seed=5)
        assert [ep for ep, _ in result.eval_curve] == [2, 4, 6]
        assert result.best_eval == max(score for _, score in result.eval_curve)
        assert env.snapshot_score(result.policy, params.eval_episodes) == result.best_eval
        # a copy, not the networks that went on training
        assert all(result.policy.networks[name] is not net for name, net in live_nets[0].items())

    def test_without_evaluation_the_final_weights_are_returned(self, algo, live_nets, monkeypatch):
        _, train, params = SKELETON_RUNS[algo]
        env = tiny_offload_env()
        monkeypatch.setattr(env, "snapshot_score", lambda *a: pytest.fail("scored"))
        result = train(env, dataclasses.replace(params, eval_every=0), seed=5)
        assert result.eval_curve == []
        assert result.best_eval is None
        assert len(result.reward_curve) == params.episodes
        assert all(result.policy.networks[name] is net for name, net in live_nets[0].items())


# eval curves and best scores of the SKELETON_RUNS on tiny_offload_env, seed 5
PINNED_EVALS = {
    "dqn": ([(2, -15.015741362011312), (4, -15.015741362011312), (6, -15.015741362011312)],
            -15.015741362011312),
    "ppo": ([(2, -15.015741362011312), (4, -15.015741362011312), (6, -15.015741362011312)],
            -15.015741362011312),
}


@pytest.mark.parametrize("algo", ["dqn", "ppo"])
def test_training_outputs_are_pinned(algo):
    _, train, params = SKELETON_RUNS[algo]
    result = train(tiny_offload_env(), params, seed=5)
    assert (result.eval_curve, result.best_eval) == PINNED_EVALS[algo]


@pytest.mark.parametrize("algo", ["dqn", "ppo"])
@pytest.mark.parametrize("seed", [1, 2])
def test_acting_through_the_batch_forward_trains_the_same(algo, seed, live_nets, monkeypatch):
    # the acting steps run Mlp.forward_one; Mlp.forward is the reference.
    # A rollout of 16 updates PPO's nets between acting steps.
    _, train, params = SKELETON_RUNS[algo]
    if algo == "ppo":
        params = dataclasses.replace(params, rollout=16, minibatch=8)
    lean = train(tiny_offload_env(), params, seed=seed)
    monkeypatch.setattr(Mlp, "forward_one", lambda self, x: Mlp.forward(self, x))
    batch = train(tiny_offload_env(), params, seed=seed)
    assert lean.reward_curve == batch.reward_curve
    assert lean.eval_curve == batch.eval_curve
    assert policy_to_dict(lean.policy) == policy_to_dict(batch.policy)
    # the final weights as well as the kept snapshot
    for name, net in live_nets[0].items():
        assert all(np.array_equal(a, b) for a, b in zip(net.params(), live_nets[1][name].params()))


def test_held_out_set_is_drawn_once(monkeypatch):
    draws = []
    real = envs.generate_trace
    monkeypatch.setattr(envs, "generate_trace", lambda *a: draws.append(a) or real(*a))
    env = tiny_offload_env()
    enc = env.encoder
    net = Mlp([enc.state_dim, 16, enc.action_dim], rng=np.random.default_rng(0))
    policy = Policy("dqn", enc, {"q": net})
    first = env.snapshot_score(policy, 2)
    drawn = len(draws)
    assert env.snapshot_score(policy, 2) == first
    assert drawn >= 2 and len(draws) == drawn


def test_held_out_set_is_prepared_once(monkeypatch):
    attaches = []
    for module in (engine, envs):
        real = module.attach_comm_times
        monkeypatch.setattr(
            module, "attach_comm_times", lambda *a, real=real: attaches.append(a) or real(*a)
        )
    env = tiny_offload_env()
    enc = env.encoder
    net = Mlp([enc.state_dim, 16, enc.action_dim], rng=np.random.default_rng(0))
    policy = Policy("dqn", enc, {"q": net})
    env.snapshot_score(policy, 2)
    prepared = len(attaches)
    env.snapshot_score(policy, 2)
    assert prepared >= 2 and len(attaches) == prepared


class TestTrainingDeterminism:
    def test_dqn_same_seed_same_curve(self):
        a = train_dqn(ToyTwoActionEnv(seed=3), DqnParams(episodes=60), seed=3)
        b = train_dqn(ToyTwoActionEnv(seed=3), DqnParams(episodes=60), seed=3)
        assert a.reward_curve == b.reward_curve
        wa = a.policy.networks["q"].weights
        wb = b.policy.networks["q"].weights
        assert all(np.array_equal(x, y) for x, y in zip(wa, wb))

    def test_ppo_same_seed_same_curve(self):
        params = PpoParams(episodes=60, rollout=32, epochs=2, minibatch=16)
        a = train_ppo(ToyTwoActionEnv(seed=4), params, seed=4)
        b = train_ppo(ToyTwoActionEnv(seed=4), params, seed=4)
        assert a.reward_curve == b.reward_curve

    def test_dqn_seed_changes_the_run(self):
        a = train_dqn(ToyTwoActionEnv(seed=3), DqnParams(episodes=60), seed=3)
        b = train_dqn(ToyTwoActionEnv(seed=3), DqnParams(episodes=60), seed=5)
        assert a.reward_curve != b.reward_curve


class TestTrainingSafety:
    def test_dqn_flags_divergence(self):
        with pytest.raises(TrainingDiverged):
            train_dqn(NanRewardEnv(seed=1), DqnParams(episodes=300), seed=1)

    def test_ppo_flags_divergence(self):
        with pytest.raises(TrainingDiverged):
            train_ppo(NanRewardEnv(seed=1), TOY_PPO, seed=1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DqnParams(episodes=0)
        with pytest.raises(ValueError):
            DqnParams(gamma=1.5)
        with pytest.raises(ValueError):
            PpoParams(clip=0.0)
        with pytest.raises(ValueError):
            PpoParams(rollout=0)
        with pytest.raises(ValueError, match="hidden"):
            DqnParams(hidden=(128, "a"))


class TestReplayBuffer:
    def test_wraps_and_samples_valid_rows(self):
        buf = ReplayBuffer(capacity=8, state_dim=3, action_dim=2)
        for i in range(12):
            s = np.full(3, float(i))
            terminal = i % 3 == 0
            nxt = None if terminal else s + 1
            nxt_mask = None if terminal else np.array([True, False])
            buf.push(s, i % 2, float(i), nxt, nxt_mask, terminal)
        assert buf.size == 8
        idx = buf.sample(4, np.random.default_rng(0))
        # the oldest four rows were overwritten by the wrap
        assert buf.states[idx].min() >= 4.0

    def test_terminal_rows_admit_no_bootstrap(self):
        buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=3)
        buf.push(np.zeros(2), 0, 1.0, None, None, True)
        assert not buf.next_masks[0].any()
        assert buf.dones[0]


class TestOffloadEnvSteps:
    def test_full_env_round_trip(self):
        cfg = default_config()
        env = OffloadEnv(
            cfg.geometry, cfg.workload, cfg.sim, cfg.channel, cfg.encoder,
            vehicles=20, seed=11,
        )
        state, mask = env.reset()
        assert state.shape == (cfg.encoder.state_dim,)
        assert mask.shape == (cfg.encoder.action_dim,)
        assert mask.any()
        steps = 0
        done = False
        while not done:
            action = int(np.flatnonzero(mask)[0])
            reward, nxt, done = env.step(action)
            assert np.isfinite(reward)
            steps += 1
            if nxt is not None:
                state, mask = nxt
        assert steps >= 1
        assert env.last_result is not None
        assert env.last_result.num_windows >= steps

    def test_training_rewards_stay_finite(self):
        result = train_dqn(ToyTwoActionEnv(seed=6), DqnParams(episodes=80), seed=6)
        assert all(np.isfinite(r) for r in result.reward_curve)
        result = train_ppo(
            ToyTwoActionEnv(seed=6),
            PpoParams(episodes=40, rollout=32, epochs=2, minibatch=16),
            seed=6,
        )
        assert all(np.isfinite(r) for r in result.reward_curve)

    def test_out_of_mask_pick_earns_nothing_on_the_toy(self):
        env = ToyTwoActionEnv(seed=12)
        env.reset()
        reward, nxt, done = env.step(9)
        assert reward == 0.0
        assert done and nxt is None

    def test_out_of_mask_pick_advances_the_full_env(self):
        cfg = default_config()
        env = OffloadEnv(
            cfg.geometry, cfg.workload, cfg.sim, cfg.channel, cfg.encoder,
            vehicles=50, seed=11,
        )
        state, mask = env.reset()
        dead = int(np.flatnonzero(~mask)[0])
        reward, nxt, done = env.step(dead)
        assert reward == 0.0
        # the stand-in choice kept the episode going
        while not done:
            reward, nxt, done = env.step(0)
        assert env.last_result is not None
        assert env.last_result.num_windows >= 1

    def test_step_before_reset_rejected(self):
        env = ToyTwoActionEnv(seed=0)
        with pytest.raises(RuntimeError):
            env.step(0)
