import json

import numpy as np
import pytest

from vecoff.domain import ChannelParams, MecState, SimConfig
from vecoff.engine import run_episode
from vecoff.rl.encoding import EncoderSpec, PolicyContractError
from vecoff.rl.nets import Mlp
from vecoff.rl.policy import (
    Policy,
    PolicyFormatError,
    PolicyScheduler,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_policy,
)

from conftest import make_task, make_task_set


def dqn_policy(num_mecs=2, window_cap=4, seed=0):
    enc = EncoderSpec(num_mecs=num_mecs, window_cap=window_cap)
    net = Mlp([enc.state_dim, 8, enc.action_dim], rng=np.random.default_rng(seed))
    return Policy(algorithm="dqn", encoder=enc, networks={"q": net}, metadata={"seed": seed})


def ppo_policy(num_mecs=2, window_cap=4, seed=0):
    enc = EncoderSpec(num_mecs=num_mecs, window_cap=window_cap)
    rng = np.random.default_rng(seed)
    actor = Mlp([enc.state_dim, 8, enc.action_dim], rng=rng)
    critic = Mlp([enc.state_dim, 8, 1], rng=rng)
    return Policy(algorithm="ppo", encoder=enc, networks={"actor": actor, "critic": critic})


class TestPolicyContainer:
    def test_unknown_algorithm_rejected(self):
        enc = EncoderSpec()
        with pytest.raises(PolicyFormatError):
            Policy(algorithm="sarsa", encoder=enc, networks={})

    def test_missing_required_network_rejected(self):
        enc = EncoderSpec()
        critic = Mlp([enc.state_dim, 4, 1], rng=np.random.default_rng(0))
        with pytest.raises(PolicyFormatError, match="actor"):
            Policy(algorithm="ppo", encoder=enc, networks={"critic": critic})

    def test_dict_round_trip_preserves_everything(self):
        pol = ppo_policy(seed=3)
        back = policy_from_dict(policy_to_dict(pol))
        assert back.algorithm == "ppo"
        assert back.encoder == pol.encoder
        x = np.random.default_rng(1).standard_normal(pol.encoder.state_dim)
        for name in ("actor", "critic"):
            assert np.array_equal(
                back.networks[name].forward(x), pol.networks[name].forward(x)
            )


class TestPolicyFiles:
    @pytest.mark.parametrize("build", [dqn_policy, ppo_policy])
    def test_save_load_save_is_byte_identical(self, build, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_policy(build(seed=7), str(first))
        save_policy(load_policy(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        with pytest.raises(PolicyFormatError, match="not JSON"):
            load_policy(str(path))

    def test_missing_format_version_rejected(self):
        with pytest.raises(PolicyFormatError, match="format_version"):
            policy_from_dict({"algorithm": "dqn"})

    def test_future_format_version_rejected(self, tmp_path):
        d = policy_to_dict(dqn_policy())
        d["format_version"] = 99
        path = tmp_path / "p.json"
        path.write_text(json.dumps(d))
        with pytest.raises(PolicyFormatError, match="version"):
            load_policy(str(path))

    def test_shape_mismatch_rejected(self):
        d = policy_to_dict(dqn_policy())
        d["networks"]["q"]["layer_shapes"][0][1] += 1
        with pytest.raises(PolicyFormatError, match="declared"):
            policy_from_dict(d)

    def test_truncated_container_rejected(self):
        d = policy_to_dict(dqn_policy())
        del d["networks"]["q"]["layers"]
        with pytest.raises(PolicyFormatError, match="malformed"):
            policy_from_dict(d)

    def test_non_finite_weights_are_all_named(self):
        d = policy_to_dict(ppo_policy())
        d["networks"]["actor"]["layers"][0]["weights"][0][0] = float("nan")
        d["networks"]["critic"]["layers"][1]["biases"][0] = float("inf")
        with pytest.raises(PolicyFormatError) as err:
            policy_from_dict(d)
        assert str(err.value) == (
            "network actor layer 0: non-finite weights; "
            "network critic layer 1: non-finite biases"
        )

    def test_metadata_survives_the_file(self, tmp_path):
        path = tmp_path / "p.json"
        save_policy(dqn_policy(seed=5), str(path))
        assert load_policy(str(path)).metadata == {"seed": 5}


class TestPolicyScheduler:
    def window(self, n=3):
        tasks = [
            make_task(i, arrival=0.1 * i, proc=0.2 + 0.1 * i, remaining=10.0, comm=0.05)
            for i in range(n)
        ]
        from vecoff.engine import DecisionWindow

        return DecisionWindow(index=1, queued=tasks, feasible=tasks, earliest_avail=0.0)

    def test_server_count_mismatch_rejected(self):
        sched = PolicyScheduler(dqn_policy(num_mecs=3))
        mecs = [MecState(id=1), MecState(id=2)]
        with pytest.raises(PolicyContractError, match="servers"):
            sched.select(self.window(), mecs, now=0.0)

    def test_dqn_choice_is_the_masked_argmax(self):
        pol = dqn_policy()
        sched = PolicyScheduler(pol)
        mecs = [MecState(id=1), MecState(id=2)]
        w = self.window(2)
        choice = sched.select(w, mecs, now=0.0)
        assert choice in (0, 1)

    def test_ppo_select_reads_only_the_actor(self):
        pol = ppo_policy()
        critic = pol.networks["critic"]
        critic.forward = lambda *a, **k: pytest.fail("select evaluated the critic")
        mecs = [MecState(id=1), MecState(id=2)]
        choice = PolicyScheduler(pol).select(self.window(2), mecs, now=0.0)
        assert choice in (0, 1)

    def test_ppo_deploys_the_mode_of_its_action_distribution(self):
        pol = ppo_policy()
        enc = pol.encoder
        logits = np.zeros(enc.action_dim)
        logits[1] = 1e-17  # softmax rounds 0 and 1e-17 to one probability
        pol.networks["actor"] = Mlp.from_weights([(np.zeros((enc.state_dim, enc.action_dim)), logits)])
        mecs = [MecState(id=1), MecState(id=2)]
        # the first of the equally probable actions, not the highest logit
        assert PolicyScheduler(pol).select(self.window(2), mecs, now=0.0) == 0

    @pytest.mark.parametrize("build", [dqn_policy, ppo_policy])
    def test_loaded_policy_replays_identical_episodes(self, build, tmp_path, rng):
        from vecoff.experiments import objective

        cfg = SimConfig(num_mecs=2, charge_exec_time=False)
        tasks = make_task_set(rng, 15)
        pol = build(window_cap=16, seed=11)
        path = tmp_path / "p.json"
        save_policy(pol, str(path))

        fresh = run_episode(tasks, PolicyScheduler(pol), cfg, ChannelParams(), exec_cost=0.0)
        loaded = run_episode(
            tasks, PolicyScheduler(load_policy(str(path))), cfg, ChannelParams(),
            exec_cost=0.0,
        )
        assert [t.to_dict() for t in fresh.tasks] == [t.to_dict() for t in loaded.tasks]
        assert objective(fresh, 0.4) == objective(loaded, 0.4)
