import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.domain import ChannelParams, MecState, SimConfig
from vecoff.engine import DecisionWindow, run_episode
from vecoff.rl.encoding import EncoderSpec, PolicyContractError, encode_state
from vecoff.rl.nets import Mlp
from vecoff.rl.policy import (
    Policy,
    PolicyFormatError,
    PolicyScheduler,
    load_policy,
    masked_argmax,
    masked_softmax,
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

    @pytest.mark.parametrize(
        "sizes, fault",
        [
            ([70, 32, 16], "input width 70, expected 66"),
            ([66, 32, 8], "output width 8, expected 16"),
        ],
    )
    def test_network_widths_must_fit_the_encoder(self, sizes, fault):
        net = Mlp(sizes, rng=np.random.default_rng(0))
        with pytest.raises(PolicyFormatError) as err:
            Policy(algorithm="dqn", encoder=EncoderSpec(), networks={"q": net})
        assert str(err.value) == f"network q: {fault}"

    def test_every_width_fault_is_named_at_once(self):
        rng = np.random.default_rng(0)
        actor = Mlp([70, 4, 8], rng=rng)
        critic = Mlp([66, 4, 2], rng=rng)
        with pytest.raises(PolicyFormatError) as err:
            Policy("ppo", EncoderSpec(), {"actor": actor, "critic": critic})
        assert str(err.value) == (
            "network actor: input width 70, expected 66; "
            "network actor: output width 8, expected 16; "
            "network critic: output width 2, expected 1"
        )

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

    @pytest.mark.parametrize("build", [dqn_policy, ppo_policy])
    def test_server_count_mismatch_rejected_on_a_one_task_window(self, build):
        sched = PolicyScheduler(build(num_mecs=3))
        mecs = [MecState(id=1), MecState(id=2)]
        with pytest.raises(PolicyContractError, match="expects 3 servers, simulation has 2"):
            sched.select(self.window(1), mecs, now=0.0)

    @pytest.mark.parametrize("build", [dqn_policy, ppo_policy])
    def test_one_task_window_runs_no_forward(self, build):
        pol = build()
        for net in pol.networks.values():
            net.forward = net.forward_one = lambda *a, **k: pytest.fail("select ran a forward")
        mecs = [MecState(id=1), MecState(id=2)]
        assert PolicyScheduler(pol).select(self.window(1), mecs, now=0.0) == 0

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
        from vecoff.engine import objective

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


def deployed_policy(algorithm, seed=0):
    """The trained shape: 66-128-128-16 acting net on the default encoder."""
    enc = EncoderSpec()
    rng = np.random.default_rng(seed)
    sizes = [enc.state_dim, 128, 128, enc.action_dim]
    if algorithm == "dqn":
        return Policy("dqn", enc, {"q": Mlp(sizes, rng=rng)})
    critic = Mlp(sizes[:-1] + [1], rng=rng)
    return Policy("ppo", enc, {"actor": Mlp(sizes, rng=rng), "critic": critic})


def reference_pick(policy, window, mecs, now):
    """Encode, forward, softmax for an actor-critic, masked argmax."""
    x, mask = encode_state(mecs, window, now, policy.encoder)
    scores = policy.networks["q" if policy.algorithm == "dqn" else "actor"].forward(x)
    if policy.algorithm == "ppo":
        scores = masked_softmax(scores, mask)
    return masked_argmax(scores, mask)


def random_window(rng, n):
    tasks = sorted(
        (
            make_task(i, arrival=float(rng.uniform(0.0, 2.0)), proc=float(rng.uniform(0.05, 0.5)),
                      remaining=float(rng.uniform(0.5, 10.0)), comm=0.05)
            for i in range(n)
        ),
        key=lambda t: t.arrival,
    )
    return DecisionWindow(index=1, queued=tasks, feasible=tasks, earliest_avail=0.0)


def random_mecs(rng, m=2):
    mecs = [MecState(id=j + 1) for j in range(m)]
    for mec in mecs:
        mec.available_at = float(rng.uniform(0.0, 3.0))
    return mecs


class TestBufferedSelect:
    @given(
        algorithm=st.sampled_from(["dqn", "ppo"]),
        cap=st.integers(1, 16),
        sizes=st.lists(st.integers(1, 24), min_size=1, max_size=6),
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_reference_composition(self, algorithm, cap, sizes, tied, seed):
        # one scheduler over several windows, some above the cap, so each
        # pick also runs on buffers the previous one wrote
        rng = np.random.default_rng(seed)
        enc = EncoderSpec(num_mecs=2, window_cap=cap)
        nets = {
            name: Mlp([enc.state_dim, 8, out], rng=rng)
            for name, out in (("q", cap), ("actor", cap), ("critic", 1))
        }
        if tied:  # outputs drawn from {0, 1}: most windows hold ties
            act = nets["q" if algorithm == "dqn" else "actor"]
            act.weights[-1][:] = 0.0
            act.biases[-1][:] = rng.integers(0, 2, cap)
        keep = ("q",) if algorithm == "dqn" else ("actor", "critic")
        policy = Policy(algorithm, enc, {k: nets[k] for k in keep})
        sched = PolicyScheduler(policy)
        for n in sizes:
            window, mecs, now = random_window(rng, n), random_mecs(rng), float(rng.uniform(0, 2))
            assert sched.select(window, mecs, now) == reference_pick(policy, window, mecs, now)

    @pytest.mark.parametrize("algorithm", ["dqn", "ppo"])
    def test_deployed_shape_equals_the_reference_on_2_to_20_tasks(self, algorithm):
        rng = np.random.default_rng(9)
        policy = deployed_policy(algorithm, seed=4)
        sched = PolicyScheduler(policy)
        for n in [*range(2, 21)] * 3:
            window, mecs, now = random_window(rng, n), random_mecs(rng), float(rng.uniform(0, 2))
            assert sched.select(window, mecs, now) == reference_pick(policy, window, mecs, now)

    @pytest.mark.parametrize("algorithm", ["dqn", "ppo"])
    def test_a_short_window_after_a_long_one_keeps_no_stale_slot(self, algorithm):
        rng = np.random.default_rng(5)
        policy = deployed_policy(algorithm)
        used = PolicyScheduler(policy)
        long, short, mecs = random_window(rng, 20), random_window(rng, 2), random_mecs(rng)
        used.select(long, mecs, 0.5)
        fresh = PolicyScheduler(policy)
        assert used.select(short, mecs, 0.5) == fresh.select(short, mecs, 0.5)
        assert np.array_equal(used._state, encode_state(mecs, short, 0.5, policy.encoder)[0])

    def test_encoding_into_a_buffer_equals_a_fresh_array(self):
        rng = np.random.default_rng(6)
        enc = EncoderSpec()
        buf = np.full(enc.state_dim, np.nan)
        for n in (20, 2, 16, 1):
            window, mecs = random_window(rng, n), random_mecs(rng)
            got, got_mask = encode_state(mecs, window, 0.7, enc, out=buf)
            want, want_mask = encode_state(mecs, window, 0.7, enc)
            assert got is buf
            assert np.array_equal(got, want)
            assert np.array_equal(got_mask, want_mask)

    @pytest.mark.parametrize("algorithm, bound", [("dqn", 1024), ("ppo", 2048)])
    def test_select_allocates_no_layer(self, algorithm, bound):
        # A 128-wide float64 layer is 1 KiB; a forward that keeps each
        # layer's pre- and post-activation alive peaks near 4.5 KiB. The
        # softmax's reductions each build and free a numpy iterator of
        # about 0.9 KiB, hence PPO's wider bound.
        rng = np.random.default_rng(8)
        sched = PolicyScheduler(deployed_policy(algorithm))
        window, mecs = random_window(rng, 5), random_mecs(rng)
        sched.select(window, mecs, 0.5)  # makes the buffers
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                sched.select(window, mecs, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < bound
