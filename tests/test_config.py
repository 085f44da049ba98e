import dataclasses
import json

import pytest

from vecoff.cli import main
from vecoff.config import (
    ExperimentConfig,
    cross_validate,
    default_config,
    load_config,
    save_config,
)
from vecoff.domain import ChannelParams, ConfigError, SimConfig
from vecoff.heuristics import PsoParams
from vecoff.mobility import ScenarioGeometry, WorkloadModel
from vecoff.rl.encoding import EncoderSpec
from vecoff.rl.params import DqnParams, PpoParams

SECTIONS = ("sim", "geometry", "workload", "channel", "pso", "dqn", "ppo")

# save_config(default_config()) as written before the sections shared one codec;
# since then DQN's discount has moved to 0.3 and the encoder section is gone
DEFAULT_CONFIG_JSON = (
    '{"channel":{"bandwidth_max":20000000.0,"channel_gain":1.0,"noise_density":1.0,'
    '"tx_power":1.0},"dqn":{"batch_size":64,"episodes":2500,"eps_anneal_frac":0.6,'
    '"eps_end":0.05,"eps_start":1.0,"eval_episodes":10,"eval_every":50,'
    '"explore_full_frac":0.5,"gamma":0.3,"hidden":[128,128],"lr":0.0001,'
    '"replay_capacity":50000,"target_sync":500,"updates_per_step":1,"warmup":128},'
    '"geometry":{"coverage_radius":250.0,"entry_rate":10.0,"lanes":2,'
    '"road_length":1000.0,"rsu_x":500.0,"rsu_y":0.0,"speed_range":[20.0,30.0]},'
    '"ppo":{"clip":0.2,"entropy_coef":0.01,"episodes":2500,"epochs":10,'
    '"eval_episodes":10,"eval_every":50,"gae_lambda":0.95,"gamma":0.95,'
    '"hidden":[128,128],"lr_actor":0.0003,"lr_critic":0.0003,"minibatch":64,'
    '"rollout":2048},"pso":{"c1":1.49,"c2":1.49,"inertia":0.729,'
    '"iterations_dynamic":30,"iterations_static":100,"swarm_size":50,'
    '"velocity_clamp":1.0},"sim":{"charge_exec_time":true,"lambda":0.4,"num_mecs":2,'
    '"num_vehicles":50,"rng_seed":1,"tasks_per_vehicle":1,"window_cap":16},'
    '"train_vehicles":100,"workload":{"bits_per_pixel":24,"poisson_rate":0.1,'
    '"proc_time_table":{"1280x720":0.4,"224x224":0.05,"640x480":0.15},'
    '"resolutions":[[224,224],[640,480],[1280,720]]}}\n'
)


def write_json(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_default_config_bytes_are_unchanged(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(), str(path))
    assert path.read_text() == DEFAULT_CONFIG_JSON
    assert load_config(str(path)) == default_config()


def test_non_default_config_round_trips(tmp_path):
    config = ExperimentConfig(
        sim=SimConfig(num_mecs=3, lambda_weight=0.7, num_vehicles=80,
                      tasks_per_vehicle=2, rng_seed=9, window_cap=12,
                      charge_exec_time=False),
        geometry=ScenarioGeometry(rsu_x=400.0, rsu_y=5.0, coverage_radius=200.0,
                                  road_length=900.0, lanes=3, speed_range=(15.0, 25.0),
                                  entry_rate=4.0),
        workload=WorkloadModel(poisson_rate=0.3, resolutions=((320, 240), (640, 480)),
                               bits_per_pixel=16,
                               proc_time_table={(320, 240): 0.07, (640, 480): 0.2}),
        channel=ChannelParams(bandwidth_max=10e6, tx_power=2.0, channel_gain=0.5,
                              noise_density=0.25),
        pso=PsoParams(swarm_size=12, iterations_static=7, iterations_dynamic=3,
                      inertia=0.6, c1=1.2, c2=1.3, velocity_clamp=0.5),
        dqn=DqnParams(episodes=40, lr=1e-3, hidden=(64, 32), eval_every=10),
        ppo=PpoParams(episodes=30, clip=0.1, hidden=(32,), eval_episodes=4),
        train_vehicles=60,
    )
    path = tmp_path / "config.json"
    save_config(config, str(path))
    loaded = load_config(str(path))
    assert loaded == config
    assert loaded.encoder == EncoderSpec(num_mecs=3, window_cap=12)
    assert loaded.workload.resolutions == ((320, 240), (640, 480))
    assert loaded.dqn.hidden == (64, 32)


def test_every_problem_is_named_with_its_section(tmp_path):
    path = write_json(tmp_path, {
        "sim": {"num_mec": 3, "lambda": 2.0},
        "geometry": {"lane": 1},
        "workload": {"proc_time_table": {"640-480": 0.15}},
        "channel": {"tx_power": 0.0},
        "pso": {"swarm": 3},
        "dqn": {"episodes": 0},
        "ppo": [1],
        "encoder": {"window_cap": 8},
        "extra": {},
        "train_vehicles": 0,
    })
    with pytest.raises(ConfigError) as err:
        load_config(path)
    problems = err.value.violations
    planted = [
        ("sim", "unknown field 'num_mec'"),
        ("sim", "lambda must lie in [0, 1]"),
        ("geometry", "unknown field 'lane'"),
        ("workload", "'640-480' is not of the form WxH"),
        ("channel", "tx_power must be positive"),
        ("pso", "unknown field 'swarm'"),
        ("dqn", "episodes must be positive"),
        ("ppo", "must be a JSON object"),
    ]
    for section, fragment in planted:
        assert any(p.startswith(f"{section}: ") and fragment in p for p in problems), (
            section, fragment, problems)
    # top-level problems take the decoder's form, after every section's
    top_level = [
        "unknown field 'encoder'",
        "unknown field 'extra'",
        "train_vehicles must be positive, got 0",
    ]
    assert problems[-3:] == top_level, problems
    assert all(p.split(": ", 1)[0] in SECTIONS for p in problems[:-3]), problems


def test_missing_fields_and_sections_take_defaults(tmp_path):
    path = write_json(tmp_path, {
        "sim": {"num_mecs": 3},
        "workload": {"poisson_rate": 0.2},
    })
    config = load_config(path)
    assert config.sim == SimConfig(num_mecs=3)
    assert config.encoder == EncoderSpec(num_mecs=3)
    assert config.workload == WorkloadModel(poisson_rate=0.2)
    assert config.geometry == ScenarioGeometry()
    assert config.dqn == DqnParams()
    assert config.train_vehicles == 100
    assert load_config(write_json(tmp_path, {})) == default_config()


def test_cross_validate_rejects_a_bad_train_vehicles():
    config = default_config()
    assert cross_validate(config) is config
    config.train_vehicles = 0
    with pytest.raises(ConfigError) as err:
        cross_validate(config)
    assert err.value.violations == ["train_vehicles must be positive, got 0"]
    config.train_vehicles = True
    with pytest.raises(ConfigError) as err:
        cross_validate(config)
    assert err.value.violations == ["train_vehicles must be an integer, got True"]


def test_a_bad_train_vehicles_is_named_with_the_sections_faults(tmp_path, capsys):
    doc = {"dqn": {"episodes": 0}, "train_vehicles": True, "pso": {"swarm_size": 0}}
    code = main(["run", "--algo", "fcfs", "--config", write_json(tmp_path, doc),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: dqn: episodes must be positive, got 0; pso: swarm_size must be positive, "
        "got 0; train_vehicles must be an integer, got True\n"
    )


def test_encoder_follows_the_sim_section():
    config = default_config()
    assert config.encoder == EncoderSpec(num_mecs=2, window_cap=16)
    config.sim = dataclasses.replace(config.sim, num_mecs=3)
    assert config.encoder == EncoderSpec(num_mecs=3, window_cap=16)


@pytest.mark.parametrize("section", SECTIONS)
def test_section_that_is_not_an_object_is_rejected(tmp_path, section):
    with pytest.raises(ConfigError) as err:
        load_config(write_json(tmp_path, {section: [1]}))
    assert err.value.violations == [f"{section}: must be a JSON object, got list"]


@pytest.mark.parametrize("doc, faults", [
    ({"dqn": {"episodes": 0, "gamma": 2.0}}, ["dqn: episodes", "dqn: gamma"]),
    ({"ppo": {"hidden": [128, "a"]}}, ["ppo: hidden"]),
    ({"ppo": {"hidden": [True, 4], "rollout": 0, "clip": "a", "gamma": False}},
     ["ppo: hidden", "ppo: rollout", "ppo: clip", "ppo: gamma"]),
    ({"dqn": {"hidden": [], "eps_start": 0.1, "eps_end": 0.5, "replay_capacity": 8,
              "target_sync": 0, "eval_episodes": 0},
      "ppo": {"hidden": 64, "minibatch": 1.5, "epochs": 0}},
     ["dqn: hidden", "dqn: need 0 <= eps_end", "dqn: need 1 <= batch_size",
      "dqn: target_sync", "dqn: eval_episodes", "ppo: hidden", "ppo: minibatch", "ppo: epochs"]),
], ids=["episodes-and-gamma", "hidden-not-int", "bools-and-strings", "two-sections"])
def test_every_trainer_fault_is_named(tmp_path, capsys, doc, faults):
    code = main(["run", "--algo", "fcfs", "--config", write_json(tmp_path, doc),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    problems = err[len("error: "):].rstrip("\n").split("; ")
    assert len(problems) == len(faults), problems
    for fault in faults:
        assert any(p.startswith(fault) for p in problems), (fault, problems)


@pytest.mark.parametrize("doc, fault", [
    ({"geometry": {"coverage_radius": "a"}}, "geometry: coverage_radius must be a number"),
    ({"sim": {"charge_exec_time": "no"}}, "sim: charge_exec_time must be true or false"),
    ({"pso": {"swarm_size": "many"}}, "pso: swarm_size must be an integer"),
    ({"pso": {"inertia": None}}, "pso: inertia must be a number"),
    ({"channel": {"tx_power": float("nan")}}, "channel: tx_power must be a number"),
    ({"sim": {"num_mecs": True}}, "sim: num_mecs must be an integer"),
    ({"workload": {"proc_time_table": {"224x224": "fast"}}}, "workload: proc_time_table must be"),
    ({"pso": {"iterations_dynamic": -2}}, "pso: iterations_dynamic must not be negative"),
    ({"pso": {"iterations_static": -1}}, "pso: iterations_static must not be negative"),
    ({"pso": {"swarm_size": 0}}, "pso: swarm_size must be positive"),
    # each of these froze the swarm at its start, or turned it to NaN
    ({"pso": {"velocity_clamp": -1.0}}, "pso: velocity_clamp must be positive"),
    ({"pso": {"velocity_clamp": 0.0}}, "pso: velocity_clamp must be positive"),
    ({"pso": {"c1": float("inf")}}, "pso: c1 must be finite"),
    ({"pso": {"inertia": float("-inf")}}, "pso: inertia must be finite"),
    # each of these trained wrongly without a word: an eval at every 10th
    # episode (ep % -10 == 0), no learning, gradient ascent, a negative warmup
    ({"dqn": {"eval_every": -10}}, "dqn: eval_every must not be negative"),
    ({"ppo": {"eval_every": -10}}, "ppo: eval_every must not be negative"),
    ({"dqn": {"lr": 0.0}}, "dqn: lr must be positive"),
    ({"dqn": {"lr": -1e-4}}, "dqn: lr must be positive"),
    ({"ppo": {"lr_actor": 0.0}}, "ppo: lr_actor must be positive"),
    ({"ppo": {"lr_critic": -3e-4}}, "ppo: lr_critic must be positive"),
    ({"dqn": {"warmup": -5}}, "dqn: warmup must not be negative"),
], ids=["radius-str", "charge-str", "swarm-str", "inertia-null", "tx-nan", "mecs-bool",
        "table-str", "dynamic-iterations-negative", "static-iterations-negative", "swarm-zero",
        "clamp-negative", "clamp-zero", "c1-infinite", "inertia-minus-infinite",
        "dqn-eval-every-negative", "ppo-eval-every-negative", "dqn-lr-zero", "dqn-lr-negative",
        "ppo-lr-actor-zero", "ppo-lr-critic-negative", "dqn-warmup-negative"])
def test_mistyped_value_is_named_with_its_field(tmp_path, capsys, doc, fault):
    code = main(["run", "--algo", "fcfs", "--config", write_json(tmp_path, doc),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fault}") and err.count("\n") == 1, err
    assert ";" not in err
