"""One bundle for every knob an experiment needs.

The sections mirror the package layout: ``sim``, ``geometry``,
``workload``, ``channel``, ``pso``, ``dqn``, ``ppo`` and ``encoder``,
plus the top-level ``train_vehicles``. One codec serves every section:
``section_to_dict`` writes a section's fields under their names, and
``section_from_dict`` reads them back, turning JSON lists into tuples.
Two fields say in their metadata that they are stored differently:
``SimConfig.lambda_weight`` under the key ``"lambda"`` (``"key"``) and
``WorkloadModel.proc_time_table`` with ``"WxH"`` string keys (``"keys"``).

A config file may leave out any field or section, which then takes its
default. Loading rejects unknown sections and fields, and it gathers
every problem into one ``ConfigError`` whose messages each start with
the section's name. ``cross_validate`` checks the constraints that span
sections, chiefly that the encoder contract agrees with the simulator
shape.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from .domain import ChannelParams, ConfigError, SimConfig, dumps, validate_config
from .heuristics import PsoParams
from .mobility import ScenarioGeometry, WorkloadModel
from .rl.dqn import DqnParams
from .rl.encoding import EncoderSpec
from .rl.ppo import PpoParams


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    geometry: ScenarioGeometry = field(default_factory=ScenarioGeometry)
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    channel: ChannelParams = field(default_factory=ChannelParams)
    pso: PsoParams = field(default_factory=PsoParams)
    dqn: DqnParams = field(default_factory=DqnParams)
    ppo: PpoParams = field(default_factory=PpoParams)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    # density of the episodes both trainers practice on; 100 vehicles
    # gives training episodes in the 40-60 decision range, the same
    # regime the comparison matrix evaluates at its middle density
    train_vehicles: int = 100


def section_to_dict(obj: Any) -> dict[str, Any]:
    """A config dataclass as JSON-ready data, nested dataclasses included."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = section_to_dict(value)
        elif f.metadata.get("keys") == "WxH":
            value = {f"{w}x{h}": v for (w, h), v in sorted(value.items())}
        out[f.metadata.get("key", f.name)] = value
    return out


def section_from_dict(cls: type, d: Any) -> Any:
    """Build one section from its JSON object; missing fields take defaults.

    Raises one ConfigError listing every unknown field, malformed
    ``WxH`` key and violated invariant.
    """
    section, problems = _decode(cls, d)
    if problems:
        raise ConfigError(problems)
    return section


def _decode(cls: type, d: Any) -> tuple[Any, list[str]]:
    """The section built from the known fields of ``d`` (None when its
    invariants reject them), and every problem found."""
    if not isinstance(d, dict):
        return None, [f"must be a JSON object, got {type(d).__name__}"]
    by_key = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    problems: list[str] = []
    kwargs: dict[str, Any] = {}
    for key, value in d.items():
        f = by_key.get(key)
        if f is None:
            problems.append(f"unknown field {key!r}")
        elif f.metadata.get("keys") == "WxH":
            kwargs[f.name] = _wxh_keyed(key, value, problems)
        else:
            kwargs[f.name] = _tupled(value)
    try:
        return cls(**kwargs), problems
    except ConfigError as exc:
        return None, problems + exc.violations
    except (TypeError, ValueError) as exc:
        return None, problems + [str(exc)]


def _tupled(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _wxh_keyed(key: str, value: Any, problems: list[str]) -> dict[tuple[int, int], Any]:
    if not isinstance(value, dict):
        problems.append(f"{key} must be a JSON object, got {type(value).__name__}")
        return {}
    table = {}
    for wxh, v in value.items():
        w, x, h = wxh.partition("x")
        if not (x and w.isdigit() and h.isdigit()):
            problems.append(f"{key} key {wxh!r} is not of the form WxH")
            continue
        table[(int(w), int(h))] = v
    return table


def config_from_dict(d: Any) -> ExperimentConfig:
    """Build a config from its JSON object, naming every problem at once."""
    if not isinstance(d, dict):
        raise ConfigError([f"config must be a JSON object, got {type(d).__name__}"])
    sections = {
        f.name: f.default_factory
        for f in dataclasses.fields(ExperimentConfig)
        if f.default_factory is not dataclasses.MISSING
    }
    problems: list[str] = []
    failed: set[str] = set()
    kwargs: dict[str, Any] = {}
    for name, value in d.items():
        if name == "train_vehicles":
            kwargs[name] = value
        elif name not in sections:
            problems.append(f"{name}: unknown config section")
        else:
            section, found = _decode(sections[name], value)
            problems.extend(f"{name}: {p}" for p in found)
            if section is None:
                failed.add(name)
            else:
                kwargs[name] = section
    config = ExperimentConfig(**kwargs)
    problems.extend(_cross_problems(config, failed))
    if problems:
        raise ConfigError(problems)
    return config


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _cross_problems(config: ExperimentConfig, failed: set[str]) -> list[str]:
    """Violations of the checks that span sections. The encoder contract
    is checked only when both ``sim`` and ``encoder`` could be built."""
    problems: list[str] = []
    try:
        validate_config(config.sim)
    except ConfigError as exc:
        problems.extend(f"sim: {v}" for v in exc.violations)
    if not failed & {"sim", "encoder"}:
        enc, sim = config.encoder, config.sim
        if enc.num_mecs != sim.num_mecs:
            problems.append(
                f"encoder: num_mecs {enc.num_mecs!r} differs from sim.num_mecs "
                f"{sim.num_mecs!r}"
            )
        if enc.window_cap != sim.window_cap:
            problems.append(
                f"encoder: window_cap {enc.window_cap!r} differs from "
                f"sim.window_cap {sim.window_cap!r}"
            )
    tv = config.train_vehicles
    if not isinstance(tv, int) or tv < 1:
        problems.append(f"train_vehicles: must be an integer >= 1, got {tv!r}")
    return problems


def cross_validate(config: ExperimentConfig) -> ExperimentConfig:
    """Check constraints that span sections; collects every violation."""
    problems = _cross_problems(config, set())
    if problems:
        raise ConfigError(problems)
    return config


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(section_to_dict(config)))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not JSON: {exc}"]) from exc
    return config_from_dict(d)
