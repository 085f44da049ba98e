"""One bundle for every knob an experiment needs.

The sections mirror the package layout: ``sim``, ``geometry``,
``workload``, ``channel``, ``pso``, ``dqn`` and ``ppo``, plus the
top-level ``train_vehicles``. The encoder contract is not a section:
``ExperimentConfig.encoder`` derives it from ``sim``. One codec serves
the whole tree: ``section_to_dict`` writes a config's fields under their
names, sections included, and ``config_from_dict`` reads them back,
turning JSON lists into tuples.
Two fields say in their metadata that they are stored differently:
``SimConfig.lambda_weight`` under the key ``"lambda"`` (``"key"``) and
``WorkloadModel.proc_time_table`` with ``"WxH"`` string keys (``"keys"``).

A config file may leave out any field or section, which then takes its
default. The config and each section check their own values when they
are built (``domain.field_faults``), so a value of the wrong type, NaN,
or a value outside its field's bound is named by its key. Loading
rejects unknown sections and fields, and it gathers every problem into
one ``ConfigError``; a problem inside a section starts with the
section's name.
"""

# annotations are evaluated, not postponed, so the field check reads each
# section's class itself, not a name looked up again in ``sys.modules``
import dataclasses
from dataclasses import dataclass, field
from typing import Any

from .domain import (
    POSITIVE, ChannelParams, ConfigError, SimConfig, check_fields, dumps, read_json,
)
from .heuristics import PsoParams
from .mobility import ScenarioGeometry, WorkloadModel
from .rl.encoding import EncoderSpec
from .rl.params import DqnParams, PpoParams


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    geometry: ScenarioGeometry = field(default_factory=ScenarioGeometry)
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    channel: ChannelParams = field(default_factory=ChannelParams)
    pso: PsoParams = field(default_factory=PsoParams)
    dqn: DqnParams = field(default_factory=DqnParams)
    ppo: PpoParams = field(default_factory=PpoParams)
    # density of the episodes both trainers practice on; 100 vehicles
    # gives training episodes in the 40-60 decision range, the same
    # regime the comparison matrix evaluates at its middle density
    train_vehicles: int = field(default=100, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def encoder(self) -> EncoderSpec:
        """The contract of every policy trained under this config: the
        simulator's shape, at the default normalization constants."""
        return EncoderSpec(num_mecs=self.sim.num_mecs, window_cap=self.sim.window_cap)


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


def _decode(cls: type, d: Any) -> tuple[Any, list[str]]:
    """The config dataclass ``cls`` built from the known fields of ``d``
    (None when its invariants reject them) and every problem found. A
    field whose default is a section is decoded the same way, and its
    problems are prefixed with its key."""
    if not isinstance(d, dict):
        return None, [f"must be a JSON object, got {type(d).__name__}"]
    by_key = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    problems: list[str] = []
    kwargs: dict[str, Any] = {}
    for key, value in d.items():
        f = by_key.get(key)
        if f is None:
            problems.append(f"unknown field {key!r}")
        elif dataclasses.is_dataclass(f.default_factory):
            section, found = _decode(f.default_factory, value)
            problems.extend(f"{key}: {p}" for p in found)
            if section is not None:
                kwargs[f.name] = section
        elif f.metadata.get("keys") == "WxH":
            kwargs[f.name] = _wxh_keyed(key, value, problems)
        else:
            kwargs[f.name] = _tupled(value)
    try:
        built = cls(**kwargs)
    except ConfigError as exc:
        return None, problems + exc.violations
    return built, problems


def _tupled(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _wxh_keyed(key: str, value: Any, problems: list[str]) -> Any:
    if not isinstance(value, dict):
        return value
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
    config, problems = _decode(ExperimentConfig, d)
    if problems:
        raise ConfigError(problems)
    return config


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def cross_validate(config: ExperimentConfig) -> ExperimentConfig:
    """Run the field check again, on a config whose sections or
    ``train_vehicles`` were reassigned after it was built."""
    check_fields(config)
    return config


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(section_to_dict(config)))


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path, lambda message: ConfigError([message])))
