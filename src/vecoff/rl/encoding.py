"""Fixed-width state encoding of a decision window.

A learning scheduler sees the M server availabilities followed by up to
``window_cap`` task slots, each a (arrival offset, remaining coverage,
processing time) triple plus a validity flag. Offsets are relative to the
current clock and divided by scale constants so typical values sit near
unit magnitude. Slots fill in arrival order; when the feasible set
overflows the cap, the surplus tasks are simply not offered this
invocation (they stay queued and reappear in later windows). The action
mask marks which slots hold real tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..domain import POSITIVE, MecState, check_fields
from ..engine import DecisionWindow


class PolicyContractError(ValueError):
    """The policy's encoder contract does not match the simulation."""


@dataclass
class EncoderSpec:
    """Contract between a trained policy and the simulator shape."""

    num_mecs: int = field(default=2, metadata=POSITIVE)
    window_cap: int = field(default=16, metadata=POSITIVE)
    time_scale: float = field(default=10.0, metadata=POSITIVE)
    proc_scale: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def state_dim(self) -> int:
        return self.num_mecs + 4 * self.window_cap

    @property
    def action_dim(self) -> int:
        return self.window_cap


def encode_state(
    mecs: Sequence[MecState],
    window: DecisionWindow,
    now: float,
    enc: EncoderSpec,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one decision point. Pure: touches neither window nor servers.

    Returns the state vector, laid out as the M server availabilities,
    then the ``window_cap`` slot triples row by row, then the
    ``window_cap`` validity flags, and the boolean action mask (True
    where a slot holds a selectable task). Given ``out``, a float64
    array of ``state_dim`` entries, the state overwrites every entry of
    it and ``out`` is returned: a caller can encode into one buffer
    without a stale slot surviving.
    """
    if len(mecs) != enc.num_mecs:
        raise PolicyContractError(
            f"encoder expects {enc.num_mecs} servers, simulation has {len(mecs)}"
        )
    feas = window.feasible[: enc.window_cap]
    if not feas:
        raise ValueError("cannot encode an empty window")
    ts = enc.time_scale
    values = [(mec.available_at - now) / ts for mec in mecs]
    for t in feas:
        values += ((t.arrival - now) / ts, (t.deadline - now) / ts, t.proc_time / enc.proc_scale)
    flags = enc.num_mecs + 3 * enc.window_cap
    state = np.empty(enc.state_dim, dtype=np.float64) if out is None else out
    state[: len(values)] = values
    state[len(values) :] = 0.0
    state[flags : flags + len(feas)] = 1.0
    return state, state[flags:] > 0.0
