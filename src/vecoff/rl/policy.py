"""Trained policy container, file format, and greedy deployment.

A policy file is a versioned JSON document: the algorithm tag, the
encoder contract (server count, window cap, normalization constants),
and each network's layer shapes with row-major weight arrays. JSON keeps
the format inspectable; writing with sorted keys and fixed separators
makes save -> load -> save byte-identical, which the test suite holds it
to. A policy can only drive a simulation whose shape matches its encoder
contract, and networks must fit it; mismatches raise instead of silently
mis-encoding. Loading rejects non-finite weights and biases, naming each
network and layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..domain import MecState, dumps, read_json
from ..engine import DecisionWindow
from .encoding import EncoderSpec, encode_state
from .nets import Mlp

POLICY_FORMAT_VERSION = 1

# which networks each algorithm carries; the first one acts
_REQUIRED_NETS = {"dqn": ("q",), "ppo": ("actor", "critic")}
POLICY_ALGORITHMS = tuple(_REQUIRED_NETS)


class PolicyFormatError(ValueError):
    """The file is not a policy container this package can read."""


@dataclass
class Policy:
    """A trained scheduler: encoder contract plus one or two networks."""

    algorithm: str
    encoder: EncoderSpec
    networks: dict[str, Mlp]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.algorithm not in POLICY_ALGORITHMS:
            raise PolicyFormatError(f"unknown algorithm {self.algorithm!r}")
        required = _REQUIRED_NETS[self.algorithm]
        missing = [n for n in required if n not in self.networks]
        if missing:
            raise PolicyFormatError(f"{self.algorithm} policy missing networks {missing}")
        faults = []
        for name in required:
            sizes = self.networks[name].sizes
            out = 1 if name == "critic" else self.encoder.action_dim
            for side, got, want in (
                ("input", sizes[0], self.encoder.state_dim),
                ("output", sizes[-1], out),
            ):
                if got != want:
                    faults.append(f"network {name}: {side} width {got}, expected {want}")
        if faults:
            raise PolicyFormatError("; ".join(faults))


def policy_to_dict(policy: Policy) -> dict[str, Any]:
    nets = {}
    for name, net in policy.networks.items():
        layers = net.layers()
        nets[name] = {
            "activation": net.activation,
            "layer_shapes": [[int(w.shape[0]), int(w.shape[1])] for w, _ in layers],
            "layers": [
                {"weights": w.tolist(), "biases": b.tolist()} for w, b in layers
            ],
        }
    return {
        "format_version": POLICY_FORMAT_VERSION,
        "algorithm": policy.algorithm,
        "num_mecs": policy.encoder.num_mecs,
        "window_cap": policy.encoder.window_cap,
        "normalization": {
            "time_scale": policy.encoder.time_scale,
            "proc_scale": policy.encoder.proc_scale,
        },
        "networks": nets,
        "metadata": policy.metadata,
    }


def policy_from_dict(d: Mapping[str, Any]) -> Policy:
    try:
        version = d["format_version"]
    except (TypeError, KeyError):
        raise PolicyFormatError("not a policy container: missing format_version")
    if version != POLICY_FORMAT_VERSION:
        raise PolicyFormatError(
            f"unsupported policy format version {version!r}, "
            f"this build reads version {POLICY_FORMAT_VERSION}"
        )
    try:
        enc = EncoderSpec(
            num_mecs=d["num_mecs"],
            window_cap=d["window_cap"],
            time_scale=d["normalization"]["time_scale"],
            proc_scale=d["normalization"]["proc_scale"],
        )
        networks = {}
        non_finite = []
        for name, spec in d["networks"].items():
            layers = [
                (
                    np.array(layer["weights"], dtype=np.float64),
                    np.array(layer["biases"], dtype=np.float64),
                )
                for layer in spec["layers"]
            ]
            declared = [tuple(s) for s in spec["layer_shapes"]]
            actual = [w.shape for w, _ in layers]
            if declared != actual:
                raise PolicyFormatError(
                    f"network {name}: declared shapes {declared} but arrays are {actual}"
                )
            for i, (w, b) in enumerate(layers):
                for kind, values in (("weights", w), ("biases", b)):
                    if not np.isfinite(values).all():
                        non_finite.append(f"network {name} layer {i}: non-finite {kind}")
            networks[name] = Mlp.from_weights(layers, activation=spec["activation"])
        if non_finite:
            raise PolicyFormatError("; ".join(non_finite))
        return Policy(
            algorithm=d["algorithm"],
            encoder=enc,
            networks=networks,
            metadata=dict(d.get("metadata", {})),
        )
    except PolicyFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyFormatError(f"malformed policy container: {exc}") from exc


def save_policy(policy: Policy, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(policy_to_dict(policy)))


def load_policy(path: str) -> Policy:
    return policy_from_dict(read_json(path, PolicyFormatError))


def masked_argmax(values: np.ndarray, mask: np.ndarray) -> int:
    """Highest-value index among masked-in entries (first on ties)."""
    if not mask.any():
        raise ValueError("mask admits no action")
    scores = np.where(mask, values, -np.inf)
    return int(np.argmax(scores))


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Probabilities over masked-in entries along the last axis; masked-out
    entries get 0. Every row needs at least one masked-in entry."""
    if not mask.any(axis=-1).all():
        raise ValueError("mask admits no action")
    z = np.where(mask, logits, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class PolicyScheduler:
    """Deploy a trained policy greedily inside the engine.

    A value policy picks the highest masked action value; an actor-critic
    policy picks the mode of its masked action distribution, the most
    probable action, as a stochastic policy is deployed. The critic only
    trains the actor and is never evaluated here. Trainers score their
    snapshots through this same pick.

    ``select`` runs in buffers made once. Slots fill in arrival order, so
    the mask is the first ``min(len(feasible), window_cap)`` slots and the
    pick is the argmax over those, after ``masked_softmax``'s operations
    for an actor-critic (their rounding can tie probabilities). A window
    of one task has one slot, so it returns 0 without a forward, as the
    swarm does; the server count is still checked first.
    """

    def __init__(self, policy: Policy):
        self.policy = policy
        self.name = policy.algorithm
        self._net = policy.networks[_REQUIRED_NETS[policy.algorithm][0]]
        self._distribution = policy.algorithm == "ppo"
        self._state = np.empty(policy.encoder.state_dim)

    def select(self, window: DecisionWindow, mecs: Sequence[MecState], now: float) -> int:
        enc = self.policy.encoder
        if len(window.feasible) == 1 and len(mecs) == enc.num_mecs:
            return 0
        encode_state(mecs, window, now, enc, out=self._state)
        scores = self._net.forward_one(self._state)
        k = min(len(window.feasible), enc.window_cap)
        if self._distribution:  # masked_softmax, in place
            scores[k:] = -np.inf
            scores -= scores.max()
            np.exp(scores, out=scores)
            scores /= scores.sum()
        return int(scores[:k].argmax())
