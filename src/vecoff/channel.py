"""Wireless link model between vehicles and the roadside unit.

Tasks that become ready for transmission at the same instant share the
uplink: each gets a slice of the total bandwidth proportional to its size,
so simultaneous transfers finish together. A task transmitting alone gets
the whole band. "Same instant" means within EPS_SIMULTANEOUS, which absorbs
float noise; under a Poisson workload real coincidences are rare, so the
sharing rule mostly degenerates to full-bandwidth grants.

The result download is modeled as a mirror of the upload: one comm_time
value per task, counted twice in its end-to-end latency, once in its
delivery instant (the upload completes before the task's recorded arrival
at the RSU, so only the download leg delays the result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .domain import ChannelParams, Task

# Two ready instants closer than this are treated as simultaneous.
EPS_SIMULTANEOUS = 1e-6


@dataclass
class ConcurrentSet:
    """Tasks whose transmissions start at (effectively) one instant."""

    offload_time: float
    task_ids: list[int]
    sizes: list[float]

    def __post_init__(self) -> None:
        if len(self.task_ids) != len(self.sizes):
            raise ValueError("task_ids and sizes must have equal length")
        if not self.task_ids:
            raise ValueError("a concurrent set cannot be empty")

    def __len__(self) -> int:
        return len(self.task_ids)


@dataclass
class BandwidthEvent:
    """Log record of one sharing decision, kept for conservation audits."""

    time: float
    task_ids: list[int]
    allocations: list[float]
    bandwidth_max: float


def allocate_bandwidth(cset: ConcurrentSet, bandwidth_max: float) -> list[float]:
    """Split the band across one concurrent set.

    A lone transmitter gets exactly ``bandwidth_max``; several transmitters
    split it proportionally to their sizes, which makes their transfers end
    at the same instant.
    """
    if bandwidth_max <= 0:
        raise ValueError(f"bandwidth_max must be positive, got {bandwidth_max}")
    if len(cset) == 1:
        return [bandwidth_max]
    total = sum(cset.sizes)
    return [bandwidth_max * s / total for s in cset.sizes]


def rate(bandwidth: float, params: ChannelParams) -> float:
    """Achievable bit rate of a link granted ``bandwidth`` Hz."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return bandwidth * math.log2(1.0 + params.snr)


def comm_time(size: float, link_rate: float) -> float:
    """Seconds to move ``size`` bits over one link direction."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if link_rate <= 0:
        raise ValueError(f"link rate must be positive, got {link_rate}")
    return size / link_rate


def group_ready_instants(
    items: Sequence[tuple[Task, float]],
    eps: float = EPS_SIMULTANEOUS,
) -> list[ConcurrentSet]:
    """Partition (task, ready instant) pairs into concurrent sets.

    Instants are chained: a gap below ``eps`` joins two neighbours into the
    same set. The set's nominal offload time is its earliest member's.
    """
    if not items:
        return []
    ordered = sorted(items, key=lambda it: (it[1], it[0].id))
    groups: list[list[tuple[Task, float]]] = [[ordered[0]]]
    for task, ready in ordered[1:]:
        if ready - groups[-1][-1][1] <= eps:
            groups[-1].append((task, ready))
        else:
            groups.append([(task, ready)])
    out = []
    for group in groups:
        t0 = group[0][1]
        out.append(
            ConcurrentSet(
                offload_time=t0,
                task_ids=[task.id for task, _ in group],
                sizes=[float(task.size) for task, _ in group],
            )
        )
    return out


def attach_comm_times(
    tasks: Iterable[Task], params: ChannelParams
) -> list[BandwidthEvent]:
    """Compute and store ``comm_time`` for every task, in place.

    Tasks arriving at the RSU at one instant form a concurrent set and
    share the band for that transfer. Returns the log of every sharing
    decision so callers can audit that allocations always sum to the band.
    """
    items = [(task, task.arrival) for task in tasks]
    events = []
    by_id = {task.id: task for task, _ in items}
    for cset in group_ready_instants(items):
        allocations = allocate_bandwidth(cset, params.bandwidth_max)
        for task_id, grant in zip(cset.task_ids, allocations):
            task = by_id[task_id]
            task.comm_time = comm_time(task.size, rate(grant, params))
        events.append(
            BandwidthEvent(
                time=cset.offload_time,
                task_ids=list(cset.task_ids),
                allocations=allocations,
                bandwidth_max=params.bandwidth_max,
            )
        )
    return events
