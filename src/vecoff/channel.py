"""Wireless link model between vehicles and the roadside unit.

Tasks that arrive at the RSU at the same instant share the uplink: each
gets a slice of the total bandwidth proportional to its size, so
simultaneous transfers finish together. A task transmitting alone gets
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

# Two arrivals at most this far apart are treated as simultaneous.
EPS_SIMULTANEOUS = 1e-6


@dataclass
class BandwidthEvent:
    """Log record of one sharing decision, kept for conservation audits."""

    time: float
    task_ids: list[int]
    allocations: list[float]
    bandwidth_max: float


def allocate_bandwidth(sizes: Sequence[float], bandwidth_max: float) -> list[float]:
    """Split the band across transfers of ``sizes`` bits that share it.

    A lone transmitter gets exactly ``bandwidth_max``; several transmitters
    split it proportionally to their sizes, which makes their transfers end
    at the same instant.
    """
    if bandwidth_max <= 0:
        raise ValueError(f"bandwidth_max must be positive, got {bandwidth_max}")
    if len(sizes) == 1:
        return [bandwidth_max]
    total = sum(sizes)
    return [bandwidth_max * s / total for s in sizes]


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


def attach_comm_times(
    tasks: Iterable[Task], params: ChannelParams
) -> list[BandwidthEvent]:
    """Compute and store ``comm_time`` for every task, in place.

    Tasks arriving at the RSU at one instant share the band for that
    transfer. Arrivals are chained: a gap of at most EPS_SIMULTANEOUS joins
    two neighbours in (arrival, id) order, and a group's instant is its
    earliest member's. Returns one event per group, the log of every
    sharing decision, so callers can audit that allocations always sum to
    the band.
    """
    groups: list[list[Task]] = []
    for task in sorted(tasks, key=lambda t: (t.arrival, t.id)):
        if groups and task.arrival - groups[-1][-1].arrival <= EPS_SIMULTANEOUS:
            groups[-1].append(task)
        else:
            groups.append([task])
    events = []
    for group in groups:
        allocations = allocate_bandwidth([float(t.size) for t in group], params.bandwidth_max)
        for task, grant in zip(group, allocations):
            task.comm_time = comm_time(task.size, rate(grant, params))
        events.append(
            BandwidthEvent(
                time=group[0].arrival,
                task_ids=[t.id for t in group],
                allocations=allocations,
                bandwidth_max=params.bandwidth_max,
            )
        )
    return events
