"""Vehicle traces, coverage geometry, and task generation.

Vehicles drive a straight road at constant per-vehicle speed and are
sampled at 1 Hz from the moment they enter the road. A trace is one
columnar ``Trace``: arrays of time, vehicle id, position and speed, one
entry per sample. The roadside unit covers a disc; a vehicle's deadline
context is the instant it leaves that disc. Positions between samples are
linear in time (speeds are constant), so range crossings are found exactly
by solving the quadratic |p(t) - rsu|^2 = radius^2 on the bracketing
segment; ``coverage`` does so for every vehicle in one pass over arrays.

The geometry and workload defaults here are desk-scale placeholders chosen
for a loaded-but-survivable RSU; they make no claim to match any particular
field deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import NON_EMPTY, POSITIVE, Task, check_fields, field_faults

LANE_WIDTH_M = 3.5

TRACE_HEADER = ["time", "vehicle_id", "x", "y", "speed"]


@dataclass(eq=False)
class Trace:
    """A floating-car trace as columns, one entry per sample.

    ``generate_trace`` emits the samples grouped by vehicle in time order;
    a trace built by hand may interleave vehicles, and ``coverage`` groups
    them.
    ``len`` counts samples, and two traces are equal when every column is.
    """

    time: np.ndarray
    vehicle_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray

    def __post_init__(self) -> None:
        for name in TRACE_HEADER:
            dtype = np.int64 if name == "vehicle_id" else np.float64
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self) -> int:
        return len(self.time)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in TRACE_HEADER
        )


@dataclass
class ScenarioGeometry:
    """Road layout and RSU placement.

    ``entry_rate`` is the mean rate (vehicles/second) of the Poisson
    process that staggers road entries; it is the main congestion knob.
    """

    rsu_x: float = 500.0
    rsu_y: float = 0.0
    coverage_radius: float = field(default=250.0, metadata=POSITIVE)
    road_length: float = field(default=1000.0, metadata=POSITIVE)
    lanes: int = field(default=2, metadata=POSITIVE)
    speed_range: tuple[float, float] = field(default=(20.0, 30.0), metadata=POSITIVE)
    entry_rate: float = field(default=10.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        faults = field_faults(self)
        cross = []
        if "speed_range" not in faults and self.speed_range[0] > self.speed_range[1]:
            cross.append(f"speed_range must satisfy min <= max, got {self.speed_range}")
        check_fields(self, faults, *cross)


# Per-frame processing time on an edge server, by input resolution.
DEFAULT_PROC_TIME_TABLE = {
    (224, 224): 0.05,
    (640, 480): 0.15,
    (1280, 720): 0.40,
}


@dataclass
class WorkloadModel:
    """What the vehicles ask the RSU to compute.

    Each task is one camera frame: ``size = width * height *
    bits_per_pixel``. Its processing time comes from ``proc_time_table``.
    A vehicle's k-th task is generated at its road-entry time plus the sum
    of k exponential draws with rate ``poisson_rate``.
    """

    poisson_rate: float = field(default=0.1, metadata=POSITIVE)
    resolutions: tuple[tuple[int, int], ...] = field(
        default=((224, 224), (640, 480), (1280, 720)), metadata=NON_EMPTY
    )
    bits_per_pixel: int = field(default=24, metadata=POSITIVE)
    proc_time_table: dict[tuple[int, int], float] = field(
        default_factory=lambda: dict(DEFAULT_PROC_TIME_TABLE), metadata={"keys": "WxH"}
    )

    def __post_init__(self) -> None:
        faults = field_faults(self)
        cross = []
        if not faults.keys() & {"resolutions", "proc_time_table"}:
            for res in self.resolutions:
                if res not in self.proc_time_table:
                    cross.append(f"resolution {res} has no proc_time_table entry")
                elif self.proc_time_table[res] <= 0:
                    cross.append(f"proc_time_table[{res}] must be positive")
        check_fields(self, faults, *cross)

    def task_size(self, resolution: tuple[int, int]) -> int:
        w, h = resolution
        return w * h * self.bits_per_pixel


def episode_seeds(seed: int) -> tuple[int, int]:
    """The trace seed and the task seed of one seeded episode, drawn from
    independent substreams of ``seed``."""
    trace_seq, task_seq = np.random.SeedSequence(seed).spawn(2)
    return int(trace_seq.generate_state(1)[0]), int(task_seq.generate_state(1)[0])


def generate_trace(geom: ScenarioGeometry, n_vehicles: int, seed: int) -> Trace:
    """Synthesize a floating-car trace.

    Vehicles enter at x=0 with exponential headways (rate
    ``geom.entry_rate``), drive at a constant speed drawn uniformly from
    ``geom.speed_range``, and are sampled at 1 Hz on a per-vehicle clock
    until they exit the road. Lanes only set the lateral offset.
    Deterministic for a fixed seed.
    """
    if n_vehicles < 0:
        raise ValueError(f"n_vehicles must be >= 0, got {n_vehicles}")
    rng = np.random.default_rng(seed)
    headways = rng.exponential(1.0 / geom.entry_rate, size=n_vehicles)
    entries = np.cumsum(headways)
    lo, hi = geom.speed_range
    speeds = rng.uniform(lo, hi, size=n_vehicles)
    # a vehicle is sampled at k = 0, 1, ... while speed * k < road_length;
    # start from the real quotient and settle the count on that float test
    counts = np.ceil(geom.road_length / speeds).astype(np.int64)
    while (over := speeds * (counts - 1) >= geom.road_length).any():
        counts -= over
    while (under := speeds * counts < geom.road_length).any():
        counts += under
    vid = np.repeat(np.arange(n_vehicles), counts)
    k = np.arange(len(vid)) - np.repeat(np.cumsum(counts) - counts, counts)
    return Trace(
        time=entries[vid] + k,
        vehicle_id=vid,
        x=speeds[vid] * k,
        y=((vid % geom.lanes) + 0.5) * LANE_WIDTH_M,
        speed=speeds[vid],
    )


def coverage(
    trace: Trace, geom: ScenarioGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In-range intervals of every vehicle, solved over arrays.

    Returns ``(vehicle_id, first_time, t_in, t_out)``, one entry per
    vehicle in id order; ``first_time`` is its first sample time, and
    ``t_in``/``t_out`` are NaN for a vehicle never in coverage. Rows are
    grouped by vehicle with a stable sort, so they may arrive interleaved.

    A vehicle whose first sample is inside enters at that sample.
    Otherwise it enters at the first root in [0, 1] on a segment from
    outside to inside, and it leaves at the first such root on a later
    segment from inside to outside; a segment without a root in [0, 1] is
    skipped. A vehicle still inside at its last sample leaves there:
    nothing past the trace is assumed.
    """
    order = np.argsort(trace.vehicle_id, kind="stable")
    vid, t, x, y = (c[order] for c in (trace.vehicle_id, trace.time, trace.x, trace.y))
    new = np.diff(vid, prepend=vid[:1] - 1) != 0
    first, group = np.flatnonzero(new), np.cumsum(new) - 1
    last = np.flatnonzero(np.diff(vid, append=vid[-1:] + 1))

    r2 = geom.coverage_radius**2
    ax, ay = x - geom.rsu_x, y - geom.rsu_y
    dist2 = ax * ax + ay * ay
    inside = dist2 <= r2
    # float ** 2 is libm pow, which can differ from x * x by an ulp: settle
    # the side of the disc with it wherever an ulp could matter
    for i in np.flatnonzero(np.abs(dist2 - r2) <= 1e-9 * r2):
        inside[i] = float(ax[i]) ** 2 + float(ay[i]) ** 2 <= r2

    same, dt = ~new[1:], np.diff(t)
    if (bad := same & (dt <= 0)).any():
        raise ValueError(f"vehicle {vid[np.argmax(bad)]}: non-increasing sample times")
    seg = np.flatnonzero(same & (inside[:-1] != inside[1:]))
    # p(s) = a + s*(b-a), s in [0,1]; solve |p(s)-rsu|^2 = r^2 on each crossing
    sax, say = ax[seg], ay[seg]
    dx, dy = x[seg + 1] - x[seg], y[seg + 1] - y[seg]
    qa = dx * dx + dy * dy
    qb = 2 * (sax * dx + say * dy)
    qc = sax * sax + say * say - r2
    disc = qb * qb - 4 * qa * qc
    real = (qa > 0) & (disc >= 0)
    sq, den = np.sqrt(np.where(real, disc, 0.0)), np.where(real, 2 * qa, 1.0)
    s1, s2 = (-qb - sq) / den, (-qb + sq) / den
    hit1, hit2 = real & (0 <= s1) & (s1 <= 1), real & (0 <= s2) & (s2 <= 1)
    hit = hit1 | hit2
    seg, s_hit = seg[hit], np.where(hit1, s1, s2)[hit]
    t_hit, g_hit = t[seg] + s_hit * dt[seg], group[seg]

    starts_inside = inside[first]
    t_in = np.where(starts_inside, t[first], np.nan)
    entered_at = np.where(starts_inside, -1, len(vid))
    enters = ~inside[seg] & ~starts_inside[g_hit]
    g, i = np.unique(g_hit[enters], return_index=True)
    t_in[g], entered_at[g] = t_hit[enters][i], seg[enters][i]
    leaves = inside[seg] & (seg > entered_at[g_hit])
    t_out = np.where(np.isnan(t_in), np.nan, t[last])
    g, i = np.unique(g_hit[leaves], return_index=True)
    t_out[g] = t_hit[leaves][i]
    return vid[first], t[first], t_in, t_out


def spawn_tasks(
    trace: Trace,
    geom: ScenarioGeometry,
    workload: WorkloadModel,
    tasks_per_vehicle: int,
    seed: int,
) -> list[Task]:
    """Generate the episode's task list from a trace.

    Each covered vehicle emits ``tasks_per_vehicle`` tasks. A task
    generated before range entry arrives at the entry instant; one
    generated after range exit is clamped to the exit instant (its
    remaining time is then zero and the engine will drop it). Vehicles
    that never enter coverage emit nothing. Task ids are assigned in
    arrival order. Deterministic for a fixed seed.
    """
    if tasks_per_vehicle < 1:
        raise ValueError(f"tasks_per_vehicle must be >= 1, got {tasks_per_vehicle}")
    rng = np.random.default_rng(seed)
    drafts = []
    for vid, gen, t_in, t_out in zip(*(c.tolist() for c in coverage(trace, geom))):
        # draws happen even for uncovered vehicles so that coverage does not
        # shift the random stream of later vehicles
        for _ in range(tasks_per_vehicle):
            gen += rng.exponential(1.0 / workload.poisson_rate)
            res = workload.resolutions[rng.integers(len(workload.resolutions))]
            if math.isnan(t_in):
                continue
            arrival = min(max(gen, t_in), t_out)
            remaining = t_out - arrival
            drafts.append(
                {
                    "vehicle_id": vid,
                    "arrival": arrival,
                    "size": workload.task_size(res),
                    "proc_time": workload.proc_time_table[res],
                    "remaining_in_range": remaining,
                }
            )

    drafts.sort(key=lambda d: (d["arrival"], d["vehicle_id"]))
    return [Task(id=i, **d) for i, d in enumerate(drafts)]
