"""Vehicle traces, coverage geometry, and task generation.

Vehicles drive a straight road at constant per-vehicle speed and are
sampled at 1 Hz from the moment they enter the road. A ``Trace`` holds
one row per vehicle: its entry time, its speed and its sample count. The
roadside unit covers a disc; a vehicle's deadline context is the instant
it leaves that disc. Positions between samples are linear in time, so
range crossings are found exactly by solving the quadratic
|p(t) - rsu|^2 = radius^2 on the two segments that cross the rim;
``coverage`` does so for every vehicle at once.

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


@dataclass(eq=False)
class Trace:
    """Straight constant-speed drives, one row per vehicle in id order.

    Vehicle v enters the road at x = 0 at time ``entry[v]`` and drives at
    ``speed[v]``; its k-th 1 Hz sample, for k < ``samples[v]``, is at
    x = speed[v] * k and time entry[v] + k. Its lane, and so its lateral
    offset, is v modulo the geometry's lane count.
    """

    entry: np.ndarray
    speed: np.ndarray
    samples: np.ndarray


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
    """Synthesize one straight drive per vehicle.

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
    return Trace(entry=entries, speed=speeds, samples=counts)


def coverage(trace: Trace, geom: ScenarioGeometry) -> tuple[np.ndarray, np.ndarray]:
    """In-range interval ``(t_in, t_out)`` of every vehicle, in id order;
    both are NaN for a vehicle never in coverage.

    A sample is in coverage when its squared distance to the RSU is at
    most radius^2. Every float operation along a drive rounds
    monotonically, so that distance falls and then rises, and the samples
    in coverage form one run [ka, kb]. A vehicle whose first sample is
    inside enters at that sample; otherwise it enters at the root in
    [0, 1] on segment ka - 1, and without one it is never covered. It
    leaves at the root in [0, 1] on segment kb or, without one, at its
    last sample: nothing past the trace is assumed.
    """
    speed, n = trace.speed, trace.samples
    ay = ((np.arange(len(n)) % geom.lanes) + 0.5) * LANE_WIDTH_M - geom.rsu_y
    r2 = geom.coverage_radius**2

    def inside(k: np.ndarray) -> np.ndarray:
        """Whether each vehicle's sample k is in the disc (False off its drive)."""
        ax = speed * k - geom.rsu_x
        dist2 = ax * ax + ay * ay
        hit = dist2 <= r2
        # float ** 2 is libm pow, which can differ from x * x by an ulp:
        # settle the side of the disc with it wherever an ulp could matter
        for i in np.flatnonzero(np.abs(dist2 - r2) <= 1e-9 * r2):
            hit[i] = float(ax[i]) ** 2 + float(ay[i]) ** 2 <= r2
        return hit & (0 <= k) & (k < n)

    def crossing(k: np.ndarray) -> np.ndarray:
        """The time of the rim crossing on each vehicle's segment from
        sample k to k + 1, NaN where no root lies in [0, 1]."""
        t0, t1 = trace.entry + k, trace.entry + (k + 1)
        x0 = speed * k
        sax, dx = x0 - geom.rsu_x, speed * (k + 1) - x0
        # p(s) = a + s*(b-a), s in [0,1]; solve |p(s)-rsu|^2 = r^2
        qa = dx * dx
        qb = 2 * (sax * dx)
        qc = sax * sax + ay * ay - r2
        disc = qb * qb - 4 * qa * qc
        real = (qa > 0) & (disc >= 0)
        sq, den = np.sqrt(np.where(real, disc, 0.0)), np.where(real, 2 * qa, 1.0)
        s1, s2 = (-qb - sq) / den, (-qb + sq) / den
        hit1, hit2 = real & (0 <= s1) & (s1 <= 1), real & (0 <= s2) & (s2 <= 1)
        return np.where(hit1 | hit2, t0 + np.where(hit1, s1, s2) * (t1 - t0), np.nan)

    # the chord's ends put ka and kb within a sample of the run's ends;
    # the float test settles them
    half = np.sqrt(np.maximum(r2 - ay * ay, 0.0))
    ka = np.clip(np.ceil((geom.rsu_x - half) / speed), 0, n).astype(np.int64)
    kb = np.clip(np.floor((geom.rsu_x + half) / speed), -1, n - 1).astype(np.int64)
    while (step := inside(ka - 1)).any():
        ka -= step
    while (step := inside(kb + 1)).any():
        kb += step
    while (step := (ka <= kb) & ~inside(ka)).any():
        ka += step
    while (step := (ka <= kb) & ~inside(kb)).any():
        kb -= step

    t_in = np.where(ka == 0, trace.entry, crossing(ka - 1))
    t_in[ka > kb] = np.nan
    t_out = crossing(kb)
    t_out = np.where((kb < n - 1) & ~np.isnan(t_out), t_out, trace.entry + (n - 1))
    t_out[np.isnan(t_in)] = np.nan
    return t_in, t_out


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
    t_in, t_out = coverage(trace, geom)
    rows = zip(trace.entry.tolist(), t_in.tolist(), t_out.tolist())
    for vid, (gen, t_in, t_out) in enumerate(rows):
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
