import hashlib
import itertools
import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.config import config_from_dict, default_config, section_to_dict
from vecoff.domain import ConfigError, dumps
from vecoff.experiments import build_episode_tasks
from vecoff.mobility import (
    TRACE_HEADER,
    ScenarioGeometry,
    Trace,
    WorkloadModel,
    coverage,
    generate_trace,
    spawn_tasks,
)


def straight_trace(speed=25.0, y=0.0, n=41, vid=0):
    """Vehicle driving x = speed * t along y = const, sampled at 1 Hz."""
    k = np.arange(n)
    return Trace(
        time=k.astype(float), vehicle_id=np.full(n, vid), x=speed * k,
        y=np.full(n, y), speed=np.full(n, speed),
    )


def concat(*traces):
    return Trace(*(np.concatenate([getattr(t, n) for t in traces]) for n in TRACE_HEADER))


class TestGenerateTrace:
    def test_deterministic_for_fixed_seed(self):
        geom = ScenarioGeometry()
        a = generate_trace(geom, 10, seed=7)
        b = generate_trace(geom, 10, seed=7)
        assert a == b

    def test_seed_changes_trace(self):
        geom = ScenarioGeometry()
        assert generate_trace(geom, 10, seed=7) != generate_trace(geom, 10, seed=8)

    def test_sample_count_at_fixed_speed(self):
        # 1000 m road at exactly 20 m/s, 1 Hz: samples at x=0,20,...,980
        geom = ScenarioGeometry(speed_range=(20.0, 20.0))
        trace = generate_trace(geom, 1, seed=0)
        assert len(trace) == 50
        assert trace.x[0] == 0.0
        assert trace.x[-1] == 980.0

    def test_vehicle_ids_are_dense(self):
        geom = ScenarioGeometry()
        trace = generate_trace(geom, 200, seed=3)
        assert set(trace.vehicle_id.tolist()) == set(range(200))

    def test_speeds_within_range(self):
        geom = ScenarioGeometry(speed_range=(20.0, 30.0))
        trace = generate_trace(geom, 50, seed=1)
        assert ((20.0 <= trace.speed) & (trace.speed <= 30.0)).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(ScenarioGeometry(), -1, seed=0)


class TestCoverageGeometry:
    # RSU at (500, 0) with radius 250 over the road y=0: coverage is the
    # chord x in [250, 750], i.e. 500 m, which a 25 m/s vehicle holds 20 s.

    def geom(self, radius=250.0):
        return ScenarioGeometry(rsu_x=500.0, rsu_y=0.0, coverage_radius=radius)

    def task_generated_at(self, instant, seed=0):
        """The one task of a straight vehicle, generated at about ``instant``.

        The first draw is ``standard_exponential() / poisson_rate``, so the
        rate picks the generation instant.
        """
        e = np.random.default_rng(seed).standard_exponential()
        workload = WorkloadModel(poisson_rate=e / instant)
        (task,) = spawn_tasks(straight_trace(speed=25.0), self.geom(), workload, 1, seed)
        return task

    def test_full_chord_remaining(self):
        _, _, t_in, t_out = coverage(straight_trace(speed=25.0), self.geom())
        assert math.isclose(t_in[0], 10.0, abs_tol=1e-9)
        assert math.isclose(t_out[0], 30.0, abs_tol=1e-9)
        task = self.task_generated_at(10.0)
        assert math.isclose(task.remaining_in_range, 20.0, abs_tol=1e-9)
        assert math.isclose(task.deadline, 30.0, abs_tol=1e-9)

    def test_midway_arrival(self):
        task = self.task_generated_at(22.0)
        assert math.isclose(task.arrival, 22.0, abs_tol=1e-9)
        assert math.isclose(task.remaining_in_range, 8.0, abs_tol=1e-9)
        assert math.isclose(task.deadline, 30.0, abs_tol=1e-9)

    def test_arrival_at_exit_has_nothing_left(self):
        task = self.task_generated_at(31.0)
        assert task.remaining_in_range == 0.0
        assert task.deadline == task.arrival
        assert math.isclose(task.deadline, 30.0, abs_tol=1e-9)

    def test_arrival_before_entry_waits_for_coverage(self):
        task = self.task_generated_at(2.0)
        assert math.isclose(task.arrival, 10.0, abs_tol=1e-9)
        assert math.isclose(task.remaining_in_range, 20.0, abs_tol=1e-9)

    def test_halving_radius_halves_chord_time(self):
        samples = straight_trace(speed=25.0)
        _, _, t_in, t_out = coverage(samples, self.geom(250.0))
        _, _, h_in, h_out = coverage(samples, self.geom(125.0))
        assert math.isclose(t_out[0] - t_in[0], 2 * (h_out[0] - h_in[0]), abs_tol=1e-9)

    def test_never_covered_has_no_interval(self):
        _, _, t_in, t_out = coverage(straight_trace(speed=25.0, y=1000.0), self.geom())
        assert math.isnan(t_in[0]) and math.isnan(t_out[0])

    def test_coverage_intervals_per_vehicle(self):
        trace = concat(
            straight_trace(speed=25.0, y=1000.0, vid=1), straight_trace(speed=25.0, vid=0)
        )
        vids, first, t_in, t_out = coverage(trace, self.geom())
        assert vids.tolist() == [0, 1]
        assert first.tolist() == [0.0, 0.0]
        assert math.isclose(t_in[0], 10.0, abs_tol=1e-9)
        assert math.isclose(t_out[0], 30.0, abs_tol=1e-9)
        assert math.isnan(t_in[1]) and math.isnan(t_out[1])

    def test_still_inside_at_trace_end_closes_at_last_sample(self):
        samples = straight_trace(speed=25.0, n=25)  # ends at x=600, inside
        _, _, _, t_out = coverage(samples, self.geom())
        assert t_out[0] == 24.0

    def test_non_increasing_times_rejected(self):
        trace = straight_trace(speed=25.0, vid=3)
        trace.time[5] = trace.time[4]
        with pytest.raises(ValueError, match="vehicle 3: non-increasing"):
            coverage(trace, self.geom())

    def test_empty_trace_has_no_vehicles(self):
        assert all(len(c) == 0 for c in coverage(Trace([], [], [], [], []), self.geom()))

    @pytest.mark.parametrize("radius,path", [
        # Python's 117.03...**2 rounds below 117.03... * 117.03..., so the
        # first sample is on the disc only as float ** 2 computes it
        (117.03779861733885, [(0.0, 117.03779861733885, 0.0), (1.0, 234.0755972346777, 0.0)]),
        # the radial approach to a rim sample has its root at s = 1 + 2**-52,
        # so that entry is skipped and the next crossing, a leaving one, is
        # ignored until the vehicle enters again through the centre
        (250.0, [
            (0.0, -433.5342762016559, -249.09442257566974),
            (1.0, -216.76713810082796, -124.54721128783487),
            (2.0, 433.5342762016559, 249.09442257566974),
            (3.0, 0.0, 0.0),
            (4.0, 750.0, 0.0),
        ]),
    ])
    def test_matches_the_scalar_solver_on_the_rim(self, radius, path):
        geom = ScenarioGeometry(rsu_x=0.0, rsu_y=0.0, coverage_radius=radius)
        trace = Trace(*zip(*[(t, 7, x, y, 0.0) for t, x, y in path]))
        _, _, t_in, t_out = coverage(trace, geom)
        reference = scalar_crossings([Sample(t, 7, x, y, 0.0) for t, x, y in path], geom)
        assert reference is not None
        assert (t_in[0], t_out[0]) == reference

    @given(st.data())
    def test_matches_the_scalar_solver_exactly(self, data):
        geom = data.draw(geometries())
        paths = data.draw(
            st.dictionaries(st.integers(0, 10**6), vehicle_paths(geom), min_size=1, max_size=6)
        )
        # interleave vehicles in any order, each keeping its own time order
        turns = data.draw(st.permutations([v for v, path in paths.items() for _ in path]))
        pending = {v: iter(path) for v, path in paths.items()}
        rows = [(t, v, x, y, 0.0) for v in turns for t, x, y in [next(pending[v])]]

        vids, first, t_in, t_out = coverage(Trace(*zip(*rows)), geom)
        assert vids.tolist() == sorted(paths)
        for vid, start, lo, hi in zip(vids.tolist(), first.tolist(), t_in.tolist(), t_out.tolist()):
            samples = [Sample(t, vid, x, y, 0.0) for t, x, y in paths[vid]]
            assert start == samples[0].time
            assert (None if math.isnan(lo) else (lo, hi)) == scalar_crossings(samples, geom)


Sample = namedtuple("Sample", TRACE_HEADER)


def scalar_crossings(samples, geom):
    """One vehicle's (t_in, t_out), or None, solved segment by segment.

    The scalar reference for ``coverage``: it must agree with ``==``.
    """
    if not samples:
        return None
    r2 = geom.coverage_radius**2

    def dist2(s):
        return (s.x - geom.rsu_x) ** 2 + (s.y - geom.rsu_y) ** 2

    t_in = None
    if dist2(samples[0]) <= r2:
        t_in = samples[0].time
    for a, b in zip(samples, samples[1:]):
        dt = b.time - a.time
        if dt <= 0:
            raise ValueError(f"vehicle {a.vehicle_id}: non-increasing sample times")
        # p(s) = a + s*(b-a), s in [0,1]; solve |p(s)-rsu|^2 = r^2.
        ax, ay = a.x - geom.rsu_x, a.y - geom.rsu_y
        dx, dy = b.x - a.x, b.y - a.y
        qa = dx * dx + dy * dy
        qb = 2 * (ax * dx + ay * dy)
        qc = ax * ax + ay * ay - r2
        roots = []
        if qa > 0:
            disc = qb * qb - 4 * qa * qc
            if disc >= 0:
                sq = math.sqrt(disc)
                roots = [(-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)]
        for s in roots:
            if 0 <= s <= 1:
                t = a.time + s * dt
                entering = dist2(a) > r2 and dist2(b) <= r2
                leaving = dist2(a) <= r2 and dist2(b) > r2
                if entering and t_in is None:
                    t_in = t
                elif leaving and t_in is not None:
                    return (t_in, t)
    if t_in is not None:
        # never left coverage within the trace
        return (t_in, samples[-1].time)
    return None


@st.composite
def geometries(draw):
    return ScenarioGeometry(
        rsu_x=draw(st.floats(-500, 500)),
        rsu_y=draw(st.floats(-500, 500)),
        coverage_radius=draw(st.floats(1, 400)),
    )


@st.composite
def vehicle_paths(draw, geom):
    """(time, x, y) of one vehicle at irregular, increasing times.

    A path is a polyline of free points, points on the rim and points a
    hair off it (so it may start or end inside, re-enter, or never come
    near), a straight drive with lateral motion, or a near-tangent graze.
    """
    n = draw(st.integers(1, 12))
    t0 = draw(st.floats(0, 100))
    times = list(itertools.accumulate(
        draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1)), initial=t0
    ))
    r, cx, cy = geom.coverage_radius, geom.rsu_x, geom.rsu_y
    angle = st.floats(0, 2 * math.pi)
    kind = draw(st.sampled_from(["polyline", "drive", "graze"]))
    if kind == "polyline":
        free = st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)).map(
            lambda p: (cx + r * p[0], cy + r * p[1])
        )
        rim = st.tuples(angle, st.sampled_from([1.0, 1 + 1e-15, 1 - 1e-15])).map(
            lambda a: (cx + r * a[1] * math.cos(a[0]), cy + r * a[1] * math.sin(a[0]))
        )
        points = [draw(st.one_of(free, rim)) for _ in times]
    elif kind == "drive":
        x0, y0 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
        vx, vy = draw(st.floats(-60, 60)), draw(st.floats(-10, 10))
        points = [(cx + r * x0 + vx * (t - t0), cy + r * y0 + vy * (t - t0)) for t in times]
    else:
        phi = draw(angle)
        d = r * (1 + draw(st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-1e-6, 1e-6)))
        u0, v = draw(st.floats(-2 * r, 0)), draw(st.floats(r / 20, r))
        nx, ny = math.cos(phi), math.sin(phi)
        points = [
            (cx + d * nx - (u0 + v * (t - t0)) * ny, cy + d * ny + (u0 + v * (t - t0)) * nx)
            for t in times
        ]
    return [(t, x, y) for t, (x, y) in zip(times, points)]


class TestWorkloadModel:
    def test_frame_sizes(self):
        wl = WorkloadModel()
        assert wl.task_size((640, 480)) == 7_372_800
        assert wl.task_size((224, 224)) == 1_204_224

    def test_resolution_without_proc_time_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadModel(resolutions=((64, 64),))

    def test_round_trip(self):
        wl = WorkloadModel(
            resolutions=((320, 240), (640, 480)),
            proc_time_table={(320, 240): 0.08, (640, 480): 0.15},
        )
        d = json.loads(dumps(section_to_dict(wl)))
        assert d["proc_time_table"] == {"320x240": 0.08, "640x480": 0.15}
        assert config_from_dict({"workload": d}).workload == wl


class TestSpawnTasks:
    def setup_method(self):
        self.geom = ScenarioGeometry(rsu_x=500.0, rsu_y=0.0, coverage_radius=250.0)
        self.trace = concat(*(straight_trace(speed=25.0, vid=vid) for vid in range(5)))

    def test_count_and_ids(self):
        tasks = spawn_tasks(self.trace, self.geom, WorkloadModel(), 10, seed=4)
        assert len(tasks) == 50
        assert [t.id for t in tasks] == list(range(50))
        arrivals = [t.arrival for t in tasks]
        assert arrivals == sorted(arrivals)

    def test_deterministic(self):
        wl = WorkloadModel()
        a = spawn_tasks(self.trace, self.geom, wl, 5, seed=9)
        b = spawn_tasks(self.trace, self.geom, wl, 5, seed=9)
        assert [t.to_dict() for t in a] == [t.to_dict() for t in b]

    def test_single_resolution_fixes_size(self):
        wl = WorkloadModel(resolutions=((640, 480),))
        tasks = spawn_tasks(self.trace, self.geom, wl, 3, seed=4)
        assert all(t.size == 7_372_800 for t in tasks)
        assert all(t.proc_time == 0.15 for t in tasks)

    def test_deadline_matches_remaining(self):
        tasks = spawn_tasks(self.trace, self.geom, WorkloadModel(), 10, seed=4)
        for t in tasks:
            assert math.isclose(t.deadline - t.arrival, t.remaining_in_range, abs_tol=1e-12)
            assert t.remaining_in_range >= 0.0

    def test_arrivals_clamped_to_coverage(self):
        tasks = spawn_tasks(self.trace, self.geom, WorkloadModel(), 10, seed=4)
        for t in tasks:
            assert 10.0 - 1e-9 <= t.arrival <= 30.0 + 1e-9

    def test_uncovered_vehicles_emit_nothing(self):
        trace = straight_trace(speed=25.0, y=1000.0, vid=0)
        assert spawn_tasks(trace, self.geom, WorkloadModel(), 5, seed=0) == []

    def test_tasks_per_vehicle_must_be_positive(self):
        with pytest.raises(ValueError):
            spawn_tasks(self.trace, self.geom, WorkloadModel(), 0, seed=0)


# sha256 over repr((id, vehicle_id, arrival, size, proc_time, deadline,
# remaining_in_range)) of every task, recorded with the scalar per-vehicle
# solver that ``coverage`` replaced
EPISODE_DIGESTS = {
    (50, 1): "f4effa5186b2e9937ae67138e7c8ad930ab6976f93bf147aba06cc2c7221ba7e",
    (50, 2): "255c4c062f42932bb2809b927fbbe1c22aa181cfc72f99ee4ce6da3f6932ac01",
    (50, 3): "aaec9cb9fc8687523a85435edf63650acf3a8be8728dc06a9daa8596b00bd1ba",
    (100, 1): "f008511a0cf8b46dd55af3048504b3806addd96e11d1572f392a0a6e4ee4aba2",
    (100, 2): "73edc3a7692820ed1cda81b3f23c1ebee95f011619bb2f5eb3b4fa3948d6ff7b",
    (100, 3): "033ff1d709bca35d475cd6f41a73d9edd03f5bfe338e7820a66aadf8c6131370",
    (200, 1): "83b58abd18cffed8faa2d1f6608d9d2a1c8382bfc38bc65179183c40da94c8c3",
    (200, 2): "0716054da856ec79f6ac6d7858bd27a08effffa09eb2e2581e88672c410b4eef",
    (200, 3): "594d32d9597e645a8586cc937e2566a04b5d77ad17cd4db84e65a9d777a23627",
}


@pytest.mark.parametrize("vehicles,seed", sorted(EPISODE_DIGESTS))
def test_episode_tasks_are_pinned(vehicles, seed):
    _, tasks = build_episode_tasks(default_config(), vehicles, seed)
    h = hashlib.sha256()
    for t in tasks:
        h.update(repr((t.id, t.vehicle_id, t.arrival, t.size, t.proc_time,
                       t.deadline, t.remaining_in_range)).encode())
    assert h.hexdigest() == EPISODE_DIGESTS[vehicles, seed]
