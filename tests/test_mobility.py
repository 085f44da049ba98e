import hashlib
import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vecoff.config import config_from_dict, default_config, section_to_dict
from vecoff.domain import ConfigError, dumps
from vecoff.experiments import build_episode_tasks
from vecoff.mobility import (
    LANE_WIDTH_M,
    ScenarioGeometry,
    Trace,
    WorkloadModel,
    coverage,
    generate_trace,
    spawn_tasks,
)

LANE_Y = LANE_WIDTH_M / 2  # lateral offset of lane 0


def drives(speeds, samples, entries=None):
    """Straight drives, one per speed, each entering at 0 unless given."""
    speeds = np.array(speeds, dtype=float)
    entries = np.zeros(len(speeds)) if entries is None else np.array(entries, dtype=float)
    return Trace(entry=entries, speed=speeds, samples=np.array(samples, dtype=np.int64))


def drive(speed=25.0, samples=41):
    """One vehicle driving x = speed * t along lane 0, sampled at 1 Hz."""
    return drives([speed], [samples])


class TestGenerateTrace:
    def test_deterministic_for_fixed_seed(self):
        geom = ScenarioGeometry()
        a = generate_trace(geom, 10, seed=7)
        b = generate_trace(geom, 10, seed=7)
        for name in ("entry", "speed", "samples"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_trace(self):
        geom = ScenarioGeometry()
        a, b = generate_trace(geom, 10, seed=7), generate_trace(geom, 10, seed=8)
        assert not np.array_equal(a.entry, b.entry)
        assert not np.array_equal(a.speed, b.speed)

    def test_sample_count_at_fixed_speed(self):
        # 1000 m road at exactly 20 m/s, 1 Hz: samples at x=0,20,...,980
        geom = ScenarioGeometry(speed_range=(20.0, 20.0))
        trace = generate_trace(geom, 1, seed=0)
        assert trace.samples.tolist() == [50]
        assert trace.speed[0] * (trace.samples[0] - 1) == 980.0

    def test_vehicle_ids_are_dense(self):
        # one row per vehicle, in id order
        trace = generate_trace(ScenarioGeometry(), 200, seed=3)
        assert len(trace.entry) == len(trace.speed) == len(trace.samples) == 200
        assert (np.diff(trace.entry) >= 0).all()

    def test_speeds_within_range(self):
        geom = ScenarioGeometry(speed_range=(20.0, 30.0))
        trace = generate_trace(geom, 50, seed=1)
        assert ((20.0 <= trace.speed) & (trace.speed <= 30.0)).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(ScenarioGeometry(), -1, seed=0)


class TestCoverageGeometry:
    # RSU on lane 0 at x = 500 with radius 250: coverage is the chord
    # x in [250, 750], i.e. 500 m, which a 25 m/s vehicle holds 20 s.

    def geom(self, radius=250.0, **kw):
        return ScenarioGeometry(**{"rsu_x": 500.0, "rsu_y": LANE_Y, "coverage_radius": radius, **kw})

    def task_generated_at(self, instant, seed=0):
        """The one task of a straight vehicle, generated at about ``instant``.

        The first draw is ``standard_exponential() / poisson_rate``, so the
        rate picks the generation instant.
        """
        e = np.random.default_rng(seed).standard_exponential()
        workload = WorkloadModel(poisson_rate=e / instant)
        (task,) = spawn_tasks(drive(speed=25.0), self.geom(), workload, 1, seed)
        return task

    def test_full_chord_remaining(self):
        t_in, t_out = coverage(drive(speed=25.0), self.geom())
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
        t_in, t_out = coverage(drive(speed=25.0), self.geom(250.0))
        h_in, h_out = coverage(drive(speed=25.0), self.geom(125.0))
        assert math.isclose(t_out[0] - t_in[0], 2 * (h_out[0] - h_in[0]), abs_tol=1e-9)

    def test_never_covered_has_no_interval(self):
        t_in, t_out = coverage(drive(speed=25.0), self.geom(rsu_y=-1000.0))
        assert math.isnan(t_in[0]) and math.isnan(t_out[0])

    def test_coverage_intervals_per_vehicle(self):
        # each row is solved on its own clock and speed; the third vehicle
        # leaves the road at x = 100, short of the disc
        trace = drives([25.0, 50.0, 25.0], [41, 21, 5], entries=[0.0, 3.0, 1.0])
        t_in, t_out = coverage(trace, self.geom(lanes=1))
        assert np.allclose(t_in[:2], [10.0, 8.0], rtol=0, atol=1e-9)
        assert np.allclose(t_out[:2], [30.0, 18.0], rtol=0, atol=1e-9)
        assert math.isnan(t_in[2]) and math.isnan(t_out[2])

    def test_lane_sets_the_lateral_offset(self):
        # with two lanes, vehicle 1 drives 3.5 m off the RSU's lane
        t_in, t_out = coverage(drives([25.0, 25.0], [41, 41]), self.geom(lanes=2))
        half = math.sqrt(250.0**2 - LANE_WIDTH_M**2)
        assert math.isclose(t_in[1], (500.0 - half) / 25.0, abs_tol=1e-9)
        assert math.isclose(t_out[1], (500.0 + half) / 25.0, abs_tol=1e-9)

    def test_still_inside_at_trace_end_closes_at_last_sample(self):
        _, t_out = coverage(drive(speed=25.0, samples=25), self.geom())  # ends at x=600
        assert t_out[0] == 24.0

    def test_a_touch_enters_and_leaves_at_one_sample(self):
        # the disc spans x in [100, 120], so only sample 4 (x = 100) is in
        # it, on the rim; both roots of its leaving segment, s = 0 and
        # s = 0.8, lie in [0, 1], and the first is taken
        t_in, t_out = coverage(drive(speed=25.0), self.geom(10.0, rsu_x=110.0))
        assert (t_in[0], t_out[0]) == (4.0, 4.0)

    def test_empty_trace_has_no_vehicles(self):
        assert all(len(c) == 0 for c in coverage(drives([], []), self.geom()))

    @pytest.mark.parametrize("radius,path", [
        # Python's 117.03...**2 rounds below 117.03... * 117.03..., so the
        # first sample is on the disc only as float ** 2 computes it, and
        # the root leaving it falls just before s = 0
        (117.03779861733885, (117.03779861733885, -117.03779861733885, LANE_Y, 2)),
        # a sample on the rim, or one ulp in or out, that the chord puts on
        # the wrong side: each case moves one settle step of ``coverage``
        # (the fourth is the uncovered drive further down)
        pytest.param(
            381.5348519478648, (1.7644163235127723, -311.375017295588, 144.75451391662125, 40),
            id="last-inside-above-chord",
        ),
        pytest.param(241.27176067662785, (32.0, 771.0, -80.0, 40), id="first-in-chord-outside"),
        pytest.param(122.60123368057924, (25.0, 579.0, -18.0, 40), id="last-in-chord-outside"),
    ])
    def test_matches_the_scalar_solver_on_the_rim(self, radius, path):
        speed, rsu_x, rsu_y, samples = path
        geom = ScenarioGeometry(rsu_x=rsu_x, rsu_y=rsu_y, coverage_radius=radius)
        trace = drive(speed, samples)
        reference = scalar_crossings(samples_of(trace, geom, 0), geom)
        assert reference is not None
        assert interval(coverage(trace, geom), 0) == reference

    def test_an_entry_root_past_its_segment_leaves_the_vehicle_uncovered(self):
        # samples 1..8 are in the disc, but sample 1 sits on the rim and the
        # root on segment 0 rounds to just past s = 1, so no entry is found
        geom = ScenarioGeometry(
            rsu_x=168.0441337479727, rsu_y=36.61844837179274, coverage_radius=136.06837030432607
        )
        trace = drive(36.51925889375041, 40)
        assert sum(in_disc(s, geom) for s in samples_of(trace, geom, 0)) == 8
        assert interval(coverage(trace, geom), 0) is None
        assert scalar_crossings(samples_of(trace, geom, 0), geom) is None

    def test_an_exit_root_past_its_segment_holds_the_vehicle_to_its_last_sample(self):
        # samples 0..31 are in the disc, and the root leaving sample 31
        # rounds to just past s = 1, so the vehicle leaves at sample 39
        geom = ScenarioGeometry(
            rsu_x=-271.54055346373025, rsu_y=28.729015244526124, coverage_radius=438.02169004975576
        )
        trace = drive(5.176546547727449, 40)
        inside = [in_disc(s, geom) for s in samples_of(trace, geom, 0)]
        assert inside == [True] * 32 + [False] * 8
        assert interval(coverage(trace, geom), 0) == (0.0, 39.0)
        assert scalar_crossings(samples_of(trace, geom, 0), geom) == (0.0, 39.0)

    @given(st.data())
    def test_matches_the_scalar_solver_exactly(self, data):
        geom = data.draw(geometries())
        n = data.draw(st.integers(1, 6))
        trace = generate_trace(geom, n, data.draw(st.integers(0, 2**32 - 1)))
        intervals = coverage(trace, geom)
        for v in range(n):
            assert interval(intervals, v) == scalar_crossings(samples_of(trace, geom, v), geom)

    @given(st.data())
    def test_matches_the_scalar_solver_on_rim_drives(self, data):
        geom, trace = data.draw(rim_drives())
        assert interval(coverage(trace, geom), 0) == scalar_crossings(
            samples_of(trace, geom, 0), geom
        )


Sample = namedtuple("Sample", ["time", "x", "y"])


def samples_of(trace, geom, v):
    """Vehicle ``v``'s 1 Hz samples as ``Trace`` defines them: sample k at
    time entry + k and x = speed * k, on its lane's offset."""
    y = ((v % geom.lanes) + 0.5) * LANE_WIDTH_M
    entry, speed = float(trace.entry[v]), float(trace.speed[v])
    return [Sample(entry + k, speed * k, y) for k in range(int(trace.samples[v]))]


def interval(intervals, v):
    """Vehicle ``v``'s (t_in, t_out) from ``coverage``, or None."""
    t_in, t_out = (float(c[v]) for c in intervals)
    return None if math.isnan(t_in) else (t_in, t_out)


def in_disc(s, geom):
    return (s.x - geom.rsu_x) ** 2 + (s.y - geom.rsu_y) ** 2 <= geom.coverage_radius**2


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
    """A road and RSU anywhere near it, at speeds that keep a drive under
    300 samples."""
    lo = draw(st.floats(5, 60))
    return ScenarioGeometry(
        rsu_x=draw(st.floats(-500, 2000)),
        rsu_y=draw(st.floats(-500, 500)),
        coverage_radius=draw(st.floats(1, 800)),
        road_length=draw(st.floats(1, 1500)),
        lanes=draw(st.integers(1, 4)),
        speed_range=(lo, draw(st.floats(lo, 60))),
    )


@st.composite
def rim_drives(draw):
    """One drive with its sample k on the rim: exactly as ``math.hypot``
    puts it, or one or two ulps in or out."""
    speed = draw(st.floats(1, 40))
    samples = draw(st.integers(1, 60))
    k = draw(st.integers(0, samples - 1))
    rsu_x = speed * k + draw(st.floats(-600, 600))
    rsu_y = draw(st.floats(-300, 300))
    radius = math.hypot(speed * k - rsu_x, LANE_Y - rsu_y)
    ulps = draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.inf if ulps > 0 else 0.0)
    assume(radius > 0)
    geom = ScenarioGeometry(rsu_x=rsu_x, rsu_y=rsu_y, coverage_radius=radius)
    entry = draw(st.floats(0, 100))
    return geom, drives([speed], [samples], entries=[entry])


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
        self.geom = ScenarioGeometry(rsu_x=500.0, rsu_y=LANE_Y, coverage_radius=250.0, lanes=1)
        self.trace = drives([25.0] * 5, [41] * 5)

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
        geom = ScenarioGeometry(rsu_x=500.0, rsu_y=-1000.0, coverage_radius=250.0)
        assert spawn_tasks(drive(speed=25.0), geom, WorkloadModel(), 5, seed=0) == []

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
