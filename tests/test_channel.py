import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.channel import (
    EPS_SIMULTANEOUS,
    ConcurrentSet,
    allocate_bandwidth,
    attach_comm_times,
    comm_time,
    group_ready_instants,
    rate,
)
from vecoff.domain import ChannelParams

from conftest import make_task


def pair(tid, ready, size):
    task = make_task(tid, arrival=ready, proc=0.1, remaining=20.0, size=size)
    return (task, ready)


class TestConcurrentSets:
    def test_three_ready_at_same_instant(self):
        items = [pair(0, 5.0, 1e6), pair(1, 5.0, 2e6), pair(2, 5.0, 3e6), pair(3, 6.0, 1e6)]
        first, second = group_ready_instants(items)
        assert first.task_ids == [0, 1, 2]
        assert first.sizes == [1e6, 2e6, 3e6]
        assert second.task_ids == [3]

    def test_single_ready_task(self):
        groups = group_ready_instants([pair(0, 5.0, 1e6), pair(1, 6.0, 1e6)])
        assert [(g.offload_time, g.task_ids) for g in groups] == [(5.0, [0]), (6.0, [1])]

    def test_within_tolerance_is_same_set(self):
        dt = EPS_SIMULTANEOUS / 2
        (cs,) = group_ready_instants([pair(0, 5.0, 1e6), pair(1, 5.0 + dt, 1e6)])
        assert len(cs) == 2
        assert cs.offload_time == 5.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentSet(offload_time=0.0, task_ids=[], sizes=[])

    def test_grouping_chains_nearby_instants(self):
        groups = group_ready_instants([pair(0, 1.0, 1e6), pair(1, 2.0, 1e6), pair(2, 2.0, 2e6)])
        assert [g.task_ids for g in groups] == [[0], [1, 2]]

    def test_grouping_empty_input(self):
        assert group_ready_instants([]) == []


class TestAllocateBandwidth:
    def test_one_to_three_split(self):
        cs = ConcurrentSet(offload_time=0.0, task_ids=[0, 1], sizes=[1e6, 3e6])
        assert allocate_bandwidth(cs, 20e6) == [5e6, 15e6]

    def test_single_task_gets_everything_exactly(self):
        cs = ConcurrentSet(offload_time=0.0, task_ids=[4], sizes=[123.0])
        assert allocate_bandwidth(cs, 20e6) == [20e6]

    def test_four_equal_sizes(self):
        cs = ConcurrentSet(offload_time=0.0, task_ids=[0, 1, 2, 3], sizes=[2e6] * 4)
        assert allocate_bandwidth(cs, 20e6) == [5e6] * 4

    def test_nonpositive_band_rejected(self):
        cs = ConcurrentSet(offload_time=0.0, task_ids=[0], sizes=[1e6])
        with pytest.raises(ValueError):
            allocate_bandwidth(cs, 0.0)

    @given(
        sizes=st.lists(st.floats(1e3, 1e8, allow_nan=False), min_size=1, max_size=12)
    )
    def test_conservation(self, sizes):
        cs = ConcurrentSet(offload_time=0.0, task_ids=list(range(len(sizes))), sizes=sizes)
        alloc = allocate_bandwidth(cs, 20e6)
        assert math.isclose(sum(alloc), 20e6, rel_tol=1e-9)
        assert all(a > 0 for a in alloc)


class TestRate:
    def test_unit_snr_rate_equals_bandwidth(self):
        assert rate(20e6, ChannelParams()) == 20e6

    def test_snr_three_doubles_rate(self):
        p = ChannelParams(tx_power=3.0)
        assert math.isclose(rate(20e6, p), 40e6)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            rate(0.0, ChannelParams())


class TestCommTime:
    def test_vga_frame_at_40mbps(self):
        assert math.isclose(comm_time(7_372_800, 40e6), 0.18432)

    def test_doubling_rate_halves_time(self):
        assert comm_time(1e6, 40e6) == comm_time(1e6, 20e6) / 2

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            comm_time(0.0, 20e6)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            comm_time(1e6, 0.0)


class TestAttachCommTimes:
    def test_lone_arrivals_use_full_bandwidth(self):
        tasks = [
            make_task(0, arrival=0.0, proc=0.1, remaining=5.0, size=2e6),
            make_task(1, arrival=1.0, proc=0.1, remaining=5.0, size=2e6),
        ]
        events = attach_comm_times(tasks, ChannelParams())
        assert all(math.isclose(t.comm_time, 2e6 / 20e6) for t in tasks)
        assert len(events) == 2

    def test_simultaneous_arrivals_share_proportionally(self):
        tasks = [
            make_task(0, arrival=3.0, proc=0.1, remaining=5.0, size=1e6),
            make_task(1, arrival=3.0, proc=0.1, remaining=5.0, size=3e6),
        ]
        attach_comm_times(tasks, ChannelParams())
        # 1 Mb over 5 MHz and 3 Mb over 15 MHz: both take 0.2 s
        assert math.isclose(tasks[0].comm_time, 0.2)
        assert math.isclose(tasks[1].comm_time, 0.2)

    def test_events_record_allocations(self):
        tasks = [
            make_task(0, arrival=0.0, proc=0.1, remaining=5.0, size=1e6),
            make_task(1, arrival=0.0, proc=0.1, remaining=5.0, size=1e6),
        ]
        events = attach_comm_times(tasks, ChannelParams())
        assert len(events) == 1
        assert math.isclose(sum(events[0].allocations), 20e6, rel_tol=1e-9)

    @given(
        arrivals=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=10)
    )
    def test_conservation_over_random_arrival_patterns(self, arrivals):
        tasks = [
            make_task(i, arrival=a, proc=0.1, remaining=20.0, size=1e6 * (i + 1))
            for i, a in enumerate(sorted(arrivals))
        ]
        events = attach_comm_times(tasks, ChannelParams())
        for ev in events:
            assert math.isclose(sum(ev.allocations), 20e6, rel_tol=1e-9)
            if len(ev.allocations) == 1:
                assert ev.allocations[0] == 20e6
        assert all(t.comm_time is not None and t.comm_time > 0 for t in tasks)
