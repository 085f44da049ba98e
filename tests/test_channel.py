import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.channel import (
    EPS_SIMULTANEOUS,
    allocate_bandwidth,
    attach_comm_times,
    comm_time,
    rate,
)
from vecoff.domain import ChannelParams

from conftest import make_task


def groups(arrivals, sizes=None):
    """(time, task ids) of each sharing group for tasks arriving at ``arrivals``."""
    sizes = sizes or [1e6] * len(arrivals)
    tasks = [
        make_task(i, arrival=a, proc=0.1, remaining=20.0, size=s)
        for i, (a, s) in enumerate(zip(arrivals, sizes))
    ]
    return [(ev.time, ev.task_ids) for ev in attach_comm_times(tasks, ChannelParams())]


class TestConcurrentSets:
    """Arrivals that share the uplink, read from attach_comm_times's events."""

    def test_three_ready_at_same_instant(self):
        found = groups([5.0, 5.0, 5.0, 6.0], sizes=[1e6, 2e6, 3e6, 1e6])
        assert found == [(5.0, [0, 1, 2]), (6.0, [3])]

    def test_single_ready_task(self):
        assert groups([5.0, 6.0]) == [(5.0, [0]), (6.0, [1])]

    def test_within_tolerance_is_same_set(self):
        assert groups([5.0, 5.0 + EPS_SIMULTANEOUS / 2]) == [(5.0, [0, 1])]

    def test_grouping_chains_nearby_instants(self):
        assert [ids for _, ids in groups([1.0, 2.0, 2.0])] == [[0], [1, 2]]
        step = EPS_SIMULTANEOUS * 0.75
        assert groups([5.0, 5.0 + step, 5.0 + 2 * step]) == [(5.0, [0, 1, 2])]

    def test_lone_arrival_is_its_own_group(self):
        assert groups([3.0]) == [(3.0, [0])]

    def test_grouping_empty_input(self):
        assert groups([]) == []


class TestAllocateBandwidth:
    def test_one_to_three_split(self):
        assert allocate_bandwidth([1e6, 3e6], 20e6) == [5e6, 15e6]

    def test_single_task_gets_everything_exactly(self):
        assert allocate_bandwidth([123.0], 20e6) == [20e6]

    def test_four_equal_sizes(self):
        assert allocate_bandwidth([2e6] * 4, 20e6) == [5e6] * 4

    def test_nonpositive_band_rejected(self):
        with pytest.raises(ValueError):
            allocate_bandwidth([1e6], 0.0)

    @given(
        sizes=st.lists(st.floats(1e3, 1e8, allow_nan=False), min_size=1, max_size=12)
    )
    def test_conservation(self, sizes):
        alloc = allocate_bandwidth(sizes, 20e6)
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
