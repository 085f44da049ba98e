import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecoff.domain import ConfigError, MecState
from vecoff.engine import DecisionWindow
from vecoff.rl.encoding import EncoderSpec, encode_state
from vecoff.rl.policy import masked_argmax, masked_softmax
from vecoff.rl.reward import decision_reward

from conftest import make_task


def window_at(tasks, t_e_av=0.0):
    return DecisionWindow(
        index=1, queued=list(tasks), feasible=list(tasks), earliest_avail=t_e_av
    )


def gap_window(gaps, t_e_av=0.0, procs=None):
    """Feasible tasks whose deadline gaps against t_e_av are ``gaps``."""
    procs = procs or [1.0] * len(gaps)
    tasks = [
        make_task(i, arrival=t_e_av, proc=procs[i], remaining=g, comm=0.01)
        for i, g in enumerate(gaps)
    ]
    return window_at(tasks, t_e_av)


class TestEncoderSpec:
    def test_dimensions(self):
        enc = EncoderSpec(num_mecs=2, window_cap=8)
        assert enc.state_dim == 2 + 4 * 8
        assert enc.action_dim == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            EncoderSpec(num_mecs=0)
        with pytest.raises(ConfigError):
            EncoderSpec(window_cap=0)
        with pytest.raises(ConfigError):
            EncoderSpec(time_scale=-1.0)


class TestEncodeState:
    def enc(self):
        return EncoderSpec(num_mecs=2, window_cap=8, time_scale=10.0, proc_scale=1.0)

    def test_single_task_layout_and_mask(self):
        mecs = [MecState(id=1, available_at=12.0), MecState(id=2, available_at=15.0)]
        t = make_task(0, arrival=11.0, proc=0.4, remaining=9.0, comm=0.1)
        state, mask = encode_state(mecs, window_at([t], 12.0), now=12.0, enc=self.enc())
        assert state[:2].tolist() == [0.0, 0.3]
        assert state[2:5].tolist() == [-0.1, (20.0 - 12.0) / 10.0, 0.4]
        assert state[5:26].tolist() == [0.0] * 21
        assert state[26:].tolist() == [1.0] + [0.0] * 7
        assert mask.tolist() == [True] + [False] * 7

    def test_vector_layout(self):
        tasks = [
            make_task(i, arrival=0.5 * i, proc=0.4 + i, remaining=9.0, comm=0.1)
            for i in range(3)
        ]
        mecs = [MecState(id=1, available_at=2.0), MecState(id=2, available_at=4.0)]
        vec, mask = encode_state(mecs, window_at(tasks), now=1.0, enc=self.enc())
        assert vec.shape == (self.enc().state_dim,) and vec.dtype == np.float64
        assert vec[:2].tolist() == [0.1, 0.3]
        slots = vec[2:26].reshape(8, 3)
        assert slots[:3].tolist() == [
            [(0.5 * i - 1.0) / 10.0, (0.5 * i + 9.0 - 1.0) / 10.0, 0.4 + i]
            for i in range(3)
        ]
        assert not slots[3:].any()
        assert vec[26:].tolist() == [1.0] * 3 + [0.0] * 5
        assert mask.tolist() == [True] * 3 + [False] * 5

    def test_overflowing_window_is_truncated(self):
        mecs = [MecState(id=1), MecState(id=2)]
        tasks = [
            make_task(i, arrival=0.1 * i, proc=0.2, remaining=30.0, comm=0.1)
            for i in range(10)
        ]
        state, mask = encode_state(mecs, window_at(tasks), now=1.0, enc=self.enc())
        assert mask.sum() == 8
        assert state[26:].sum() == 8.0

    def test_purity(self):
        mecs = [MecState(id=1, available_at=3.0), MecState(id=2)]
        t = make_task(0, arrival=0.0, proc=0.4, remaining=9.0, comm=0.1)
        w = window_at([t], 0.0)
        before = (t.to_dict(), [dataclasses.asdict(m) for m in mecs])
        encode_state(mecs, w, now=3.0, enc=self.enc())
        assert (t.to_dict(), [dataclasses.asdict(m) for m in mecs]) == before

    def test_wrong_server_count_rejected(self):
        t = make_task(0, arrival=0.0, proc=0.4, remaining=9.0, comm=0.1)
        with pytest.raises(ValueError, match="servers"):
            encode_state([MecState(id=1)], window_at([t]), now=0.0, enc=self.enc())

    def test_empty_window_rejected(self):
        mecs = [MecState(id=1), MecState(id=2)]
        with pytest.raises(ValueError):
            encode_state(mecs, window_at([]), now=0.0, enc=self.enc())


class TestDecisionReward:
    def test_tightest_gap_earns_eighty(self):
        w = gap_window([2.0, 3.0, 5.0])
        r = decision_reward(w, 0)
        assert math.isclose(r.r_drop, 80.0)
        # all procs equal 1: P=3, chosen proc 1 -> (100/3)*(3-1)
        assert math.isclose(r.r_latency, 200.0 / 3.0)

    def test_loosest_gap_earns_nothing(self):
        w = gap_window([2.0, 3.0, 5.0])
        assert math.isclose(decision_reward(w, 2).r_drop, 50.0)
        w2 = gap_window([2.0, 8.0])
        assert math.isclose(decision_reward(w2, 1).r_drop, 20.0)

    def test_smallest_proc_earns_eighty(self):
        w = gap_window([5.0, 5.0, 5.0], procs=[1.0, 2.0, 2.0])
        r = decision_reward(w, 0)
        assert math.isclose(r.r_latency, 80.0)

    def test_total_is_the_sum_of_both_terms(self):
        w = gap_window([2.0, 3.0, 5.0], procs=[1.0, 2.0, 2.0])
        r = decision_reward(w, 0)
        assert r.r_total == r.r_drop + r.r_latency
        assert math.isclose(r.r_total, 160.0)

    def test_single_member_window_scores_zero(self):
        w = gap_window([4.0])
        r = decision_reward(w, 0)
        assert r.r_drop == 0.0
        assert r.r_latency == 0.0
        assert r.r_total == 0.0

    def test_degenerate_gap_total_scores_zero(self):
        # both deadlines behind the availability: G <= 0
        tasks = gap_window([3.0, 1.0]).feasible
        r = decision_reward(window_at(tasks, 5.0), 0)
        assert r.gap_total < 0
        assert r.r_total == 0.0

    def test_gaps_summing_to_zero_score_zero(self):
        # gaps +2 and -2 against the availability: G == 0 exactly
        tasks = gap_window([3.0, 7.0]).feasible
        r = decision_reward(window_at(tasks, 5.0), 0)
        assert r.gaps == [-2.0, 2.0]
        assert r.gap_total == 0.0
        assert r.r_total == 0.0

    def test_bad_choice_rejected(self):
        w = gap_window([2.0, 3.0])
        with pytest.raises(ValueError):
            decision_reward(w, 2)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            decision_reward(window_at([]), 0)

    @given(
        gaps=st.lists(st.floats(0.1, 50.0, allow_nan=False), min_size=2, max_size=10),
        procs=st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=10, max_size=10),
    )
    def test_reward_properties(self, gaps, procs):
        n = len(gaps)
        w = gap_window(gaps, procs=procs[:n])
        rewards = [decision_reward(w, i) for i in range(n)]

        # picking the minimum gap maximizes the drop term, minimum proc the
        # latency term
        best_drop = max(r.r_drop for r in rewards)
        assert math.isclose(
            rewards[gaps.index(min(gaps))].r_drop, best_drop, rel_tol=1e-12
        )
        best_lat = max(r.r_latency for r in rewards)
        assert math.isclose(
            rewards[procs[:n].index(min(procs[:n]))].r_latency, best_lat, rel_tol=1e-12
        )

        # normalization: the drop terms over all choices sum to 100(n-1)
        assert math.isclose(sum(r.r_drop for r in rewards), 100.0 * (n - 1), rel_tol=1e-9)
        assert math.isclose(sum(r.r_latency for r in rewards), 100.0 * (n - 1), rel_tol=1e-9)

        for r in rewards:
            assert 0.0 <= r.r_drop < 100.0 + 1e-9
            assert 0.0 <= r.r_latency < 100.0 + 1e-9
            assert r.r_total == r.r_drop + r.r_latency

    @given(
        gaps=st.lists(st.floats(0.1, 50.0, allow_nan=False), min_size=2, max_size=8),
        scale=st.floats(0.01, 100.0, allow_nan=False),
        chosen=st.integers(0, 7),
    )
    def test_gap_scaling_invariance(self, gaps, scale, chosen):
        chosen = chosen % len(gaps)
        base = decision_reward(gap_window(gaps), chosen)
        scaled = decision_reward(gap_window([g * scale for g in gaps]), chosen)
        assert math.isclose(base.r_drop, scaled.r_drop, rel_tol=1e-9, abs_tol=1e-9)

    @given(
        procs=st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=2, max_size=8),
        scale=st.floats(0.01, 100.0, allow_nan=False),
        chosen=st.integers(0, 7),
    )
    def test_proc_scaling_invariance(self, procs, scale, chosen):
        chosen = chosen % len(procs)
        gaps = [10.0] * len(procs)
        base = decision_reward(gap_window(gaps, procs=procs), chosen)
        scaled = decision_reward(
            gap_window(gaps, procs=[p * scale for p in procs]), chosen
        )
        assert math.isclose(base.r_latency, scaled.r_latency, rel_tol=1e-9, abs_tol=1e-9)


class TestMaskedSelection:
    def test_argmax_takes_best_valid(self):
        v = np.array([5.0, 9.0, 1.0])
        assert masked_argmax(v, np.array([True, True, True])) == 1

    def test_argmax_respects_mask(self):
        v = np.array([5.0, 9.0, 1.0])
        assert masked_argmax(v, np.array([True, False, True])) == 0
        assert masked_argmax(v, np.array([False, False, True])) == 2

    def test_argmax_tie_takes_first(self):
        v = np.array([3.0, 3.0, 3.0])
        assert masked_argmax(v, np.array([False, True, True])) == 1

    def test_argmax_shift_invariance(self):
        v = np.array([5.0, 9.0, 1.0])
        mask = np.array([True, True, True])
        assert masked_argmax(v, mask) == masked_argmax(v + 1000.0, mask)

    def test_argmax_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_argmax(np.array([1.0]), np.array([False]))

    def test_softmax_zeroes_masked_entries(self):
        p = masked_softmax(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
        assert p[1] == 0.0
        assert math.isclose(p.sum(), 1.0)
        assert p[2] > p[0]

    def test_softmax_handles_extreme_logits(self):
        p = masked_softmax(np.array([1000.0, 999.0]), np.array([True, True]))
        assert math.isclose(p.sum(), 1.0)
        assert not np.isnan(p).any()

    def test_softmax_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax(np.array([1.0]), np.array([False]))
