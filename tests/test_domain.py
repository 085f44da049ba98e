import dataclasses
import math

import numpy as np
import pytest

from vecoff.config import config_from_dict, section_to_dict
from vecoff.domain import (
    ChannelParams,
    ConfigError,
    LifecycleError,
    MecState,
    SimConfig,
    Task,
    TaskStatus,
)
from vecoff.engine import assign

from conftest import make_task


class TestSimConfig:
    def test_defaults_accepted(self):
        cfg = SimConfig()
        assert cfg.num_mecs == 2
        assert cfg.lambda_weight == 0.4

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(lambda_weight=1.3)
        assert "lambda" in str(err.value)
        assert "[0, 1]" in str(err.value)

    def test_zero_servers(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(num_mecs=0)
        assert "num_mecs" in str(err.value)

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(num_mecs=0, lambda_weight=-3.0, window_cap=0)
        assert len(err.value.violations) == 3

    def test_numpy_scalars_count_as_int_and_float(self):
        cfg = SimConfig(num_mecs=np.int64(3), lambda_weight=np.float64(0.5))
        assert cfg.num_mecs == 3

    @pytest.mark.parametrize("kwargs, fault", [
        ({"num_mecs": True}, "num_mecs must be an integer, got True"),
        ({"lambda_weight": False}, "lambda must be a number, got False"),
        ({"window_cap": 2.0}, "window_cap must be an integer, got 2.0"),
        ({"lambda_weight": math.nan}, "lambda must be a number, got nan"),
        ({"charge_exec_time": 1}, "charge_exec_time must be true or false, got 1"),
    ], ids=["bool-int", "bool-float", "float-int", "nan", "int-bool"])
    def test_wrong_type_is_named(self, kwargs, fault):
        with pytest.raises(ConfigError) as err:
            SimConfig(**kwargs)
        assert err.value.violations == [fault]

    def test_round_trip(self):
        cfg = SimConfig(num_mecs=3, lambda_weight=0.7, charge_exec_time=False)
        assert config_from_dict({"sim": section_to_dict(cfg)}).sim == cfg

    def test_lambda_serializes_under_short_key(self):
        d = section_to_dict(SimConfig())
        assert d["lambda"] == 0.4
        assert "lambda_weight" not in d


class TestTask:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            make_task(0, arrival=0.0, proc=0.1, remaining=1.0, size=0.0)

    def test_rejects_nonpositive_proc(self):
        with pytest.raises(ValueError, match="proc_time"):
            make_task(0, arrival=0.0, proc=0.0, remaining=1.0)

    def test_lifecycle_happy_path(self):
        t = make_task(0, arrival=0.0, proc=0.1, remaining=1.0)
        t.transition(TaskStatus.COMPLETED)
        assert t.status is TaskStatus.COMPLETED
        with pytest.raises(LifecycleError):
            t.transition(TaskStatus.DROPPED)

    def test_terminal_states_are_final(self):
        t = make_task(0, arrival=0.0, proc=0.1, remaining=1.0)
        t.transition(TaskStatus.DROPPED)
        with pytest.raises(LifecycleError):
            t.transition(TaskStatus.COMPLETED)

    def test_copy_is_independent(self):
        t = make_task(0, arrival=0.0, proc=0.1, remaining=1.0)
        c = t.copy()
        c.transition(TaskStatus.COMPLETED)
        assert t.status is TaskStatus.PENDING

        # a completed task sets every field, each to a distinct value
        done = make_task(1, arrival=0.5, proc=0.1, remaining=1.0, vehicle=7, comm=0.01)
        assign(done, MecState(id=2, available_at=0.8))
        names = [f.name for f in dataclasses.fields(Task)]
        copied = done.copy()
        assert len(names) == 10
        assert [getattr(copied, n) for n in names] == [getattr(done, n) for n in names]
        copied.assigned_mec, copied.start_proc = 1, 0.5
        assert (done.assigned_mec, done.start_proc) == (2, 0.8)


class TestMecState:
    def test_add_busy_advances_availability(self):
        m = MecState(id=1)
        m.add_busy(1.0, 4.0)
        assert m.available_at == 4.0

    def test_rejects_overlap(self):
        m = MecState(id=1)
        m.add_busy(0.0, 2.0)
        with pytest.raises(ValueError, match="overlaps"):
            m.add_busy(1.5, 3.0)

    def test_rejects_empty_interval(self):
        m = MecState(id=1)
        with pytest.raises(ValueError, match="empty"):
            m.add_busy(2.0, 2.0)


class TestChannelParams:
    def test_defaults_give_unit_snr(self):
        p = ChannelParams()
        assert p.bandwidth_max == 20e6
        assert p.snr == 1.0

    def test_round_trip(self):
        p = ChannelParams(bandwidth_max=10e6, tx_power=2.0)
        assert config_from_dict({"channel": section_to_dict(p)}).channel == p

    def test_snr_composition(self):
        p = ChannelParams(tx_power=3.0, channel_gain=2.0, noise_density=1.5)
        assert math.isclose(p.snr, 4.0)
