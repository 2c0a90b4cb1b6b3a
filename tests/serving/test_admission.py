"""Admission control: bounded queues, typed rejection, degradation."""

from __future__ import annotations

import pytest

from repro.core import ServingConfig
from repro.serving import AdmissionController, Overloaded


def controller(**kwargs) -> AdmissionController:
    return AdmissionController(ServingConfig(**kwargs))


class TestOverloaded:
    def test_carries_typed_fields(self):
        error = Overloaded("accurate", queue_depth=7, bound=4)
        assert isinstance(error, RuntimeError)
        assert error.mode == "accurate"
        assert error.queue_depth == 7
        assert error.bound == 4
        assert "7/4" in str(error)


class TestAdmissionController:
    def test_quick_bound_enforced(self):
        ctrl = controller(max_queue=2)
        assert ctrl.admit("quick") == "quick"
        assert ctrl.admit("quick") == "quick"
        with pytest.raises(Overloaded) as info:
            ctrl.admit("quick")
        assert info.value.mode == "quick"
        assert info.value.bound == 2
        assert ctrl.rejections() == {"quick": 1, "accurate": 0}

    def test_release_frees_slot(self):
        ctrl = controller(max_queue=1)
        ctrl.admit("quick")
        with pytest.raises(Overloaded):
            ctrl.admit("quick")
        ctrl.release("quick")
        assert ctrl.admit("quick") == "quick"
        assert ctrl.queue_depth == 1

    def test_accurate_queue_is_separately_bounded(self):
        ctrl = controller(max_queue=8, accurate_queue=1)
        assert ctrl.admit("accurate") == "accurate"
        with pytest.raises(Overloaded) as info:
            ctrl.admit("accurate")
        assert info.value.mode == "accurate"
        assert info.value.bound == 1
        # Quick admissions are untouched by the accurate bound.
        assert ctrl.admit("quick") == "quick"

    def test_quick_load_counts_against_shared_bound(self):
        ctrl = controller(max_queue=2)
        ctrl.admit("quick")
        ctrl.admit("accurate")
        with pytest.raises(Overloaded):
            ctrl.admit("accurate")

    def test_degrade_on_overload_downgrades_accurate(self):
        ctrl = controller(
            max_queue=8, accurate_queue=1, degrade_on_overload=True
        )
        assert ctrl.admit("accurate") == "accurate"
        # The accurate queue is full but the total has room: degrade.
        assert ctrl.admit("accurate") == "quick"
        assert ctrl.degraded_admissions == 1
        assert ctrl.waiting("quick") == 1

    def test_degrade_still_rejects_when_everything_is_full(self):
        ctrl = controller(
            max_queue=2, accurate_queue=1, degrade_on_overload=True
        )
        ctrl.admit("accurate")
        ctrl.admit("quick")
        with pytest.raises(Overloaded) as info:
            ctrl.admit("accurate")
        assert info.value.bound == 2
        assert ctrl.rejections()["accurate"] == 1

    def test_waiting_per_mode(self):
        ctrl = controller(max_queue=8, accurate_queue=4)
        ctrl.admit("quick")
        ctrl.admit("quick")
        ctrl.admit("accurate")
        assert ctrl.waiting("quick") == 2
        assert ctrl.waiting("accurate") == 1
        assert ctrl.queue_depth == 3


class TestServingConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServingConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServingConfig(coalesce_window_ms=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(accurate_queue=0)

    def test_accurate_queue_defaults_to_max_queue(self):
        config = ServingConfig(max_queue=16)
        assert config.accurate_queue_bound == 16
        split = ServingConfig(max_queue=16, accurate_queue=4)
        assert split.accurate_queue_bound == 4
