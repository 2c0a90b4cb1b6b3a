"""Admission control: bounded queues, typed rejection, degradation."""

from __future__ import annotations

import pytest

from repro.core import ServingConfig
from repro.serving import Overloaded
from repro.serving.admission import admit


def refused(config, mode, quick, accurate):
    """The ``(mode, queue_depth, bound)`` an admission refusal carries."""
    with pytest.raises(Overloaded) as info:
        admit(config, mode, quick, accurate)
    return info.value.mode, info.value.queue_depth, info.value.bound


class TestOverloaded:
    def test_carries_typed_fields(self):
        error = Overloaded("accurate", queue_depth=7, bound=4)
        assert isinstance(error, RuntimeError)
        assert error.mode == "accurate"
        assert error.queue_depth == 7
        assert error.bound == 4
        assert "7/4" in str(error)


class TestAdmissionController:
    """``admit(config, mode, quick, accurate)`` over queue lengths."""

    def test_quick_bound_enforced(self):
        config = ServingConfig(max_queue=2)
        assert admit(config, "quick", 0, 0) == "quick"
        assert admit(config, "quick", 1, 0) == "quick"
        assert refused(config, "quick", 2, 0) == ("quick", 2, 2)

    def test_accurate_queue_is_separately_bounded(self):
        config = ServingConfig(max_queue=8, accurate_queue=1)
        assert admit(config, "accurate", 0, 0) == "accurate"
        assert refused(config, "accurate", 0, 1) == ("accurate", 1, 1)
        # Quick admissions are untouched by the accurate bound.
        assert admit(config, "quick", 0, 1) == "quick"

    def test_quick_load_counts_against_shared_bound(self):
        config = ServingConfig(max_queue=2)
        assert admit(config, "accurate", 1, 0) == "accurate"
        assert refused(config, "accurate", 1, 1) == ("accurate", 1, 2)
        # Refused on the total bound alone, an accurate request reports
        # its own queue's depth and bound.
        split = ServingConfig(max_queue=2, accurate_queue=1)
        assert refused(split, "accurate", 2, 0) == ("accurate", 0, 1)

    def test_degrade_on_overload_downgrades_accurate(self):
        config = ServingConfig(
            max_queue=8, accurate_queue=1, degrade_on_overload=True
        )
        assert admit(config, "accurate", 0, 0) == "accurate"
        # The accurate queue is full but the total has room: degrade.
        assert admit(config, "accurate", 0, 1) == "quick"

    def test_degrade_still_rejects_when_everything_is_full(self):
        config = ServingConfig(
            max_queue=2, accurate_queue=1, degrade_on_overload=True
        )
        assert refused(config, "accurate", 1, 1) == ("accurate", 2, 2)
        assert refused(config, "quick", 1, 1) == ("quick", 2, 2)


class TestServingConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServingConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServingConfig(accurate_queue=0)

    def test_accurate_queue_defaults_to_max_queue(self):
        config = ServingConfig(max_queue=16)
        assert config.accurate_queue_bound == 16
        split = ServingConfig(max_queue=16, accurate_queue=4)
        assert split.accurate_queue_bound == 4
