"""Tests for EngineConfig parameter derivation (Algorithm 1)."""

import pytest

from repro.core import EngineConfig


class TestEngineConfig:
    def test_algorithm1_derivation(self):
        config = EngineConfig(epsilon=0.5)
        assert config.epsilon1 == pytest.approx(0.25)
        assert config.epsilon2 == pytest.approx(0.125)
        assert config.beta1 == 5   # ceil(1/0.25) + 1
        assert config.beta2 == 9   # ceil(1/0.125) + 1

    def test_small_epsilon(self):
        config = EngineConfig(epsilon=0.001)
        assert config.beta1 == 2001
        assert config.beta2 == 4001

    def test_overridden_split(self):
        config = EngineConfig(epsilon=0.1, eps1=0.2, eps2=0.01)
        assert config.epsilon1 == 0.2
        assert config.epsilon2 == 0.01
        assert config.query_epsilon == pytest.approx(0.04)

    def test_query_epsilon_default(self):
        assert EngineConfig(epsilon=0.2).query_epsilon == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            EngineConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.1, kappa=1)
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.1, block_elems=0)
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.1, eps1=0.0)
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.1, eps2=2.0)

    def test_probe_budget_is_none_or_non_negative(self):
        with pytest.raises(ValueError, match="probe_budget"):
            EngineConfig(epsilon=0.1, probe_budget=-3)
        assert EngineConfig(epsilon=0.1, probe_budget=0).probe_budget == 0
        assert EngineConfig(epsilon=0.1).probe_budget is None

    def test_frozen(self):
        config = EngineConfig(epsilon=0.1)
        with pytest.raises(AttributeError):
            config.epsilon = 0.2
