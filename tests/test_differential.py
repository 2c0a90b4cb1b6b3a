"""Differential testing: the engine versus the exact oracle.

Hypothesis drives randomized *scenarios* — interleaved batches,
mid-step queries, window queries, skewed and duplicate-heavy value
distributions — and every answer is checked against the oracle within
the engine's guarantee.  This is the widest net in the suite: any
interaction bug between the sketch, the summaries, the bounds, and the
search shows up as a guarantee violation here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExactQuantiles, HybridQuantileEngine

# Randomized whole-scenario replays: benchmark-adjacent, skippable in
# a quick pass via -m "not slow".
pytestmark = pytest.mark.slow


def interval_error(oracle, value, target):
    high = oracle.rank(value)
    low = oracle.rank_strict(value) + 1
    return max(0, low - target, target - high)


def distribution(rng, kind, size):
    if kind == "uniform":
        return rng.integers(0, 10**6, size)
    if kind == "normal":
        return np.maximum(
            rng.normal(5e5, 5e4, size).astype(np.int64), 0
        )
    if kind == "zipf":
        return np.minimum(rng.zipf(1.4, size), 10**6).astype(np.int64)
    if kind == "few_values":
        return rng.integers(0, 8, size)
    if kind == "sorted":
        return np.sort(rng.integers(0, 10**6, size))
    raise AssertionError(kind)


scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**6),
        "kind": st.sampled_from(
            ["uniform", "normal", "zipf", "few_values", "sorted"]
        ),
        "steps": st.integers(0, 6),
        # Down to 1: a batch shorter than 1/eps1 = 20 seals a partition
        # whose summary stores every element (the tiny-partition regime).
        "batch": st.integers(1, 800),
        "live": st.integers(1, 800),
        "kappa": st.sampled_from([2, 3, 5]),
        "phi": st.floats(0.01, 1.0),
        "mid_step_query": st.booleans(),
    }
)


class TestDifferential:
    @given(config=scenario)
    @settings(max_examples=40, deadline=None)
    def test_accurate_matches_oracle(self, config):
        epsilon = 0.1
        rng = np.random.default_rng(config["seed"])
        engine = HybridQuantileEngine(
            epsilon=epsilon, kappa=config["kappa"], block_elems=8
        )
        oracle = ExactQuantiles()
        for _ in range(config["steps"]):
            data = distribution(rng, config["kind"], config["batch"])
            engine.stream_update_many(data)
            oracle.update_many(data)
            if config["mid_step_query"]:
                result = engine.quantile(config["phi"])
                err = interval_error(oracle, result.value, result.target_rank)
                assert err <= 1.5 * epsilon * engine.m_stream + 2
            engine.end_time_step()
        live = distribution(rng, config["kind"], config["live"])
        engine.stream_update_many(live)
        oracle.update_many(live)

        # Each mode against the bound its own result reports.
        result = engine.quantile(config["phi"])
        err = interval_error(oracle, result.value, result.target_rank)
        assert err <= result.rank_error_bound + 2

        # Algorithm 5 returns the first TS element with L_j >= r: L_j
        # may sit one summary step above r and the element's own rank
        # U_j - L_j above L_j, each at most the a priori width the
        # result reports.
        quick = engine.quantile(config["phi"], mode="quick")
        err = interval_error(oracle, quick.value, quick.target_rank)
        assert err <= 2 * quick.rank_error_bound + 2

        engine.check_invariants()

    @given(config=scenario)
    @settings(max_examples=15, deadline=None)
    def test_window_queries_match_scoped_oracle(self, config):
        epsilon = 0.1
        rng = np.random.default_rng(config["seed"])
        engine = HybridQuantileEngine(
            epsilon=epsilon, kappa=config["kappa"], block_elems=8
        )
        step_batches = []
        for _ in range(config["steps"]):
            data = distribution(rng, config["kind"], config["batch"])
            step_batches.append(data)
            engine.stream_update_many(data)
            engine.end_time_step()
        live = distribution(rng, config["kind"], config["live"])
        engine.stream_update_many(live)

        for window in engine.available_window_sizes():
            oracle = ExactQuantiles()
            for data in step_batches[len(step_batches) - window:]:
                oracle.update_many(data)
            oracle.update_many(live)
            result = engine.quantile(config["phi"], window_steps=window)
            assert result.total_size == oracle.n
            err = interval_error(oracle, result.value, result.target_rank)
            assert err <= 1.5 * epsilon * engine.m_stream + 2
