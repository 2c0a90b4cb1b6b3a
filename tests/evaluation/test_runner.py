"""Integration tests for the experiment runner."""

import math

from repro import HybridQuantileEngine, PureStreamingEngine
from repro.evaluation import ExperimentRunner
from repro.workloads import UniformWorkload


def small_runner(steps=4, batch=1200):
    return ExperimentRunner(
        workload=UniformWorkload(seed=3),
        num_steps=steps,
        batch_elems=batch,
    )


class TestExperimentRunner:
    def test_runs_multiple_engines(self):
        runner = small_runner()
        result = runner.run(
            {
                "ours": HybridQuantileEngine(
                    epsilon=0.02, kappa=3, block_elems=16
                ),
                "gk": PureStreamingEngine(kind="gk", epsilon=0.02),
            },
            phis=(0.25, 0.5, 0.75),
        )
        assert set(result.runs) == {"ours", "gk"}
        assert len(result["ours"].step_reports) == 4
        assert len(result["ours"].queries) == 3

    def test_engines_see_identical_data(self):
        runner = small_runner()
        a = HybridQuantileEngine(epsilon=0.02, kappa=3, block_elems=16)
        b = HybridQuantileEngine(epsilon=0.02, kappa=3, block_elems=16)
        result = runner.run({"a": a, "b": b}, phis=(0.5,))
        assert a.n_total == b.n_total
        assert result["a"].queries[0].result.value == (
            result["b"].queries[0].result.value
        )

    def test_oracle_covers_everything(self):
        runner = small_runner(steps=3, batch=500)
        runner.run(
            {"ours": HybridQuantileEngine(epsilon=0.05, kappa=3,
                                          block_elems=16)},
            phis=(0.5,),
        )
        assert runner.oracle.n == 4 * 500  # 3 steps + live stream

    def test_hybrid_beats_streaming_on_accuracy(self):
        """The paper's headline claim at small scale."""
        runner = ExperimentRunner(
            workload=UniformWorkload(seed=11),
            num_steps=8,
            batch_elems=4000,
        )
        result = runner.run(
            {
                "ours": HybridQuantileEngine(
                    epsilon=0.01, kappa=3, block_elems=16
                ),
                "gk": PureStreamingEngine(kind="gk", epsilon=0.01),
            },
            phis=(0.25, 0.5, 0.75),
        )
        ours, gk = (
            sum(q.relative_error for q in result[name].queries)
            / len(result[name].queries)
            for name in ("ours", "gk")
        )
        assert ours <= gk

    def test_engine_run_aggregates(self):
        runner = small_runner()
        result = runner.run(
            {"ours": HybridQuantileEngine(epsilon=0.05, kappa=3,
                                          block_elems=16)},
            phis=(0.5, 0.9),
        )
        run = result["ours"]
        assert run.mean_update_io > 0
        assert not math.isnan(run.median_relative_error)
        worst = max(q.relative_error for q in run.queries)
        assert worst >= run.median_relative_error
        assert len(run.update_io_per_step()) == 4
        breakdown = run.mean_update_seconds()
        assert set(breakdown) >= {"load", "sort", "merge", "summary"}

    def test_custom_query_modes(self):
        runner = small_runner(steps=2, batch=500)
        result = runner.run(
            {
                "quick": HybridQuantileEngine(
                    epsilon=0.05, kappa=3, block_elems=16
                ),
            },
            phis=(0.5,),
            query_modes={"quick": "quick"},
        )
        assert result["quick"].queries[0].result.mode == "quick"
        assert result["quick"].queries[0].result.disk_accesses == 0
