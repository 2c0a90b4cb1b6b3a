"""Figure 11: windowed queries — feasible sizes and cost vs window.

Paper result (Normal, 100 steps): with kappa = 3 only a handful of
window sizes align with partition boundaries, while kappa = 10 offers
many more choices (fewer merges leave more boundaries intact); query
cost grows with the window size, since wider windows cover more data.
"""

from common import accuracy_scale, hybrid_engine, memory_words, show
from conftest import run_once
from repro.evaluation import ExperimentRunner
from repro.workloads import NormalWorkload


def sweep():
    scale = accuracy_scale()
    words = memory_words(250, scale)
    out = {}
    for kappa in (3, 10):
        engine = hybrid_engine(words, scale, kappa=kappa)
        runner = ExperimentRunner(
            workload=NormalWorkload(seed=42),
            num_steps=scale.steps,
            batch_elems=scale.batch,
            keep_oracle=False,
        )
        runner.run({"ours": engine}, phis=())
        engine.stream_update_many(NormalWorkload(seed=43).generate(scale.batch))
        rows = []
        for window in engine.available_window_sizes():
            result = engine.quantile(0.5, window_steps=window)
            rows.append(
                [
                    window,
                    result.total_size,
                    result.disk_accesses,
                    result.wall_seconds + result.sim_seconds,
                ]
            )
        out[kappa] = rows
    return out


def test_fig11_windows(benchmark):
    out = run_once(benchmark, sweep)
    for kappa, rows in sorted(out.items()):
        show(
            f"Figure 11 (kappa={kappa}): query cost vs window size "
            f"(Normal, {accuracy_scale().steps} steps)",
            ["window steps", "window N", "disk accesses", "query s"],
            rows,
        )
    windows3 = [row[0] for row in out[3]]
    windows10 = [row[0] for row in out[10]]
    # kappa = 10 offers at least as many window choices as kappa = 3.
    assert len(windows10) >= len(windows3)
    # Full history is always available; sizes strictly increase.
    for windows in (windows3, windows10):
        assert windows[-1] == accuracy_scale().steps
        assert windows == sorted(windows)
    # Wider windows cover more data.
    for rows in out.values():
        sizes = [row[1] for row in rows]
        assert sizes == sorted(sizes)
