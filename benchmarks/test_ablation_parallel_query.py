"""Ablation A4: parallel partition reads (paper Section 4, modeled).

"During query processing on historical data, different disk partitions
can be processed in parallel, leading to a lower latency by
overlapping different disk reads."  The accurate response's
per-partition rank searches are independent, so overlapped reads would
leave only the deepest single-partition chain of charged blocks on the
critical path.  This ablation reports, per kappa, the *modeled*
speedup: serial simulated latency (every block read paid in sequence)
over that critical path (``parallel_sim_seconds``), the paper's
1 ms/random-block model.  Probes run inline: no backend here has a
read latency for threads to overlap (EXPERIMENTS.md, A4, records the
measured pool that was removed for running slower than inline).  More
partitions (larger kappa) means more overlap.
"""

from common import (
    accuracy_scale,
    hybrid_engine,
    memory_words,
    show,
)
from conftest import run_once
from repro.evaluation import ExperimentRunner
from repro.workloads import UniformWorkload

KAPPAS = (3, 10, 20)
PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)


def sweep():
    scale = accuracy_scale()
    words = memory_words(250, scale)
    rows = []
    for kappa in KAPPAS:
        engine = hybrid_engine(words, scale, kappa=kappa)
        runner = ExperimentRunner(
            workload=UniformWorkload(seed=55),
            num_steps=scale.steps,
            batch_elems=scale.batch,
            keep_oracle=False,
        )
        result = runner.run({"ours": engine}, phis=PHIS)
        queries = [q.result for q in result["ours"].queries]
        serial = sum(q.sim_seconds for q in queries) / len(queries)
        parallel = sum(q.parallel_sim_seconds for q in queries) / len(queries)
        partitions = engine.store.partition_count()
        modeled_speedup = serial / parallel if parallel else 1.0
        engine.close()
        rows.append([kappa, partitions, serial, parallel, modeled_speedup])
    return rows


def test_ablation_parallel_query(benchmark):
    rows = run_once(benchmark, sweep)
    show(
        "Ablation A4: modeled parallel query speedup "
        "(Uniform, 250 paper-MB)",
        ["kappa", "partitions", "serial s", "parallel s", "modeled x"],
        rows,
    )
    for kappa, partitions, serial, parallel, modeled in rows:
        assert parallel <= serial + 1e-12
        # With more than one partition, overlapped reads must win in
        # the latency model.
        if partitions > 1:
            assert modeled > 1.0
    # Overlapping partition reads buys a substantial modeled latency
    # win somewhere in the sweep (the paper's motivation).  The exact
    # speedup-vs-kappa relationship depends on per-partition chain
    # depths, so no monotonicity is asserted.
    assert max(row[4] for row in rows) >= 2.0
