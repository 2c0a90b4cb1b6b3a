"""Ablation A7: background ingest — overlap archiving with the stream.

The synchronous path stalls the stream for every step's full archive
latency (sort + level merges + summary construction).  With
``ingest_mode="background"`` the engine seals the batch, resets the
live sketch and hands the archive work to the ``repro.ingest`` thread;
the stream only ever waits on backpressure.  This ablation drives the
same interleaved ingest+query workload through both modes and reports

* per-step stream stall (the number a latency SLO cares about),
* archive latency (the same work, now off the hot path),
* end-to-end wall time of the whole run,

and writes the table to ``BENCH_ingest.json`` next to this file.  On a
multi-core host the background mode's total stall must come in strictly
below the sync mode's archive time (the overlap is real, not just
deferred accounting); answers after ``flush()`` must be identical in
both modes — the equivalence the unit suite verifies exhaustively at
small scale, re-checked here at benchmark scale.
"""

import os
import time


from common import accuracy_scale, bench_path, hybrid_engine, show, write_bench
from conftest import run_once
from repro.workloads import NormalWorkload

PHIS = (0.25, 0.5, 0.75, 0.95)
KAPPA = 10
QUERIES_PER_STEP = 2
RESULT_FILE = bench_path("ingest")


def drive(mode):
    """One interleaved ingest+query run; returns metrics + answers."""
    scale = accuracy_scale()
    engine = hybrid_engine(
        max(64, scale.batch // 10), scale, kappa=KAPPA, ingest_mode=mode
    )
    workload = NormalWorkload(seed=909)
    stall = 0.0
    archive_wall = 0.0
    mid_run_answers = []
    started = time.perf_counter()
    for step in range(scale.steps):
        engine.stream_update_many(workload.generate(scale.batch))
        report = engine.end_time_step()
        stall += report.stall_seconds
        if report.archived:
            archive_wall += report.archive_wall_seconds
        # interleaved queries: the background archiver keeps working
        # underneath these
        if step % (scale.steps // (QUERIES_PER_STEP * 4) or 1) == 0:
            for phi in PHIS[:QUERIES_PER_STEP]:
                mid_run_answers.append(engine.quantile(phi).value)
    flushed = engine.flush()
    end_to_end = time.perf_counter() - started
    stats = engine.ingest_stats
    if stats is not None:
        archive_wall = stats.archive_wall_seconds
        # flush-time waiting is stream stall too: the producer blocked
        # on the archiver catching up
        stall = stats.stall_seconds
    final_answers = [engine.quantile(phi).value for phi in PHIS]
    layout = [
        (p.level, p.start_step, p.end_step, len(p))
        for p in engine.store.partitions()
    ]
    engine.check_invariants()
    io_total = engine.disk.stats.counters.total
    io_archive = sum(
        getattr(engine.disk.stats, bucket).total
        for bucket in ("load", "sort", "merge")
    )
    queue_depth = stats.max_queue_depth if stats is not None else 0
    engine.close()
    return {
        "mode": mode,
        "stall_seconds": stall,
        "archive_wall_seconds": archive_wall,
        "end_to_end_seconds": end_to_end,
        "max_queue_depth": queue_depth,
        "steps": scale.steps,
        "io_total": io_total,
        "io_archive": io_archive,
        "flushed_reports": len(flushed),
        "mid_run_answers": mid_run_answers,
        "final_answers": final_answers,
        "layout": layout,
    }


def sweep():
    return [drive("sync"), drive("background")]


def test_ablation_ingest(benchmark):
    rows = run_once(benchmark, sweep)
    sync, background = rows
    show(
        "Ablation A7: sync vs background ingest (Normal, interleaved "
        "queries)",
        [
            "mode", "stall s", "archive s", "end-to-end s", "max depth",
            "io blocks",
        ],
        [
            [
                r["mode"],
                r["stall_seconds"],
                r["archive_wall_seconds"],
                r["end_to_end_seconds"],
                r["max_queue_depth"],
                r["io_total"],
            ]
            for r in rows
        ],
    )
    write_bench(
        "ingest",
        {
            "benchmark": "ingest_ablation",
            "meta": {
                "shards": 1,
                "sketch_backend": "gk",
                "storage_backend": "simulated",
                "object_tier": False,
            },
            "rows": [
                {
                    key: row[key]
                    for key in (
                        "mode",
                        "stall_seconds",
                        "archive_wall_seconds",
                        "end_to_end_seconds",
                        "max_queue_depth",
                        "steps",
                        "io_total",
                        "io_archive",
                    )
                }
                for row in rows
            ],
        },
    )

    # Identical work: the archival phases (load/sort/merge) charge the
    # same blocks in both modes, and after flush() the layout and every
    # answer match.  io_total is *not* compared: a query that lands
    # mid-archive probes the extra still-unmerged pending partition, so
    # query-phase random reads depend on archiver timing by design.
    assert sync["io_archive"] == background["io_archive"]
    assert sync["layout"] == background["layout"]
    assert sync["mid_run_answers"] == background["mid_run_answers"]
    assert sync["final_answers"] == background["final_answers"]
    assert background["flushed_reports"] == background["steps"]

    # In sync mode the stream stalls for the entire archive latency.
    assert sync["stall_seconds"] >= sync["archive_wall_seconds"] * 0.95
    # The overlap claim needs a second core to archive on; on a
    # single-core host the background thread merely time-slices, so the
    # strict inequality is only asserted with real parallel hardware.
    if (os.cpu_count() or 1) >= 2:
        assert (
            background["stall_seconds"] < sync["archive_wall_seconds"]
        ), (
            background["stall_seconds"], sync["archive_wall_seconds"],
        )
