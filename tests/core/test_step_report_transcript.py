"""Every ``StepReport`` source, pinned field by field over one feed.

The hybrid engine (sync, and background after a ``flush`` per step),
``StrawmanEngine`` and ``PureStreamingEngine`` all report a step's I/O
through ``StepReport.of``.  Each report's non-timing fields are pinned
here as literals over one fixed feed (kappa = 3, 12 steps, merges at
steps 4, 7 and 10), so a change to how any source tallies its I/O
shows up as a literal that no longer matches.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine, StepReport
from repro.baselines.pure_streaming import PureStreamingEngine
from repro.baselines.strawman import StrawmanEngine

#: Measured wall times: their keys are pinned, their values are not.
TIMINGS = ("cpu_seconds", "stall_seconds", "archive_wall_seconds")
PINNED = (
    "step", "batch_elems", "io_total", "io_load", "io_sort", "io_merge",
    "sim_seconds", "merged_levels", "queue_depth", "archived",
)

# The leveled schedule: every source that merges kappa = 3 partitions
# before adding a fourth (the hybrid store, and the pure-streaming
# baseline's unsorted mirror of it).
LEVELED = [
    (1, 200, 13, 13, 0, 0, 0.0013000000000000002, False, 0, True),
    (2, 240, 15, 15, 0, 0, 0.0015, False, 0, True),
    (3, 280, 18, 18, 0, 0, 0.0018000000000000002, False, 0, True),
    (4, 320, 111, 20, 0, 91, 0.0111, True, 0, True),
    (5, 360, 23, 23, 0, 0, 0.0023, False, 0, True),
    (6, 400, 25, 25, 0, 0, 0.0025, False, 0, True),
    (7, 440, 164, 28, 0, 136, 0.0164, True, 0, True),
    (8, 480, 30, 30, 0, 0, 0.003, False, 0, True),
    (9, 520, 33, 33, 0, 0, 0.0033, False, 0, True),
    (10, 560, 216, 35, 0, 181, 0.0216, True, 0, True),
    (11, 600, 38, 38, 0, 0, 0.0038, False, 0, True),
    (12, 640, 40, 40, 0, 0, 0.004, False, 0, True),
]

# The strawman rewrites all of history every step after the first.
STRAWMAN = [
    (1, 200, 13, 13, 0, 0, 0.0013000000000000002, False, 0, True),
    (2, 240, 41, 0, 0, 41, 0.0041, True, 0, True),
    (3, 280, 73, 0, 0, 73, 0.0073, True, 0, True),
    (4, 320, 110, 0, 0, 110, 0.011000000000000001, True, 0, True),
    (5, 360, 153, 0, 0, 153, 0.015300000000000001, True, 0, True),
    (6, 400, 201, 0, 0, 201, 0.0201, True, 0, True),
    (7, 440, 253, 0, 0, 253, 0.0253, True, 0, True),
    (8, 480, 310, 0, 0, 310, 0.031, True, 0, True),
    (9, 520, 373, 0, 0, 373, 0.0373, True, 0, True),
    (10, 560, 441, 0, 0, 441, 0.0441, True, 0, True),
    (11, 600, 513, 0, 0, 513, 0.051300000000000005, True, 0, True),
    (12, 640, 590, 0, 0, 590, 0.059000000000000004, True, 0, True),
]


def feed():
    rng = np.random.default_rng(48)
    return [rng.integers(0, 5000, 200 + 40 * i) for i in range(12)]


def engine(ingest_mode):
    return HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.05, kappa=3, block_elems=16, ingest_mode=ingest_mode
        )
    )


SOURCES = {
    "sync": (lambda: engine("sync"), LEVELED),
    "background": (lambda: engine("background"), LEVELED),
    "strawman": (lambda: StrawmanEngine(epsilon=0.05, block_elems=16), STRAWMAN),
    "pure_streaming": (
        lambda: PureStreamingEngine(
            kind="gk", epsilon=0.05, kappa=3, block_elems=16
        ),
        LEVELED,
    ),
}


def reports_of(system, flush):
    """One report per step: ``end_time_step``'s, or with ``flush`` the
    authoritative one a flush right after the step drains."""
    reports = []
    for batch in feed():
        system.stream_update_many(batch)
        report = system.end_time_step()
        reports.extend(system.flush() if flush else [report])
    return reports


def test_pinned_and_timing_fields_cover_the_report():
    assert {f.name for f in fields(StepReport)} == set(PINNED + TIMINGS)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_step_report_matches_its_transcript(source):
    build, expected = SOURCES[source]
    reports = reports_of(build(), flush=source == "background")
    got = [tuple(getattr(r, name) for name in PINNED) for r in reports]
    assert got == expected
    for report in reports:
        assert set(report.cpu_seconds) == {"load", "sort", "merge", "summary"}
