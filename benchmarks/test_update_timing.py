"""Update-cost timing guards (no pytest-benchmark).

The shared-cache PR micro-optimized ``GKSketch.update``/``_compress``
(scratch-list reuse instead of rebuilding the tuple lists every
compression).  This guard keeps that win from silently regressing: it
times a fixed seeded update workload with plain ``time.perf_counter``
— deliberately not the ``benchmark`` fixture, so it runs even where
pytest-benchmark is unavailable — and asserts a throughput floor set
roughly an order of magnitude below what the current implementation
measures (~680k updates/s on the reference container), so only a
genuine algorithmic regression trips it, never scheduler noise.

The batched-ingest PR added the vectorized write path on top:
``engine.stream_update_many`` (one buffer extend + one vectorized
aggregate merge per array, lazy GK absorption) and
``GKSketch.update_many`` (sort the batch once, merge it into the
summary in one exact-rank pass).  The speedup guards below hold the
headline contract — batched ingest at least 10x the element-at-a-time
rate — far enough below the measured ratios (hundreds) that only a
real regression trips them.

The seal-path PR moved the bulk absorb's compress onto arrays (only
the surviving tuples become Python lists).  Its guard times one
seal-sized absorb into an empty sketch against the list-based form it
replaced, kept as ``tests/sketches/gk_reference.py``.

The write-side PR made ``_compress_heads`` visit only the tuples that
would swallow a neighbour when those are few — the ``query_heavy``
trickle, where the step walk spent one Python step on each of ~5 000
tuples to drop none.  Its guard replays such absorbs against the step
walk, also kept in ``gk_reference.py``.
"""

import statistics
import time

import numpy as np

from repro.core.engine import HybridQuantileEngine
from repro.sketches import gk
from repro.sketches.gk import GKSketch
from tests.sketches.gk_reference import (
    ReferenceGKSketch,
    compress_heads_reference,
)

UPDATES = 200_000
EPSILON = 0.01
#: updates/second floor — ~11x below the measured implementation.
FLOOR = 60_000.0
ROUNDS = 3
BATCH = 4096
#: minimum batched-over-scalar throughput ratio (the ISSUE contract).
ENGINE_SPEEDUP_FLOOR = 10.0
#: GK-only floor: the bulk merge measures ~6x scalar inserts; half
#: that margin guards the algorithm without tripping on slow runners.
GK_SPEEDUP_FLOOR = 3.0
#: one ``ingest_heavy`` step at the engine's stream epsilon (eps / 4).
ABSORB_BATCH = 75_000
ABSORB_EPSILON = 2.5e-4
#: array compress over list compress: measures ~13x; the successor
#: chain without the empty-sketch stride would still measure ~4x.
ABSORB_SPEEDUP_FLOOR = 3.0
#: ``query_heavy``'s miss: a settled live sketch, a trickle on top.
SETTLED = 50_000
TRICKLE = 512
#: jumper chain over step walk: measures ~17x with nothing to merge.
TRICKLE_SPEEDUP_FLOOR = 2.0


def measure_update_seconds() -> float:
    """Best-of-N wall time for the seeded update workload."""
    values = (
        np.random.default_rng(5)
        .integers(0, 1_000_000, UPDATES, dtype=np.int64)
        .tolist()
    )
    best = float("inf")
    for _ in range(ROUNDS):
        sketch = GKSketch(EPSILON)
        start = time.perf_counter()
        for value in values:
            sketch.update(value)
        best = min(best, time.perf_counter() - start)
        assert sketch.n == UPDATES
    return best


def test_update_throughput_floor():
    seconds = measure_update_seconds()
    throughput = UPDATES / seconds
    print(
        f"\nGK update: {UPDATES:,} updates in {seconds:.3f}s "
        f"({throughput:,.0f} updates/s; floor {FLOOR:,.0f})"
    )
    assert throughput >= FLOOR, (
        f"GK update throughput regressed: {throughput:,.0f} updates/s "
        f"is below the {FLOOR:,.0f} floor"
    )


def _seeded_values() -> np.ndarray:
    return np.random.default_rng(5).integers(
        0, 1_000_000, UPDATES, dtype=np.int64
    )


def _best_of(rounds, fn) -> float:
    best = float("inf")
    for _ in range(rounds):
        best = min(best, fn())
    return best


def test_engine_batch_update_speedup():
    """stream_update_many must beat element-at-a-time by >= 10x."""
    values = _seeded_values()
    scalar_list = values.tolist()

    def scalar_round() -> float:
        engine = HybridQuantileEngine(epsilon=EPSILON)
        start = time.perf_counter()
        for value in scalar_list:
            engine.stream_update(value)
        elapsed = time.perf_counter() - start
        assert engine.m_stream == UPDATES
        return elapsed

    def batched_round() -> float:
        engine = HybridQuantileEngine(epsilon=EPSILON)
        start = time.perf_counter()
        for lo in range(0, UPDATES, BATCH):
            engine.stream_update_many(values[lo : lo + BATCH])
        elapsed = time.perf_counter() - start
        assert engine.m_stream == UPDATES
        return elapsed

    scalar = _best_of(ROUNDS, scalar_round)
    batched = _best_of(ROUNDS, batched_round)
    speedup = scalar / batched
    print(
        f"\nengine ingest: scalar {UPDATES / scalar:,.0f} vs batched "
        f"{UPDATES / batched:,.0f} updates/s ({speedup:,.1f}x, floor "
        f"{ENGINE_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= ENGINE_SPEEDUP_FLOOR, (
        f"batched ingest speedup regressed: {speedup:.1f}x is below "
        f"{ENGINE_SPEEDUP_FLOOR}x"
    )


def test_batched_engine_answers_match_scalar():
    """The speedup is free: both feeds answer queries identically."""
    values = _seeded_values()[:50_000]
    scalar_engine = HybridQuantileEngine(epsilon=EPSILON)
    for value in values.tolist():
        scalar_engine.stream_update(value)
    batched_engine = HybridQuantileEngine(epsilon=EPSILON)
    for lo in range(0, values.size, BATCH):
        batched_engine.stream_update_many(values[lo : lo + BATCH])
    for phi in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
        assert (
            scalar_engine.quantile(phi).value
            == batched_engine.quantile(phi).value
        ), phi


def test_gk_update_many_speedup():
    """The sketch's sort-once/merge-once path must beat scalar inserts."""
    values = _seeded_values()
    scalar_list = values.tolist()

    def scalar_round() -> float:
        sketch = GKSketch(EPSILON)
        start = time.perf_counter()
        for value in scalar_list:
            sketch.update(value)
        elapsed = time.perf_counter() - start
        assert sketch.n == UPDATES
        return elapsed

    def batched_round() -> float:
        sketch = GKSketch(EPSILON)
        start = time.perf_counter()
        for lo in range(0, UPDATES, BATCH):
            sketch.update_many(values[lo : lo + BATCH])
        elapsed = time.perf_counter() - start
        assert sketch.n == UPDATES
        return elapsed

    scalar = _best_of(ROUNDS, scalar_round)
    batched = _best_of(ROUNDS, batched_round)
    speedup = scalar / batched
    print(
        f"\nGK ingest: scalar {UPDATES / scalar:,.0f} vs update_many "
        f"{UPDATES / batched:,.0f} updates/s ({speedup:,.1f}x, floor "
        f"{GK_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= GK_SPEEDUP_FLOOR, (
        f"GK update_many speedup regressed: {speedup:.1f}x is below "
        f"{GK_SPEEDUP_FLOOR}x"
    )


def test_bulk_absorb_beats_list_compress():
    """A seal-sized absorb must not go back through per-tuple Python."""
    values = np.random.default_rng(5).normal(0, 1e6, ABSORB_BATCH)
    values = values.astype(np.int64)

    def median_seconds(factory) -> float:
        samples = []
        for _ in range(9):
            sketch = factory(ABSORB_EPSILON)
            start = time.perf_counter()
            sketch.update_many(values)
            samples.append(time.perf_counter() - start)
            assert sketch.n == ABSORB_BATCH
        return statistics.median(samples)

    reference = median_seconds(ReferenceGKSketch)
    arrays = median_seconds(GKSketch)
    speedup = reference / arrays
    print(
        f"\nGK absorb of {ABSORB_BATCH:,} into an empty sketch: list "
        f"compress {reference * 1e3:.2f} ms vs array compress "
        f"{arrays * 1e3:.2f} ms ({speedup:.1f}x, floor "
        f"{ABSORB_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= ABSORB_SPEEDUP_FLOOR, (
        f"bulk absorb speedup regressed: {speedup:.1f}x is below "
        f"{ABSORB_SPEEDUP_FLOOR}x"
    )


def test_trickle_compress_walks_only_the_jumpers(monkeypatch):
    """A trickle into a settled sketch merges (next to) nothing, and the
    compress must cost accordingly, not one step per surviving tuple."""
    rng = np.random.default_rng(5)
    sketch = GKSketch(ABSORB_EPSILON / 2)
    sketch.update_many(rng.integers(0, 1 << 40, SETTLED))
    inputs = []
    real = gk._compress_heads
    monkeypatch.setattr(
        gk, "_compress_heads",
        lambda *args: inputs.append(args) or real(*args),
    )
    for _ in range(3):
        sketch.update_many(rng.integers(0, 1 << 40, TRICKLE))
    assert len(inputs) == 3

    def median_seconds(heads) -> float:
        samples = []
        for _ in range(9):
            start = time.perf_counter()
            for args in inputs:
                heads(*args)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) / len(inputs)

    for args in inputs:
        assert np.array_equal(real(*args), compress_heads_reference(*args))
    steps = median_seconds(compress_heads_reference)
    jumpers = median_seconds(real)
    speedup = steps / jumpers
    print(
        f"\nGK compress of a {TRICKLE}-element trickle into {SETTLED:,} "
        f"({len(inputs[0][0]):,} tuples): step walk {steps * 1e3:.3f} ms vs "
        f"jumper chain {jumpers * 1e3:.3f} ms ({speedup:.1f}x, floor "
        f"{TRICKLE_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= TRICKLE_SPEEDUP_FLOOR, (
        f"trickle compress speedup regressed: {speedup:.1f}x is below "
        f"{TRICKLE_SPEEDUP_FLOOR}x"
    )


def test_compress_reuses_scratch_lists():
    """The compression scratch swap keeps steady-state allocation flat."""
    sketch = GKSketch(EPSILON)
    values = (
        np.random.default_rng(9)
        .integers(0, 1_000_000, 50_000, dtype=np.int64)
        .tolist()
    )
    for value in values[:25_000]:
        sketch.update(value)
    # After warm-up, the live and scratch triples just swap roles:
    # the same six list objects cycle forever.
    ids_before = {
        id(sketch._values), id(sketch._g), id(sketch._delta),
        *(id(lst) for lst in sketch._scratch),
    }
    for value in values[25_000:]:
        sketch.update(value)
    ids_after = {
        id(sketch._values), id(sketch._g), id(sketch._delta),
        *(id(lst) for lst in sketch._scratch),
    }
    assert ids_after == ids_before
