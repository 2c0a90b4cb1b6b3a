"""``StreamSummary.extract`` and ``CombinedSummary.fuse`` against their
one-temporary-per-step reference (``ss_ts_reference``).

Every field must carry the same bits, dtype included: SS from a fresh
strided absorb, from a settled sketch after 512-element trickles, from
tie-heavy and few-value streams, from streams shorter than ``beta2`` and
from KLL; TS over an empty HS and over several partitions, fused from
scratch and with a ``previous`` TS lending its positions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import CombinedSummary, HistoricalSummary
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.sketches.gk import GKSketch
from repro.sketches.kll import KLLSketch
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition

from .ss_ts_reference import reference_extract, reference_fuse

TRICKLE = 512


def draw_values(rng, shape, size):
    if shape == "wide":
        return rng.integers(-(2**40), 2**40, size)
    if shape == "zipf":  # tie-heavy
        return np.minimum(rng.zipf(1.3, size), 1 << 40).astype(np.int64)
    return rng.integers(0, 5, size)  # few values


def summary_of(data, eps1):
    run = SortedRun(SimulatedDisk(block_elems=8), np.sort(data))
    return PartitionSummary.build(
        Partition(level=0, start_step=1, end_step=1, run=run), eps1
    )


def assert_same_bits(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def assert_same_ss(got, want):
    assert_same_bits(got, want, ("values", "stream_size", "eps2"))
    if want.strict_uppers is None:
        assert got.strict_uppers is None
    else:
        assert_same_bits(got, want, ("strict_uppers",))


def assert_same_ts(got, want):
    assert got.historical is want.historical
    assert_same_bits(got, want, ("entries", "gaps", "total_size"))
    for name in ("lower_tables", "upper_tables"):
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["wide", "zipf", "few"]),
    size=st.sampled_from([0, 1, 40, 255, 256, 700, 3000, 9000]),
    trickles=st.integers(0, 3),
    eps2=st.sampled_from([0.1, 0.02, 0.0025]),
    backend=st.sampled_from(["gk", "kll"]),
    parts=st.lists(st.integers(0, 2000), max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_extract_and_fuse_equal_the_reference(
    seed, shape, size, trickles, eps2, backend, parts
):
    rng = np.random.default_rng(seed)
    sketch = (
        GKSketch(eps2 / 2) if backend == "gk"
        else KLLSketch(eps2 / 2, seed=seed % 97)
    )
    # One batch into the empty sketch: a strided absorb from 256 up.
    sketch.update_many(draw_values(rng, shape, size))
    historical = HistoricalSummary.fold(
        [summary_of(draw_values(rng, shape, n), 0.05) for n in parts]
    )
    previous = reference = None
    for _ in range(trickles + 1):
        ss = StreamSummary.extract(sketch, eps2)
        assert_same_ss(ss, reference_extract(sketch, eps2))
        if len(ss) or len(historical):
            ts = CombinedSummary.fuse(historical, ss, previous)
            want = reference_fuse(historical, ss, reference)
            assert_same_ts(ts, want)
            assert_same_ts(ts, reference_fuse(historical, ss))
            previous, reference = ts, want
        # A settled sketch: the trickle merges into the held tuples.
        sketch.update_many(draw_values(rng, shape, TRICKLE))


@given(
    seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["wide", "zipf"])
)
@settings(max_examples=40, deadline=None)
def test_a_previous_ts_on_another_hs_lends_nothing(seed, shape):
    """Reuse needs the same HS and the same entry count; otherwise the
    fuse searches every entry, as the reference does."""
    rng = np.random.default_rng(seed)
    sketch = GKSketch(0.01)
    sketch.update_many(draw_values(rng, shape, 4000))
    ss = StreamSummary.extract(sketch, 0.02)
    first, second = (
        summary_of(draw_values(rng, shape, 900), 0.05) for _ in range(2)
    )
    held = HistoricalSummary.fold([first])
    other = held.extended(second)
    earlier = CombinedSummary.fuse(held, ss)
    assert_same_ts(
        CombinedSummary.fuse(other, ss, earlier), reference_fuse(other, ss)
    )
