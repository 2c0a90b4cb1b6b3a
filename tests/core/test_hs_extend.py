"""``HistoricalSummary.extended`` against its three-search reference.

Every extension must give the bits ``hs_extend_reference`` gives from
the same held summary: ties between new entries and held values, Zipf
duplicates, partitions with ``eps1 * m_P <= 1`` (where the stored
positions raise the bound) and groups of several partitions at once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import HistoricalSummary
from repro.core.summaries import PartitionSummary
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition

from .hs_extend_reference import reference_extended


def summary_of(data, eps1):
    run = SortedRun(SimulatedDisk(block_elems=8), np.sort(data))
    return PartitionSummary.build(
        Partition(level=0, start_step=1, end_step=1, run=run), eps1
    )


def assert_equal_bits(got, want):
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.total_size == want.total_size


partition_data = st.one_of(
    # Few distinct values: ties inside a partition and across them.
    st.lists(st.integers(0, 6), max_size=40),
    # Shorter than 1 / eps1 at every eps1 below: every element stored.
    st.lists(st.integers(-50, 50), max_size=3),
    st.lists(st.integers(-(2**40), 2**40), max_size=80),
).map(lambda values: np.asarray(values, dtype=np.int64))


@given(
    parts=st.lists(partition_data, max_size=7),
    eps1=st.sampled_from([0.3, 0.1, 0.07]),
    split=st.integers(0, 7),
    group=st.integers(1, 7),
)
@settings(max_examples=300, deadline=None)
def test_extended_equals_the_reference(parts, eps1, split, group):
    """Grown one partition at a time and in groups, from the same held
    summary each time, the two forms give the same bits."""
    summaries = [summary_of(data, eps1) for data in parts]
    held = HistoricalSummary.fold([])
    for summary in summaries[:split]:
        expected = reference_extended(held, summary)
        held = held.extended(summary)
        assert_equal_bits(held, expected)
    rest = summaries[split:]
    for lo in range(0, len(rest), group):
        chunk = rest[lo : lo + group]
        expected = reference_extended(held, *chunk)
        held = held.extended(*chunk)
        assert_equal_bits(held, expected)


def test_zipf_steps_on_a_long_summary():
    """The ``ingest_heavy`` shape: a Zipf or uniform 4 000-element step
    summarized at eps1 = 1/2000 onto a summary of twenty such steps,
    alone and three at a time."""
    rng = np.random.default_rng(5)
    steps = [
        rng.zipf(1.3, 4000).astype(np.int64) if index % 2
        else rng.integers(0, 10**6, 4000)
        for index in range(26)
    ]
    summaries = [summary_of(data, 1 / 2000) for data in steps]
    held = HistoricalSummary.fold(summaries[:20])
    for summary in summaries[20:23]:
        assert_equal_bits(
            held.extended(summary), reference_extended(held, summary)
        )
    assert_equal_bits(
        held.extended(*summaries[23:]),
        reference_extended(held, *summaries[23:]),
    )
