"""A run's width is a storage format, never an answer (hypothesis).

The same sorted values stored as an int32 run and as an int64 run must
answer every read identically and be charged identically: the same
blocks, touched in the same order, for ``rank_of`` (keys beside the
values, beside the int32 ends and far outside them), ``element_at``,
``read_block_range``, ``pinned_range`` and ``pinned_split``.  The
builders give int32 exactly when the values' ends fit it: ``kway_merge``
over runs of mixed width and ``ExternalSorter.sorted_array`` equal
``np.sort`` of the int64 union, compared as int64.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BlockCache, ExternalSorter, SimulatedDisk, SortedRun
from repro.storage.external_sort import kway_merge

from .read_counting import recorded_touches

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
EDGES = [INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX]

narrow_values = st.lists(
    st.one_of(st.integers(INT32_MIN, INT32_MAX), st.sampled_from(EDGES)),
    max_size=120,
)
wide_values = st.lists(
    st.one_of(
        st.integers(-(2**40), 2**40),
        st.sampled_from([INT32_MIN - 1, INT32_MAX + 1, -(2**63), 2**63 - 1]),
    ),
    max_size=60,
)


def keys_for(values):
    """Each value and its neighbours, the int32 ends' neighbours and
    keys far outside int32."""
    near = {v + d for v in values for d in (-1, 0, 1)}
    ends = {e + d for e in (INT32_MIN, INT32_MAX) for d in (-1, 0, 1)}
    return sorted(near | ends | {-(2**40), 2**40})


def one_width(values, dtype, block_elems):
    disk = SimulatedDisk(block_elems=block_elems)
    ordered = np.sort(np.asarray(values, dtype=np.int64))
    run = SortedRun(disk, ordered.astype(dtype))
    assert run.values.dtype == dtype
    return disk, run


def read_back(disk, run, first, last, cache):
    """The elements of blocks ``[first, last]`` (clamped) after a ranged
    read of them: off the cache's pins, or probed one by one through a
    cache that pins nothing."""
    per_block = disk.block_elems
    lo = max(first, 0) * per_block
    hi = max(lo, min((last + 1) * per_block, len(run)))
    if cache.pins(run.run_id):
        return run.pinned_range(lo, hi, cache)
    return [run.element_at(index, cache) for index in range(lo, hi)]


def answers(disk, run, reads, enabled):
    """Every read's answer, charges and touched blocks, in order."""
    cache = BlockCache(disk, enabled=enabled)
    out = []
    with recorded_touches() as touches:
        for kind, *args in reads:
            if kind == "rank":
                value, lo, hi = args
                got = run.rank_of(value, lo, hi, cache=cache)
            elif kind == "element":
                got = run.element_at(args[0], cache)
            elif kind == "blocks":
                assert run.read_block_range(*args, cache) is None
                got = read_back(disk, run, *args, cache)
            elif kind == "pinned":
                got = run.pinned_range(*args, cache)
            else:
                got = run.pinned_split(*args, cache)
                got = got and (got[0], got[1].tolist())
            if isinstance(got, np.ndarray):
                assert got.dtype == np.int64
                got = got.tolist()
            out.append((got, cache.blocks_charged))
    counters = disk.stats.counters
    blocks = [block for _, block in touches]
    return out, blocks, counters.random_reads


@given(
    values=narrow_values,
    block_elems=st.sampled_from([1, 2, 4, 16]),
    enabled=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_int32_and_int64_runs_read_the_same(
    values, block_elems, enabled, data
):
    n = len(values)
    reads = []
    for key in keys_for(values):
        lo = data.draw(st.integers(-2, n + 1))
        hi = data.draw(st.one_of(st.none(), st.integers(-2, n + 2)))
        reads.append(("rank", key, lo, hi))
        if n:
            reads.append(("element", data.draw(st.integers(0, n - 1))))
        first = data.draw(st.integers(-1, n // block_elems + 1))
        last = data.draw(st.integers(first - 1, first + 3))
        reads.append(("blocks", first, last))
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo - 1, n))
        reads.append(("pinned", lo, hi))
        upper = data.draw(st.sampled_from(keys_for(values)))
        reads.append(("split", lo, hi, min(key, upper), max(key, upper)))
    narrow = answers(*one_width(values, np.int32, block_elems), reads, enabled)
    wide = answers(*one_width(values, np.int64, block_elems), reads, enabled)
    assert narrow == wide


@given(runs=st.lists(st.one_of(narrow_values, wide_values), max_size=6))
@settings(max_examples=150, deadline=None)
def test_builders_narrow_exactly_when_the_union_fits(runs):
    arrays = [np.sort(np.asarray(run, dtype=np.int64)) for run in runs]
    arrays = [
        a.astype(np.int32)
        if a.size and INT32_MIN <= a[0] and a[-1] <= INT32_MAX else a
        for a in arrays
    ]
    union = np.sort(np.concatenate([np.empty(0, np.int64), *arrays]))
    fits = union.size > 0 and INT32_MIN <= union[0] and union[-1] <= INT32_MAX
    width = np.int32 if fits else np.int64
    merged = kway_merge(arrays)
    assert merged.dtype == width and not merged.flags.writeable
    assert np.array_equal(merged.astype(np.int64), union)

    step = np.concatenate([np.empty(0, np.int64), *arrays])[::-1].copy()
    bounds = (int(union[0]), int(union[-1])) if union.size else (None, None)
    for frozen in (False, True):
        data = step.astype(width)
        data.setflags(write=not frozen)
        before = data.copy()
        sorter = ExternalSorter(SimulatedDisk())
        ordered = sorter.sorted_array(data, bounds)
        # Ascending data at the width comes back as it is, uncopied.
        assert ordered is data or not ordered.flags.writeable
        assert ordered.dtype == width
        assert np.array_equal(ordered.astype(np.int64), union)
        if not frozen:  # a caller's array stays as it is
            assert np.array_equal(data, before)
    wide_step = ExternalSorter(SimulatedDisk()).sorted_array(step, bounds)
    assert wide_step.dtype == width
    assert np.array_equal(wide_step.astype(np.int64), union)
