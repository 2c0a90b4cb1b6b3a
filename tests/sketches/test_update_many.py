"""Every sketch accepts numpy batches through ``update_many``.

GK, KLL, Q-Digest and the exact oracle each absorb a batch in one
pass (the base class has no per-element fallback).  Feeding an array
through ``update_many`` must be indistinguishable from replaying it
element by element (deterministic sketches: identical state; seeded
KLL: identical because the element order and RNG draws coincide).

``update_many`` is the only batch verb; it takes an array or a list of
integers and every implementation reads it through
``as_int64_batch``, so lossy input raises before anything is
stored.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.persistence.serialization import dump_gk, load_gk
from repro.sketches.base import QuantileSketch, as_int64_batch
from repro.sketches.exact import ExactQuantiles
from repro.sketches.gk import GKSketch, _compress_heads
from repro.sketches.kll import KLLSketch
from repro.sketches.qdigest import QDigestSketch

from .gk_reference import ReferenceGKSketch, compress_heads_reference


def scalar_fed(sketch, values):
    for value in values:
        sketch.update(int(value))
    return sketch


def make_all():
    return {
        "gk": lambda: GKSketch(0.01),
        "kll": lambda: KLLSketch(0.01, seed=5),
        "exact": lambda: ExactQuantiles(),
        "qdigest": lambda: QDigestSketch(0.05, universe_log2=20),
    }


@pytest.mark.parametrize("name", sorted(make_all()))
def test_update_many_matches_scalar_replay(name):
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2**20, size=200)  # below GK's bulk threshold
    via_loop = scalar_fed(make_all()[name](), values)
    via_array = make_all()[name]()
    via_array.update_many(values)
    assert via_array.n == via_loop.n == 200
    for rank in (1, 10, 100, 150, 200):
        assert via_array.query_rank(rank) == via_loop.query_rank(rank), rank


def test_update_many_flattens_and_ignores_empty():
    sketch = GKSketch(0.01)
    sketch.update_many(np.empty(0, dtype=np.int64))
    assert sketch.n == 0
    sketch.update_many(np.arange(6).reshape(2, 3))
    assert sketch.n == 6
    assert sketch.min_value() == 0
    assert sketch.max_value() == 5


def test_gk_update_many_takes_a_list_like_an_array():
    rng = np.random.default_rng(23)
    values = rng.integers(0, 10**6, size=5000)
    a = GKSketch(0.01)
    a.update_many(values)
    b = GKSketch(0.01)
    b.update_many([int(v) for v in values])
    assert a._values == b._values
    assert a._g == b._g
    assert a._delta == b._delta
    assert a.n == b.n == 5000


def test_gk_query_ranks_matches_scalar_queries():
    rng = np.random.default_rng(29)
    sketch = GKSketch(0.01)
    sketch.update_many(rng.integers(0, 10**6, size=20_000))
    targets = np.concatenate(
        [
            np.asarray([1, 2, 19_999, 20_000]),
            rng.integers(1, 20_000, size=200),
            np.asarray([-5, 0, 10**9]),  # clamped like query_rank
        ]
    )
    vectorized = sketch.query_ranks(targets)
    scalar = np.asarray(
        [sketch.query_rank(int(t)) for t in targets], dtype=np.int64
    )
    assert np.array_equal(vectorized, scalar)


# ----------------------------------------------------------------------
# Array-native bulk compress == the list-based scalar compress
# ----------------------------------------------------------------------

BATCH_SHAPES = ("uniform", "five-values", "sorted", "reversed", "constant", "zipf")


def make_batch(shape, size, seed):
    rng = np.random.default_rng(seed)
    if shape == "five-values":
        return rng.integers(0, 5, size)
    if shape == "constant":
        return np.full(size, int(rng.integers(-9, 9)))
    if shape == "zipf":
        return rng.zipf(1.3, size).astype(np.int64)
    values = rng.integers(-(10**6), 10**6, size)
    if shape == "sorted":
        return np.sort(values)
    if shape == "reversed":
        return np.sort(values)[::-1]
    return values


def gk_state(sketch):
    return (sketch._values, sketch._g, sketch._delta, sketch._n)


def assert_gk_invariant(sketch, seen_min, seen_max):
    """``g_i + delta_i <= floor(2 eps n)`` on interior tuples (SNIPPETS #1).

    A tuple never has ``g < 1``, so while ``2 eps n < 1`` the bound a
    sketch can meet is 1.  The end tuples are the exact min and max.
    """
    assert sum(sketch._g) == sketch.n
    assert sketch._values == sorted(sketch._values)
    assert sketch.min_value() == seen_min
    assert sketch.max_value() == seen_max
    bound = max(1, int(2.0 * sketch.epsilon * sketch.n))
    for g, delta in zip(sketch._g[1:-1], sketch._delta[1:-1]):
        assert g >= 1 and delta >= 0
        assert g + delta <= bound


def read_everything(sketch):
    """Every read a bulk-absorbed sketch serves from its arrays alone:
    the queries, on the sketch, on a ``snapshot()`` and on a ``dump_gk``
    / ``load_gk`` round trip.  Returns the answers and the restored
    sketch."""
    frozen, restored = sketch.snapshot(), load_gk(dump_gk(sketch))
    n = sketch.n
    ranks = sorted({1, n // 3 + 1, n // 2 + 1, n})
    answers = []
    for view in (sketch, frozen, restored):
        low, high = view.min_value(), view.max_value()
        median = view.query_rank(n // 2 + 1)
        assert all(type(x) is int for x in (low, high, median))
        answers.append((
            [view.query_rank(rank) for rank in ranks],
            view.query_ranks(np.asarray(ranks)).tolist(),
            [view.rank_bounds(v) for v in (low - 1, low, median, high)],
            (low, high, view.tuple_count(), view.memory_words(), view.n),
        ))
    assert answers[0] == answers[1] == answers[2]
    return answers[0], frozen, restored


bulk_ops = st.tuples(
    st.sampled_from(BATCH_SHAPES),
    # Straddles the 256-element scalar fallback; the large sizes make
    # the compress drop most tuples even at the smallest epsilon.
    st.sampled_from([1, 40, 255, 256, 257, 700, 3000, 12_000, 40_000]),
    st.integers(0, 2**32 - 1),
)
scalar_ops = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=40)


@given(
    # Log-uniform over the issue's range 2.5e-4 ... 0.3.
    log_eps=st.floats(np.log(2.5e-4), np.log(0.3)),
    ops=st.lists(st.one_of(bulk_ops, scalar_ops), min_size=1, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_bulk_compress_equals_scalar_reference(log_eps, ops):
    epsilon = float(np.exp(log_eps))
    sketch, reference = GKSketch(epsilon), ReferenceGKSketch(epsilon)
    seen_min, seen_max = None, None
    for op in ops:
        if isinstance(op, list):
            values = np.asarray(op, dtype=np.int64)
            for value in op:
                sketch.update(value)
                reference.update(value)
        else:
            values = make_batch(*op)
            sketch.update_many(values)
            reference.update_many(values)
        if not isinstance(op, list) and values.size >= 256:
            # Between a bulk absorb and the next scalar update the
            # arrays are the state: no read, snapshot or checkpoint
            # round trip builds the lists, and the history goes on from
            # the restored sketch, which never held any.
            answers, frozen, restored = read_everything(sketch)
            assert answers == read_everything(reference)[0]
            for bulk_only in (sketch, frozen, restored):
                assert bulk_only._columns is None
            sketch = restored
        assert gk_state(sketch) == gk_state(reference)
        assert sketch._since_compress == reference._since_compress
        # The bulk path seeds the query-array cache from the survivors;
        # the reference rebuilds it from the lists.
        for seeded, rebuilt in zip(sketch._arrays(), reference._arrays()):
            assert seeded.dtype == rebuilt.dtype == np.int64
            assert np.array_equal(seeded, rebuilt)
        low, high = int(values.min()), int(values.max())
        seen_min = low if seen_min is None else min(seen_min, low)
        seen_max = high if seen_max is None else max(seen_max, high)
        if not isinstance(op, list):
            assert_gk_invariant(sketch, seen_min, seen_max)


# ----------------------------------------------------------------------
# _compress_heads: the jumper chain == the step walk
# ----------------------------------------------------------------------


def make_tuples(size, threshold, small_share, max_delta, seed):
    """``(rmin, rmax)`` of ``size`` tuples: a ``small_share`` of the gaps
    is 1 (swallowed under any threshold that swallows at all), the rest
    too wide for ``threshold``."""
    rng = np.random.default_rng(seed)
    small = rng.random(size) < small_share
    gaps = np.where(small, 1, threshold + 1 + rng.integers(0, 3, size))
    rmin = np.cumsum(gaps)
    return rmin, rmin + rng.integers(0, max_delta + 1, size)


@given(
    size=st.integers(1, 400),
    threshold=st.sampled_from([0, 1, 2, 7, 60]),
    # Jumpers never, rarely, at half the tuples and nearly everywhere.
    small_share=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    max_delta=st.sampled_from([0, 2, 150]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_compress_heads_equals_the_step_walk(
    size, threshold, small_share, max_delta, seed
):
    rmin, rmax = make_tuples(size, threshold, small_share, max_delta, seed)
    heads = _compress_heads(rmin, rmax, threshold)
    assert np.array_equal(heads, compress_heads_reference(rmin, rmax, threshold))
    assert heads[0] == 0 and heads[-1] == size - 1


@pytest.mark.parametrize(
    "regime, small_share, threshold, max_delta, walk",
    [
        ("none", 0.0, 7, 0, "nothing to walk"),
        ("threshold-0", 1.0, 0, 0, "nothing to walk"),
        ("threshold-1", 1.0, 1, 0, "nothing to walk"),
        ("few", 0.02, 7, 2, "jumpers"),
        ("swallowed", None, 60, 0, "jumpers"),
        ("most", 1.0, 7, 2, "steps"),
    ],
)
def test_compress_heads_in_every_regime(
    regime, small_share, threshold, max_delta, walk
):
    """Pinned inputs from no jumper to nearly every tuple one, so no
    jumper density goes untested whatever hypothesis draws."""
    if regime == "swallowed":
        # Runs of five 1-gaps: the top tuple of a run swallows the
        # jumpers below it, which are then never heads themselves.
        rmin = np.cumsum(np.where(np.arange(3000) % 60 < 5, 1, 61))
        rmax = rmin.copy()
    else:
        rmin, rmax = make_tuples(3000, threshold, small_share, max_delta, 5)
    neighbour = np.arange(-1, len(rmin) - 1)
    reach = np.searchsorted(rmin, rmax - threshold, side="left")
    jumpers = np.flatnonzero(reach < neighbour)
    assert (len(jumpers) == 0) == (walk == "nothing to walk")
    heads = _compress_heads(rmin, rmax, threshold)
    assert np.array_equal(heads, compress_heads_reference(rmin, rmax, threshold))
    if regime == "swallowed":
        assert not set(jumpers.tolist()) <= set(heads.tolist())


@pytest.mark.parametrize(
    "live, chunk, writes",
    [(50_000, 512, 6), (4096, 4096, 30)],
    ids=["trickles-across-a-tick", "writes-into-a-growing-sketch"],
)
def test_measured_write_shapes_equal_the_references(live, chunk, writes):
    """The shapes the absorb is timed on, at the stream sketch's
    eps = 1.25e-4 (``epsilon=1e-3``): 512-element trickles into a settled
    50 000-element sketch, the fourth across a threshold tick (2 048
    jumpers in 6 216 merged tuples), and 4 096-element writes into a
    growing one.  Every merge compresses to the step walk's heads and
    every absorb leaves the list-based reference's tuples."""
    rng = np.random.default_rng(0)
    sketch, reference = GKSketch(1.25e-4), ReferenceGKSketch(1.25e-4)
    for write in range(writes + 1):
        batch = rng.integers(0, 1 << 40, live if write == 0 else chunk)
        if write:
            _, rmin, rmax = sketch._merge_exact_batch(np.sort(batch))
            threshold = int(2.5e-4 * (sketch.n + chunk))
            heads = _compress_heads(rmin, rmax, threshold)
            assert np.array_equal(
                heads, compress_heads_reference(rmin, rmax, threshold)
            )
            if live == 50_000 and write == 4:
                jumpers = np.flatnonzero(rmin[:-2] + threshold >= rmax[2:])
                assert threshold > int(2.5e-4 * sketch.n)  # the tick
                assert (len(rmin), len(jumpers)) == (6216, 2048)
        sketch.update_many(batch)
        reference.update_many(batch)
        for held, expected in zip(sketch._arrays(), reference._arrays()):
            assert np.array_equal(held, expected)
    assert sketch.n == reference.n == live + writes * chunk


@pytest.mark.parametrize("epsilon", [0.3, 0.01, 2.5e-4])
@pytest.mark.parametrize("size", [256, 1999, 2000, 2001, 75_000])
def test_empty_sketch_stride_equals_reference(epsilon, size):
    """The empty-sketch shortcut (heads are a strided range) against the
    reference, at sizes where ``floor(2 eps n)`` is 0, 1 and large."""
    values = make_batch("uniform", size, seed=size)
    sketch, reference = GKSketch(epsilon), ReferenceGKSketch(epsilon)
    sketch.update_many(values)
    reference.update_many(values)
    assert gk_state(sketch) == gk_state(reference)
    assert_gk_invariant(sketch, int(values.min()), int(values.max()))


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_empty_sketch_absorb_meets_invariant_on_every_shape(shape):
    values = make_batch(shape, 30_000, seed=7)
    sketch, reference = GKSketch(0.002), ReferenceGKSketch(0.002)
    sketch.update_many(values)
    reference.update_many(values)
    assert gk_state(sketch) == gk_state(reference)
    assert_gk_invariant(sketch, int(values.min()), int(values.max()))


def test_bulk_absorb_over_ties_keeps_guarantee():
    """Repeated absorbs of five distinct values: a batch value equal to
    a held tuple's is ranked behind that tuple only, never on both
    sides of it, so no gap grows past ``2 eps n``."""
    rng = np.random.default_rng(0)
    sketch = GKSketch(0.01)
    for _ in range(60):
        sketch.update_many(rng.integers(0, 5, 300))
    assert_gk_invariant(sketch, 0, 4)


def test_bulk_absorbed_sketch_survives_checkpoint_roundtrip():
    sketch = GKSketch(0.001)
    sketch.update_many(make_batch("uniform", 20_000, seed=1))
    sketch.update_many(make_batch("zipf", 5_000, seed=2))
    restored = load_gk(dump_gk(sketch))
    assert gk_state(restored) == gk_state(sketch)
    # Plain Python ints, exactly what the scalar path stores.
    for column in (sketch._values, sketch._g, sketch._delta):
        assert all(type(item) is int for item in column)
    more = make_batch("five-values", 3_000, seed=3)
    sketch.update_many(more)
    restored.update_many(more)
    assert gk_state(restored) == gk_state(sketch)


def test_size_and_extremes_are_read_off_the_live_form():
    """``memory_report`` reads them beside a writing thread: they build
    and cache nothing, whichever form holds the tuples."""
    sketch = GKSketch(0.01)
    for value in (5, 3, 9):
        sketch.update(value)
    listed = (3, 9, 3, 13)
    bulk = make_batch("uniform", 2_000, seed=4)
    for expected, columns_live in ((listed, True), (None, False)):
        got = (
            sketch.min_value(), sketch.max_value(),
            sketch.tuple_count(), sketch.memory_words(),
        )
        assert all(type(item) is int for item in got)
        if columns_live:
            assert got == expected and sketch._query_arrays is None
            sketch.update_many(bulk)
        else:
            assert got[:2] == (min(3, bulk.min()), max(9, bulk.max()))
            assert got[2] == len(sketch._query_arrays[0])
            assert sketch._columns is None


# ----------------------------------------------------------------------
# An absorb into an empty sketch: the strided form == the searched form
# ----------------------------------------------------------------------


def fresh_step(shape, size, seed):
    """Few values, Zipf or values 2**40 wide: ties, runs and gaps."""
    rng = np.random.default_rng(seed)
    if shape == "few":
        return rng.integers(0, int(rng.integers(1, 7)), size)
    if shape == "zipf":
        return np.minimum(rng.zipf(1.3, size), 1 << 40).astype(np.int64)
    return rng.integers(-(1 << 40), 1 << 40, size)


def assert_reads_alike(sketch, twin):
    """Every rank in [-1, n + 1] answers alike, and so do the tuples."""
    ranks = np.arange(-1, sketch.n + 2)
    assert np.array_equal(sketch.query_ranks(ranks), twin.query_ranks(ranks))
    assert gk_state(sketch) == gk_state(twin)


@given(
    shape=st.sampled_from(["few", "zipf", "wide"]),
    size=st.integers(256, 5_000),
    log_eps=st.floats(np.log(1.25e-4), np.log(0.2)),
    seed=st.integers(0, 2**16),
    then=st.sampled_from(["update", "small batch", "batch"]),
)
@example(shape="wide", size=256, log_eps=np.log(1.25e-4), seed=0, then="batch")
@example(shape="few", size=5_000, log_eps=np.log(0.2), seed=1, then="update")
@example(shape="zipf", size=3_999, log_eps=np.log(1.25e-4), seed=2,
         then="small batch")
@settings(max_examples=40, deadline=None)
def test_strided_form_answers_as_the_searched_one(
    shape, size, log_eps, seed, then
):
    """``query_ranks`` answers a fresh absorb by arithmetic on its tuple
    stride; a twin whose strided form is dropped searches instead.  The
    two, a snapshot and a checkpoint round trip read alike, and keep
    reading alike once a scalar write or another batch moves them on."""
    epsilon = float(np.exp(log_eps))
    values = fresh_step(shape, size, seed)
    sketch, twin = GKSketch(epsilon), GKSketch(epsilon)
    sketch.update_many(values)
    twin.update_many(values)
    assert sketch._stride == max(1, int(2 * epsilon * size))
    twin._stride = None
    assert_reads_alike(sketch, twin)
    ranks = np.arange(-1, size + 2)
    answers = sketch.query_ranks(ranks)
    for rank in ranks[:: max(1, size // 101)].tolist() + [size, size + 1]:
        assert sketch.query_rank(rank) == twin.query_rank(rank)
        assert sketch.query_rank(rank) == answers[rank + 1]
    for value in np.unique(values).tolist():
        for probe in (value - 1, value, value + 1):
            assert sketch.rank_bounds(probe) == twin.rank_bounds(probe)
    frozen, restored = sketch.snapshot(), load_gk(dump_gk(sketch))
    assert frozen._stride == sketch._stride and restored._stride is None
    assert_reads_alike(frozen, twin)
    assert_reads_alike(restored, twin)
    more = fresh_step(shape, {"update": 1, "small batch": 200}.get(then, 700),
                      seed + 1)
    for moved in (sketch, twin):
        if then == "update":
            moved.update(int(more[0]))
        else:
            moved.update_many(more)
    assert sketch._stride is None
    assert_reads_alike(sketch, twin)


@pytest.mark.parametrize("shape", ["normal", "zipf"])
def test_fresh_absorb_allocates_little_beside_its_sort(shape):
    """A count, not a timing: absorbing a step into an empty sketch
    allocates the sorted copy and the kept tuples, nothing step-sized
    more (no rank per element, no gather of step length)."""
    rng = np.random.default_rng(11)
    if shape == "normal":
        step = rng.normal(0, 1e6, 75_000).astype(np.int64)
    else:
        step = np.minimum(rng.zipf(1.3, 75_000), 1 << 40).astype(np.int64)
    sketch = GKSketch(1.25e-4)
    tracemalloc.start()
    try:
        sketch.update_many(step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * step.nbytes


# ----------------------------------------------------------------------
# Non-integer input is rejected, not truncated
# ----------------------------------------------------------------------


LOSSY = {
    "float-list": ([1.7, 2.0], TypeError),
    "nan": (np.asarray([1.0, np.nan]), TypeError),
    "bool": (np.asarray([True, False]), TypeError),
    "object": (np.asarray(["3"], dtype=object), TypeError),
    "uint64-overflow": (np.asarray([2**63], dtype=np.uint64), OverflowError),
    # What the deleted iterable doors cast: np.fromiter(..., int64) made
    # [1, 2, 9] and [1, 3] of these two.
    "floats": ([1.7, 2.2, 9.9], TypeError),
    "bool-among-ints": ([True, 3], TypeError),
}


#: door -> fresh sketch; every one is fed through ``update_many``.
DOORS = {
    "update_many": lambda: GKSketch(0.01),
    "kll": lambda: KLLSketch(0.01, seed=1),
    **{name: make for name, make in make_all().items() if name != "gk"},
}


@pytest.mark.parametrize(
    "door, values, error",
    [
        # GK's array door keeps the ids it had before the others joined.
        pytest.param(
            door, *LOSSY[case],
            id=case if door == "update_many" else f"{door}-{case}",
        )
        for door in DOORS
        for case in LOSSY
    ],
)
def test_gk_update_many_rejects_lossy_input(door, values, error):
    sketch = DOORS[door]()
    with pytest.raises(error):
        sketch.update_many(values)
    assert sketch.n == 0


def test_a_sketch_without_update_many_cannot_be_built():
    """``update_many`` is abstract: a sketch must absorb batches itself."""

    class ScalarOnly(QuantileSketch):
        n = 0

        def update(self, value):
            pass

        def query_rank(self, rank):
            return 0

        def memory_words(self):
            return 0

    with pytest.raises(TypeError, match="update_many"):
        ScalarOnly()


def test_int64_arrays_pass_every_door_uncopied(monkeypatch):
    """The doors validate; they must not copy what is already int64."""
    from repro.sketches import exact, gk, kll, qdigest

    validated = []

    def spied(values):
        validated.append(as_int64_batch(values))
        return validated[-1]

    for module in (exact, gk, kll, qdigest):
        monkeypatch.setattr(module, "as_int64_batch", spied)
    batch = np.arange(300, dtype=np.int64)
    for fresh in DOORS.values():
        sketch = fresh()
        sketch.update_many(batch)
        assert sketch.n == 300
    assert len(validated) == len(DOORS)
    assert all(arr is batch for arr in validated)


@pytest.mark.parametrize(
    "values",
    [
        [3, 1, 2],
        np.asarray([3, 1, 2], dtype=np.int32),
        np.asarray([3, 1, 2], dtype=np.uint8),
        np.asarray([3, 1, 2], dtype=np.uint64),
    ],
    ids=["python-ints", "int32", "uint8", "uint64-in-range"],
)
def test_as_int64_batch_accepts_integers(values):
    arr = as_int64_batch(values)
    assert arr.dtype == np.int64 and arr.tolist() == [3, 1, 2]


def test_as_int64_batch_empty_and_passthrough():
    for empty in ([], np.empty(0), np.empty(0, dtype=object)):
        arr = as_int64_batch(empty)
        assert arr.dtype == np.int64 and arr.shape == (0,)
    already = np.arange(5, dtype=np.int64)
    assert as_int64_batch(already) is already  # no copy on the hot path
    assert as_int64_batch(already.reshape(5, 1)).shape == (5,)
