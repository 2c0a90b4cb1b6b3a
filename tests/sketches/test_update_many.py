"""Every sketch accepts numpy batches through ``update_many``.

GK, KLL, Q-Digest and the exact oracle override it with bulk fast
paths; MRL and the sampler run the per-element loop under the standard
name.  Either way, feeding an array through ``update_many`` must be
indistinguishable from replaying it element by element (deterministic
sketches: identical state; seeded randomized sketches: identical
because the element order and RNG draws coincide).

``update_batch`` remains on every sketch: the base-protocol iterable
entry point for GK/exact/sampler, and a deprecated alias (with a
``DeprecationWarning``) on MRL and Q-Digest, whose bulk paths now
carry the protocol-standard ``update_many`` name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence.serialization import dump_gk, load_gk
from repro.sketches.base import as_int64_batch
from repro.sketches.exact import ExactQuantiles
from repro.sketches.gk import GKSketch
from repro.sketches.kll import KLLSketch
from repro.sketches.mrl import MRL99Sketch
from repro.sketches.qdigest import QDigestSketch
from repro.sketches.random_sampler import RandomSamplerSketch

from .gk_reference import ReferenceGKSketch


def scalar_fed(sketch, values):
    for value in values:
        sketch.update(int(value))
    return sketch


def make_all():
    return {
        "gk": lambda: GKSketch(0.01),
        "kll": lambda: KLLSketch(0.01, seed=5),
        "exact": lambda: ExactQuantiles(),
        "mrl": lambda: MRL99Sketch(buffer_size=64, num_buffers=4, seed=5),
        "qdigest": lambda: QDigestSketch(0.05, universe_log2=20),
        "sampler": lambda: RandomSamplerSketch(sample_size=128, seed=5),
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


def test_gk_update_many_equals_update_batch():
    rng = np.random.default_rng(23)
    values = rng.integers(0, 10**6, size=5000)
    a = GKSketch(0.01)
    a.update_many(values)
    b = GKSketch(0.01)
    b.update_batch(int(v) for v in values)  # iterable entry point
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


@pytest.mark.parametrize(
    "factory",
    [
        lambda: MRL99Sketch(buffer_size=64, num_buffers=4, seed=5),
        lambda: QDigestSketch(0.05, universe_log2=20),
    ],
    ids=["mrl", "qdigest"],
)
def test_update_batch_is_deprecated_alias(factory):
    rng = np.random.default_rng(31)
    values = rng.integers(0, 2**18, size=300)
    via_many = factory()
    via_many.update_many(values)
    via_alias = factory()
    with pytest.deprecated_call():
        via_alias.update_batch(values)
    assert via_alias.n == via_many.n == 300
    for rank in (1, 50, 150, 300):
        assert via_alias.query_rank(rank) == via_many.query_rank(rank)


def test_update_batch_alias_accepts_plain_iterables():
    values = [5, 1, 4, 2, 3] * 20
    sketch = QDigestSketch(0.05, universe_log2=20)
    with pytest.deprecated_call():
        sketch.update_batch(iter(values))
    assert sketch.n == 100
    mrl = MRL99Sketch(buffer_size=16, num_buffers=4, seed=1)
    with pytest.deprecated_call():
        mrl.update_batch(iter(values))
    assert mrl.n == 100


def test_base_protocol_update_batch_not_deprecated(recwarn):
    sketch = GKSketch(0.01)
    sketch.update_batch([3, 1, 2])
    oracle = ExactQuantiles()
    oracle.update_batch([3, 1, 2])
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert not deprecations
    assert sketch.n == oracle.n == 3


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


def assert_gk_invariant(sketch, seen_min, seen_max, tie_free=True):
    """``g_i + delta_i <= floor(2 eps n)`` on interior tuples (SNIPPETS #1).

    A tuple never has ``g < 1``, so while ``2 eps n < 1`` the bound a
    sketch can meet is 1.  The end tuples are the exact min and max.
    The gap bound is only checked on ``tie_free`` histories: the exact
    merge ranks a batch value that equals a held tuple's value on both
    sides of it, which this PR keeps bit for bit (see
    ``test_bulk_absorb_over_ties_keeps_guarantee``).
    """
    assert sum(sketch._g) == sketch.n
    assert sketch._values == sorted(sketch._values)
    assert sketch.min_value() == seen_min
    assert sketch.max_value() == seen_max
    if tie_free:
        bound = max(1, int(2.0 * sketch.epsilon * sketch.n))
        for g, delta in zip(sketch._g[1:-1], sketch._delta[1:-1]):
            assert g >= 1 and delta >= 0
            assert g + delta <= bound


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
    seen_min, seen_max, tie_free = None, None, True
    for op in ops:
        if isinstance(op, list):
            values = np.asarray(op, dtype=np.int64)
            for value in op:
                sketch.update(value)
                reference.update(value)
        else:
            values = make_batch(*op)
            if values.size >= 256 and np.isin(values, sketch._values).any():
                tie_free = False
            sketch.update_many(values)
            reference.update_many(values)
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
            assert_gk_invariant(sketch, seen_min, seen_max, tie_free)


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


@pytest.mark.xfail(
    strict=True,
    reason="_merge_exact_batch counts a batch value equal to a held "
    "tuple's value before that tuple (in_batch, side='right') and after "
    "it (pred, side='right'): repeated absorbs of duplicate-heavy data "
    "leave gaps far above 2 eps n.  Fixing it changes tuples, so it is "
    "left to a PR that may move the equivalence goldens.",
)
def test_bulk_absorb_over_ties_keeps_guarantee():
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


# ----------------------------------------------------------------------
# Non-integer input is rejected, not truncated
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "values, error",
    [
        ([1.7, 2.0], TypeError),
        (np.asarray([1.0, np.nan]), TypeError),
        (np.asarray([True, False]), TypeError),
        (np.asarray(["3"], dtype=object), TypeError),
        (np.asarray([2**63], dtype=np.uint64), OverflowError),
    ],
    ids=["float-list", "nan", "bool", "object", "uint64-overflow"],
)
def test_gk_update_many_rejects_lossy_input(values, error):
    sketch = GKSketch(0.01)
    with pytest.raises(error):
        sketch.update_many(values)
    assert sketch.n == 0


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
