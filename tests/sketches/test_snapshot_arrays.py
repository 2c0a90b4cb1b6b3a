"""A snapshot carries its source's query arrays and stays frozen.

``snapshot()`` used to drop the cached ``(values, rmin, rmax)`` /
``(values, cumulative weights)`` arrays, so the first read of every
snapshot rebuilt them from Python lists — right after ``update_many``
had computed them.  They are never written in place (a mutation
replaces the tuple or drops it), so the copy shares them by reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import GKSketch
from repro.sketches.kll import KLLSketch

SKETCHES = {
    "gk": lambda: GKSketch(0.01),
    "kll": lambda: KLLSketch(0.01, seed=3),
}

PROBES = np.array([1, 2, 17, 100, 250, 511, 512, 10**6])
VALUES = (-5, 0, 3, 40, 41, 999, 10**7)


def answers_of(sketch):
    if sketch.n == 0:
        return sketch.rank_bounds(0)
    return (
        sketch.query_ranks(PROBES).tolist(),
        [sketch.rank_bounds(v) for v in VALUES],
        sketch.min_value(),
    )


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_snapshot_arrays_are_the_sources(kind):
    sketch = SKETCHES[kind]()
    sketch.update_many(np.random.default_rng(1).integers(0, 10**6, 5000))
    # GK's bulk path leaves the arrays behind; KLL builds them on a read.
    sketch.query_ranks(PROBES)
    held = sketch._query_arrays
    assert held is not None
    frozen = sketch.snapshot()
    assert frozen._query_arrays is held
    assert all(a is b for a, b in zip(frozen._arrays(), held))


def test_gk_bulk_absorb_hands_its_arrays_to_the_snapshot():
    """No read in between: the arrays ``update_many`` just computed."""
    sketch = GKSketch(0.01)
    sketch.update_many(np.arange(5000))
    assert sketch.snapshot()._query_arrays is sketch._query_arrays is not None


batches = st.lists(
    st.lists(st.integers(0, 1000), min_size=0, max_size=400),
    min_size=0,
    max_size=4,
)


@pytest.mark.parametrize("kind", sorted(SKETCHES))
@given(before=batches, after=batches, read_source=st.booleans())
@settings(max_examples=60, deadline=None)
def test_updates_after_the_snapshot_never_move_its_answers(
    kind, before, after, read_source
):
    """Batches straddle GK's 256-element bulk threshold, so the source
    goes through both the list path (arrays dropped) and the array path
    (arrays replaced) while the snapshot holds the old ones."""
    sketch = SKETCHES[kind]()
    for batch in before:
        sketch.update_many(np.asarray(batch, dtype=np.int64))
    if read_source and sketch.n:
        sketch.query_ranks(PROBES)
    frozen = sketch.snapshot()
    expected = answers_of(frozen)
    arrays = frozen._query_arrays
    copies = None if arrays is None else [a.copy() for a in arrays]
    for batch in after:
        sketch.update_many(np.asarray(batch, dtype=np.int64))
        for value in batch[:3]:
            sketch.update(value)
        if sketch.n:
            sketch.query_ranks(PROBES)
        assert answers_of(frozen) == expected
    assert frozen.n == sum(map(len, before))
    if copies is not None:
        assert all(
            np.array_equal(a, b) for a, b in zip(frozen._query_arrays, copies)
        )
