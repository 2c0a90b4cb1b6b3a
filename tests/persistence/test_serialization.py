"""Tests for sketch serialization round-trips and failure detection."""

import numpy as np
import pytest

from repro.persistence import (
    SerializationError,
    dump_gk,
    dump_kll,
    load_gk,
    load_stream_sketch,
)
from repro.persistence.serialization import _pack
from repro.sketches import GKSketch, KLLSketch


def filled_gk(eps=0.01, n=20_000, seed=0):
    sketch = GKSketch(eps)
    sketch.update_many(np.random.default_rng(seed).integers(0, 10**9, n))
    return sketch


def filled_kll(eps=0.02, n=20_000, seed=1):
    sketch = KLLSketch(eps, seed=seed)
    sketch.update_many(np.random.default_rng(seed).integers(0, 2**20, n))
    return sketch


class TestGKRoundTrip:
    def test_identical_answers(self):
        original = filled_gk()
        restored = load_gk(dump_gk(original))
        assert restored.n == original.n
        assert restored.epsilon == original.epsilon
        for rank in (1, 5000, 10_000, 15_000, 20_000):
            assert restored.query_rank(rank) == original.query_rank(rank)

    def test_restored_sketch_keeps_ingesting(self):
        original = filled_gk()
        restored = load_gk(dump_gk(original))
        extra = np.random.default_rng(9).integers(0, 10**9, 5000)
        original.update_many(extra)
        restored.update_many(extra)
        assert restored.n == original.n
        assert restored.query_rank(12_000) == original.query_rank(12_000)

    def test_empty_sketch(self):
        restored = load_gk(dump_gk(GKSketch(0.1)))
        assert restored.n == 0

    def test_rejects_garbage(self):
        with pytest.raises(SerializationError):
            load_gk(b"not a sketch at all")

    @pytest.mark.parametrize("column, index, value", [
        ("g", 3, 0),  # a zero gap: two tuples at one minimum rank
        ("delta", 5, -1),
        ("g", 0, 10**9),  # sum(g) > n
    ])
    def test_rejects_inconsistent_tuples(self, column, index, value):
        """A bulk merge into the restored sketch assumes every g >= 1,
        delta >= 0 and sum(g) <= n; a payload breaking one is refused."""
        sketch = filled_gk()
        values, rmin, rmax = sketch._arrays()
        arrays = {"values": values, "g": np.diff(rmin, prepend=0),
                  "delta": rmax - rmin}
        arrays[column] = arrays[column].copy()
        arrays[column][index] = value
        header = {"format": "repro-gk-v1", "epsilon": 0.01, "n": sketch.n}
        with pytest.raises(SerializationError, match="inconsistent"):
            load_gk(_pack(header, arrays))

    def test_rejects_wrong_format(self):
        payload = dump_kll(filled_kll())
        with pytest.raises(SerializationError):
            load_gk(payload)


def test_a_qdigest_payload_is_refused():
    """No checkpoint holds a Q-Digest (``sketch_backend`` is gk or kll),
    so its format is refused like any other unknown tag."""
    payload = _pack(
        {"format": "repro-qdigest-v1", "epsilon": 0.02,
         "universe_log2": 20, "n": 0},
        {"nodes": np.empty(0, np.int64), "counts": np.empty(0, np.int64)},
    )
    with pytest.raises(SerializationError, match="repro-qdigest-v1"):
        load_stream_sketch(payload)
