"""Ingest rejects what an int64 cast would silently change.

``np.asarray(values, dtype=np.int64)`` turns ``1.7`` into ``1`` and NaN
into ``INT64_MIN``; every ``stream_update_many`` — engine, cluster and
the baselines the drivers feed beside them — refuses such input before
anything (WAL, buffer, sketch, counters) has seen it.  The scalar
``stream_update`` door checks its value as a one-element batch, so it
refuses the same values with the same error.
"""

import numpy as np
import pytest

from repro.baselines import PureStreamingEngine, StrawmanEngine
from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine


def single_engine():
    return HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)


def cluster():
    return ClusterEngine(
        shards=2,
        config=EngineConfig(
            epsilon=0.05, block_elems=16, sketch_backend="kll"
        ),
    )


doors = pytest.mark.parametrize(
    "make", [single_engine, cluster], ids=["engine", "cluster"]
)


@pytest.mark.parametrize(
    "make",
    [
        single_engine,
        cluster,
        lambda: StrawmanEngine(epsilon=0.05, block_elems=16),
        lambda: PureStreamingEngine(epsilon=0.05, block_elems=16),
    ],
    ids=["engine", "cluster", "strawman", "pure-streaming"],
)
@pytest.mark.parametrize(
    "values, error, scalar",
    [
        ([1.7, 2.0], TypeError, False),
        (np.asarray([3.0, 4.0]), TypeError, False),
        (np.asarray([1.0, np.nan]), TypeError, False),
        (np.asarray([True, False]), TypeError, False),
        ([1, "2"], TypeError, False),
        (np.asarray([1, 2**63], dtype=np.uint64), OverflowError, False),
        (1.7, TypeError, True),
        (np.float64(3.0), TypeError, True),
        (True, TypeError, True),
        ("2", TypeError, True),
        (np.uint64(2**63), OverflowError, True),
    ],
    ids=[
        "float-list", "whole-floats", "nan", "bool", "str", "uint64-overflow",
        "scalar-float", "scalar-whole-float", "scalar-bool", "scalar-str",
        "scalar-uint64-overflow",
    ],
)
def test_lossy_input_is_rejected_before_ingest(make, values, error, scalar):
    door = make()
    try:
        with pytest.raises(error):
            door.stream_update_many([values] if scalar else values)
        if scalar:
            with pytest.raises(error):
                door.stream_update(values)
        assert door.m_stream == 0
        assert door.n_total == 0
    finally:
        if hasattr(door, "close"):
            door.close()


@doors
@pytest.mark.parametrize(
    "values",
    [
        [5, 1, 4],
        np.asarray([5, 1, 4], dtype=np.int32),
        np.asarray([5, 1, 4], dtype=np.uint8),
        np.asarray([[5], [1], [4]], dtype=np.int64),
    ],
    ids=["python-ints", "int32", "uint8", "int64-2d"],
)
def test_integer_input_is_still_accepted(make, values):
    door = make()
    try:
        assert door.stream_update_many(values) == 3
        assert door.m_stream == 3
        assert door.quantile(1.0, mode="quick").value == 5
    finally:
        door.close()


@doors
@pytest.mark.parametrize(
    "empty", [[], np.empty(0), np.empty(0, dtype=np.int64)],
    ids=["list", "float64", "int64"],
)
def test_empty_input_is_a_no_op(make, empty):
    door = make()
    try:
        assert door.stream_update_many(empty) == 0
        assert door.m_stream == 0
    finally:
        door.close()
