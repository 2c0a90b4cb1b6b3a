"""Tests for the amortized-O(1) stream append buffer."""

import numpy as np
import pytest

from repro.ingest import AppendBuffer


class TestAppendBuffer:
    def test_starts_empty(self):
        buffer = AppendBuffer()
        assert len(buffer) == 0
        assert buffer.slice_from(0).size == 0
        assert buffer.take().size == 0

    def test_append_and_view(self):
        buffer = AppendBuffer(capacity=2)
        for value in (5, 3, 9):
            buffer.append(value)
        np.testing.assert_array_equal(buffer.slice_from(0), [5, 3, 9])
        assert len(buffer) == 3

    def test_extend(self):
        buffer = AppendBuffer(capacity=1)
        buffer.extend(np.asarray([1, 2], dtype=np.int64))
        buffer.append(3)
        buffer.extend(np.asarray([4, 5, 6], dtype=np.int64))
        np.testing.assert_array_equal(buffer.slice_from(0), [1, 2, 3, 4, 5, 6])

    def test_extend_empty_is_noop(self):
        buffer = AppendBuffer()
        buffer.extend(np.empty(0, dtype=np.int64))
        assert len(buffer) == 0

    def test_view_is_read_only(self):
        buffer = AppendBuffer()
        buffer.append(1)
        view = buffer.slice_from(0)
        with pytest.raises(ValueError):
            view[0] = 2

    def test_take_resets_and_copies(self):
        buffer = AppendBuffer(capacity=4)
        buffer.extend(np.arange(10, dtype=np.int64))
        taken = buffer.take()
        np.testing.assert_array_equal(taken, np.arange(10))
        assert not taken.flags.writeable
        assert len(buffer) == 0
        # the sealed batch must be independent of future appends
        buffer.extend(np.full(10, 99, dtype=np.int64))
        np.testing.assert_array_equal(taken, np.arange(10))

    def test_take_retains_capacity(self):
        buffer = AppendBuffer(capacity=1)
        buffer.extend(np.arange(100, dtype=np.int64))
        capacity = buffer._data.size
        buffer.take()
        buffer.extend(np.arange(100, dtype=np.int64))
        assert buffer._data.size == capacity

    def test_growth_preserves_contents(self):
        buffer = AppendBuffer(capacity=1)
        expected = []
        for value in range(1000):
            buffer.append(value)
            expected.append(value)
        np.testing.assert_array_equal(buffer.slice_from(0), expected)


class TestSortInPlace:
    """The owner may reorder a step where it sits."""

    def test_contents_is_a_writable_view_of_the_buffer(self):
        buffer = AppendBuffer(capacity=2)
        buffer.extend(np.asarray([3, 1, 2]))
        buffer.contents().sort()
        np.testing.assert_array_equal(buffer.slice_from(0), [1, 2, 3])
        buffer.extend(np.asarray([9, 7]))  # later arrivals stay as they came
        np.testing.assert_array_equal(buffer.take(), [1, 2, 3, 9, 7])
