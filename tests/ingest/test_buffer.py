"""Tests for the amortized-O(1) stream append buffer."""

import numpy as np
import pytest

from repro.ingest import AppendBuffer


class TestAppendBuffer:
    def test_starts_empty(self):
        buffer = AppendBuffer()
        assert len(buffer) == 0
        assert buffer.view().size == 0
        assert buffer.take().size == 0

    def test_append_and_view(self):
        buffer = AppendBuffer(capacity=2)
        for value in (5, 3, 9):
            buffer.append(value)
        np.testing.assert_array_equal(buffer.view(), [5, 3, 9])
        assert len(buffer) == 3

    def test_extend(self):
        buffer = AppendBuffer(capacity=1)
        buffer.extend(np.asarray([1, 2], dtype=np.int64))
        buffer.append(3)
        buffer.extend(np.asarray([4, 5, 6], dtype=np.int64))
        np.testing.assert_array_equal(buffer.view(), [1, 2, 3, 4, 5, 6])

    def test_extend_empty_is_noop(self):
        buffer = AppendBuffer()
        buffer.extend(np.empty(0, dtype=np.int64))
        assert len(buffer) == 0

    def test_view_is_read_only(self):
        buffer = AppendBuffer()
        buffer.append(1)
        view = buffer.view()
        with pytest.raises(ValueError):
            view[0] = 2

    def test_take_resets_and_copies(self):
        buffer = AppendBuffer(capacity=4)
        buffer.extend(np.arange(10, dtype=np.int64))
        taken = buffer.take()
        np.testing.assert_array_equal(taken, np.arange(10))
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
        np.testing.assert_array_equal(buffer.view(), expected)


class TestKeepSorted:
    """The buffer owns the order of a step the sketch sorted whole."""

    def test_the_chunk_replaces_the_contents_in_place(self):
        buffer = AppendBuffer(capacity=2)
        buffer.extend(np.asarray([3, 1, 2]))
        backing = buffer._data
        buffer.keep_sorted(np.asarray([1, 2, 3]))
        assert buffer._data is backing and len(buffer) == 3
        np.testing.assert_array_equal(buffer.view(), [1, 2, 3])
        buffer.extend(np.asarray([9, 7]))  # later arrivals stay as they came
        np.testing.assert_array_equal(buffer.take(), [1, 2, 3, 9, 7])

    def test_a_chunk_of_another_size_is_refused(self):
        buffer = AppendBuffer()
        buffer.extend(np.asarray([3, 1, 2]))
        with pytest.raises(ValueError):
            buffer.keep_sorted(np.asarray([1, 2]))
