"""Golden test: the worked example of the paper's Figure 3.

Three partitions (1..100, 101..200, 2..201), a stream 401..600 with the
summary values printed in the figure, eps = 1/2 (eps1 = 1/4,
eps2 = 1/8).  The figure lists TS and, for every element, the bounds
L_i and U_i; this test reproduces all three rows exactly.
"""

import numpy as np

from repro.core.bounds import CombinedSummary
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition

from .ts_arrays_reference import paper_arrays

EPS1 = 0.25
EPS2 = 0.125

EXPECTED_TS = [
    1, 2, 25, 50, 51, 75, 100, 101, 101, 125, 150, 151,
    175, 200, 201, 401, 438, 452, 480, 520, 530, 565, 595, 600,
]
EXPECTED_L = [
    0, 0, 25, 50, 100, 125, 150, 200, 200, 225, 250, 300,
    325, 350, 400, 400, 425, 450, 475, 500, 525, 550, 575, 600,
]
EXPECTED_U = [
    25, 75, 100, 125, 175, 200, 225, 300, 300, 325, 350, 400,
    425, 450, 500, 525, 550, 575, 600, 625, 650, 675, 700, 725,
]
STREAM_SUMMARY = [401, 438, 452, 480, 520, 530, 565, 595, 600]


def build_example():
    disk = SimulatedDisk(block_elems=16)

    def partition(data):
        run = SortedRun(disk, np.asarray(data, dtype=np.int64))
        p = Partition(level=0, start_step=1, end_step=1, run=run)
        p.summary = PartitionSummary.build(p, EPS1)
        return p

    p1 = partition(np.arange(1, 101))
    p2 = partition(np.arange(101, 201))
    p3 = partition(np.arange(2, 202))
    ss = StreamSummary(
        values=np.asarray(STREAM_SUMMARY, dtype=np.int64),
        stream_size=200,
        eps2=EPS2,
    )
    combined = CombinedSummary.build([p1.summary, p2.summary, p3.summary], ss)
    return p1, p2, p3, ss, combined


class TestFigure3:
    def test_partition_summaries(self):
        p1, p2, p3, _, _ = build_example()
        np.testing.assert_array_equal(p1.summary.values, [1, 25, 50, 75, 100])
        np.testing.assert_array_equal(
            p2.summary.values, [101, 125, 150, 175, 200]
        )
        np.testing.assert_array_equal(p3.summary.values, [2, 51, 101, 151, 201])
        np.testing.assert_array_equal(p3.summary.positions, [1, 50, 100, 150, 200])

    def test_ts_values(self):
        *_, combined = build_example()
        assert combined.total_size == 600
        values = paper_arrays(combined).values
        np.testing.assert_array_equal(values, EXPECTED_TS)

    def test_lower_bounds_match_figure(self):
        *_, combined = build_example()
        np.testing.assert_allclose(paper_arrays(combined).lower, EXPECTED_L)

    def test_upper_bounds_match_figure(self):
        *_, combined = build_example()
        np.testing.assert_allclose(paper_arrays(combined).upper, EXPECTED_U)

    def test_bounds_bracket_true_ranks(self):
        """Lemma 2 part 1 on the example's actual data."""
        p1, p2, p3, ss, combined = build_example()
        everything = np.concatenate(
            [
                np.arange(1, 101),
                np.arange(101, 201),
                np.arange(2, 202),
                np.arange(401, 601),
            ]
        )
        everything.sort()
        arrays = paper_arrays(combined)
        for value, lo, up in zip(arrays.values, arrays.lower, arrays.upper):
            true = int(np.searchsorted(everything, value, side="right"))
            assert lo <= true <= up, (value, lo, true, up)

    def test_quick_response_definition(self):
        *_, combined = build_example()
        # smallest j with L_j >= 300 is the element 151
        assert combined.quick_response(300) == 151
        # beyond every bound: returns the last element
        assert combined.quick_response(10**6) == 600

    def test_generate_filters_bracket(self):
        *_, combined = build_example()
        u, v = combined.generate_filters(300)
        assert (u, v) == (101, 151)

    def test_generate_filters_low_rank(self):
        *_, combined = build_example()
        u, v = combined.generate_filters(1)
        assert u == 0  # min - 1 sentinel, rank 0
        # smallest i with L_i >= 1 is the element 25 (L = 25)
        assert v == 25
