"""The exact oracle on duplicate-heavy data and racing writes."""

from types import SimpleNamespace

import numpy as np

from bench.oracle import PRELOADED, Answer, Oracle


def result(value, target, total, bound, mode="accurate", degraded=False):
    return SimpleNamespace(
        value=value, target_rank=target, total_size=total,
        rank_error_bound=bound, mode=mode, degraded=degraded,
    )


def answer(res, submit=1.0, done=2.0, mode="accurate"):
    return Answer(mode, 0.5, submit, done, res)


DUPLICATES = np.array([5] * 600 + [7] * 300 + [9] * 100, dtype=np.int64)
WRITES = [(PRELOADED, PRELOADED, DUPLICATES)]


def test_any_rank_inside_a_run_of_duplicates_is_exact():
    # 7 occupies ranks 601..900: every target in there has error 0.
    for target in (601, 750, 900):
        verdict = Oracle().verify(WRITES, [answer(result(7, target, 1000, 0.0))])
        assert verdict.failures == []


def test_error_is_the_distance_to_the_rank_interval():
    oracle = Oracle()
    assert oracle.verify(
        WRITES, [answer(result(7, 910, 1000, 10.0))]
    ).failures == []
    verdict = oracle.verify(WRITES, [answer(result(7, 920, 1000, 10.0))])
    assert len(verdict.failures) == 1 and "error 20" in verdict.failures[0]
    assert verdict.err_over_bound_max["accurate"] == 2.0


def test_slack_covers_integer_rounding_only():
    verdict = Oracle().verify(WRITES, [answer(result(7, 903, 1000, 0.9))])
    assert len(verdict.failures) == 1


def test_corrupted_value_fails():
    good = result(7, 750, 1000, 5.0)
    bad = result(9, 750, 1000, 5.0)
    assert Oracle().verify(WRITES, [answer(good)]).failures == []
    assert len(Oracle().verify(WRITES, [answer(bad)]).failures) == 1


def test_degraded_answer_fails_even_inside_its_bound():
    degraded = result(7, 750, 1000, 60.0, mode="accurate", degraded=True)
    verdict = Oracle().verify(WRITES, [answer(degraded)])
    assert len(verdict.failures) == 1 and "degraded" in verdict.failures[0]


def test_exceptions_and_lost_elements_are_failed_operations():
    raised = Answer("quick", 0.5, 1.0, 2.0, None, "Overloaded: queue full")
    short = answer(result(7, 750, 900, 5.0))
    verdict = Oracle().verify(WRITES, [raised, short])
    assert len(verdict.failures) == 2
    assert "total_size" in verdict.failures[1]


def test_racing_write_widens_the_interval_not_the_bound():
    racing = np.full(200, 1, dtype=np.int64)  # all below 7
    writes = WRITES + [(1.5, 1.8, racing)]  # started and acked mid-query
    # Seen: rank of 7 is 801..1100 and N = 1200.  Not seen: 601..900, 1000.
    for target, total in ((650, 1000), (1050, 1200)):
        verdict = Oracle().verify(
            writes, [answer(result(7, target, total, 0.0))]
        )
        assert verdict.failures == []
    late = Oracle().verify(writes, [answer(result(7, 1150, 1200, 0.0))])
    assert len(late.failures) == 1
    # Acked before submit: definitely visible, no widening.
    early = WRITES + [(0.1, 0.2, racing)]
    verdict = Oracle().verify(early, [answer(result(7, 650, 1200, 0.0))])
    assert len(verdict.failures) == 1
