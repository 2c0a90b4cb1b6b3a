"""Tests for the capped-exponential-backoff retry policy."""

import pytest

from repro.faults import RetryPolicy, TransientReadError
from repro.faults.errors import CorruptedBlockError


def flaky(failures, exc_factory=lambda k: TransientReadError("read", k)):
    """A callable failing ``failures`` times before returning 42."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc_factory(state["calls"])
        return 42

    fn.state = state
    return fn


class TestRetryPolicy:
    def test_no_retries_by_default(self):
        with pytest.raises(TransientReadError):
            RetryPolicy().call(flaky(1))

    def test_retries_transient_until_success(self):
        fn = flaky(3)
        assert RetryPolicy(max_retries=3).call(fn) == 42
        assert fn.state["calls"] == 4

    def test_exhausted_budget_raises_last_fault(self):
        with pytest.raises(TransientReadError):
            RetryPolicy(max_retries=2).call(flaky(5))

    def test_persistent_faults_never_retried(self):
        fn = flaky(1, exc_factory=lambda k: CorruptedBlockError("read", k))
        with pytest.raises(CorruptedBlockError):
            RetryPolicy(max_retries=5).call(fn)
        assert fn.state["calls"] == 1

    def test_unrelated_exceptions_never_retried(self):
        fn = flaky(1, exc_factory=lambda k: KeyError(k))
        with pytest.raises(KeyError):
            RetryPolicy(max_retries=5).call(fn)
        assert fn.state["calls"] == 1

    def test_on_retry_callback_sees_each_fault(self):
        seen = []
        RetryPolicy(max_retries=3).call(
            flaky(2), on_retry=lambda fault, attempt: seen.append(attempt)
        )
        assert seen == [1, 2]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            max_retries=10, backoff_seconds=0.1, backoff_cap_seconds=0.4
        )
        delays = [policy.sleep_before(k) for k in range(1, 7)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert max(delays) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)

