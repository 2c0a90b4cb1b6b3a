"""Retry-with-backoff for transient disk faults.

One policy object serves both hot paths that touch the disk: the
background archiver (retrying a whole stage/adopt attempt) and the
query executor (retrying one partition probe).  Only *transient*
:class:`~repro.faults.DiskFault` subtypes are retried — a persistent
fault (corruption) or any non-fault exception propagates immediately,
because retrying cannot change the outcome.

Backoff is capped exponential: attempt ``k`` sleeps
``min(base * 2**(k-1), cap)`` seconds, optionally shaved by seeded
jitter so a fleet of retriers does not thunder in lockstep.  The
jittered schedule is a pure function of ``(seed, attempt)`` — no
global RNG, no hidden state — so the same policy replays the same
sleeps, which is what lets the chaos harness assert recovery timing
deterministically.  The defaults are deliberately tiny (the simulated
disk has no real latency to wait out); the two policies every engine
and cluster runs under are :data:`ARCHIVE_RETRY_POLICY` and
:data:`PROBE_RETRY_POLICY` below.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import DiskFault
from .plan import _MIX


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient fault, and how patiently.

    Parameters
    ----------
    max_retries:
        Retries *after* the first attempt; ``0`` disables retrying.
    backoff_seconds:
        Base sleep before the first retry.
    backoff_cap_seconds:
        Ceiling on any single sleep.
    jitter:
        Fraction of each (capped) sleep randomized away: retry ``k``
        sleeps ``capped * (1 - jitter * u)`` where ``u`` is a uniform
        variate keyed on ``(seed, k)``.  ``0`` (the default) keeps the
        exact legacy schedule.
    seed:
        Seeds the jitter draws; two policies with the same seed sleep
        the same schedule.  ``None`` behaves as seed 0 — jitter is
        *always* deterministic, never wall-clock or global-RNG fed.
    """

    max_retries: int = 0
    backoff_seconds: float = 0.0
    backoff_cap_seconds: float = 1.0
    jitter: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0.0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_cap_seconds < 0.0:
            raise ValueError("backoff_cap_seconds must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def _jitter_draw(self, attempt: int) -> float:
        # Same keyed-RNG idiom as FaultPlan._draw: a fresh Random per
        # (seed, attempt) key — pure, replayable, order-independent.
        seed = self.seed if self.seed is not None else 0
        key = ((seed << 32) ^ (attempt * _MIX)) & (2**64 - 1)
        return random.Random(key).random()

    def sleep_before(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if self.backoff_seconds <= 0.0:
            return 0.0
        capped = min(
            self.backoff_seconds * (2.0 ** (attempt - 1)),
            self.backoff_cap_seconds,
        )
        if self.jitter > 0.0:
            capped *= 1.0 - self.jitter * self._jitter_draw(attempt)
        return capped

    def call(
        self,
        fn: Callable[..., Any],
        on_retry: Optional[Callable[[DiskFault, int], None]] = None,
        *args: Any,
    ) -> Any:
        """Run ``fn(*args)``, retrying transient faults per this policy.

        ``on_retry(fault, attempt)`` is invoked before each retry (for
        counters/logging).  The final failure — transient faults past
        the budget, persistent faults, any other exception — is raised
        unchanged.
        """
        attempt = 0
        while True:
            try:
                return fn(*args)
            except DiskFault as fault:
                if not fault.transient or attempt >= self.max_retries:
                    raise
                attempt += 1
                if on_retry is not None:
                    on_retry(fault, attempt)
                pause = self.sleep_before(attempt)
                if pause > 0.0:
                    time.sleep(pause)


#: The policy every sealed batch is archived under, in either ingest
#: mode: a batch that still faults after 32 consecutive retries stays
#: pending (and queryable) and the typed error reaches the producer.
ARCHIVE_RETRY_POLICY = RetryPolicy(
    max_retries=32, backoff_seconds=0.002, backoff_cap_seconds=0.25
)

#: The policy the query executor runs one partition probe under before
#: the accurate search gives up (and, with ``degrade_on_fault``, the
#: query falls back to the quick response).
PROBE_RETRY_POLICY = RetryPolicy(
    max_retries=3, backoff_seconds=0.002, backoff_cap_seconds=0.25
)
