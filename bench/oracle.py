"""Exact-rank verification of every sampled answer.

The harness logs each write as ``(start, end, values)`` and each answer
as an :class:`Answer` with its submit/completion times; this module
replays the log *after* the timed region and checks the paper's
contract for the mode actually served: the true rank of the returned
value must lie within ``QueryResult.rank_error_bound`` of
``target_rank``.

Under duplicates a value has a rank *interval* ``[#{x < v} + 1,
#{x <= v}]``, and the error is the distance from the target to that
interval.  A query racing writes (``mixed_serving``) saw some set
``S`` with ``definite <= S <= possible``, where *definite* are the
writes acked before it was submitted and *possible* those started
before it completed; the interval is widened to ``[#{x < v in
definite} + 1, #{x <= v in possible}]`` — exactly "the bound widened by
the elements acked between submit and completion".  On a single thread
the two sets coincide and the check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: writes visible before the measured phase started (the pre-load).
PRELOADED = float("-inf")

#: ranks of slack on top of ``rank_error_bound``.  Bounds are reals
#: (``eps * m``), ranks are integers and summary positions are rounded
#: up, so on a tiny stream an answer can sit a rank or two outside a
#: bound below 1; ``tests/test_differential.py`` grants the same ``+ 2``.
#: At benchmark scale the bounds are in the tens to thousands.
RANK_SLACK = 2


@dataclass
class Answer:
    """One served (or failed) query as the harness observed it."""

    mode: str
    phi: float
    submit: float
    done: float
    #: the ``QueryResult``; ``None`` when the call raised.
    result: Optional[object] = None
    #: ``"<ExceptionType>: message"`` when the call raised.
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Caller-observed seconds."""
        return self.done - self.submit


@dataclass
class Verdict:
    """Outcome of verifying one round's answers."""

    checked: int
    #: human-readable description per failed operation.
    failures: List[str]
    #: max over answers of (observed rank error / rank_error_bound),
    #: per mode served; 0.0 when a mode had no answers.
    err_over_bound_max: Dict[str, float]


class Oracle:
    """Replays write logs; caches one sorted copy per distinct array."""

    def __init__(self) -> None:
        self._sorted: Dict[Tuple[int, int], np.ndarray] = {}

    def _sorted_copy(self, values: np.ndarray) -> np.ndarray:
        # Rounds replay the same generated arrays (and the same chunk
        # views of them), so key on the buffer, not the view object.
        key = (values.__array_interface__["data"][0], values.size)
        cached = self._sorted.get(key)
        if cached is None:
            cached = self._sorted[key] = np.sort(values)
        return cached

    def brackets(
        self,
        writes: Sequence[Tuple[float, float, np.ndarray]],
        submits: np.ndarray,
        dones: np.ndarray,
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rank_lo, rank_hi, size_lo, size_hi)`` per answer."""
        n = len(values)
        rank_lo = np.ones(n, dtype=np.int64)
        rank_hi = np.zeros(n, dtype=np.int64)
        size_lo = np.zeros(n, dtype=np.int64)
        size_hi = np.zeros(n, dtype=np.int64)
        for start, end, chunk in writes:
            ordered = self._sorted_copy(chunk)
            definite = end <= submits
            possible = start < dones
            if definite.all():
                rank_lo += np.searchsorted(ordered, values, side="left")
                size_lo += ordered.size
            elif definite.any():
                rank_lo[definite] += np.searchsorted(
                    ordered, values[definite], side="left"
                )
                size_lo[definite] += ordered.size
            if possible.all():
                rank_hi += np.searchsorted(ordered, values, side="right")
                size_hi += ordered.size
            elif possible.any():
                rank_hi[possible] += np.searchsorted(
                    ordered, values[possible], side="right"
                )
                size_hi[possible] += ordered.size
        return rank_lo, rank_hi, size_lo, size_hi

    def verify(
        self,
        writes: Sequence[Tuple[float, float, np.ndarray]],
        answers: Sequence[Answer],
    ) -> Verdict:
        """Check every answer; failed calls count as failed operations.

        A failure is an exception (``Overloaded`` and timeouts
        included), a ``degraded`` answer (no workload injects faults), a
        ``total_size`` outside what the query could have seen, or a
        rank error beyond ``rank_error_bound``.
        """
        failures: List[str] = []
        served = []
        for answer in answers:
            if answer.error is not None:
                failures.append(
                    f"{answer.mode} phi={answer.phi:.4f}: {answer.error}"
                )
            else:
                served.append(answer)
        worst = {"quick": 0.0, "accurate": 0.0}
        if served:
            submits = np.array([a.submit for a in served])
            dones = np.array([a.done for a in served])
            values = np.array(
                [a.result.value for a in served], dtype=np.int64
            )
            lo, hi, size_lo, size_hi = self.brackets(
                writes, submits, dones, values
            )
            for i, answer in enumerate(served):
                result = answer.result
                label = f"{answer.mode} phi={answer.phi:.4f}"
                if result.degraded:
                    failures.append(f"{label}: degraded with no fault injected")
                    continue
                if not size_lo[i] <= result.total_size <= size_hi[i]:
                    failures.append(
                        f"{label}: total_size {result.total_size} outside "
                        f"[{size_lo[i]}, {size_hi[i]}]"
                    )
                    continue
                target = result.target_rank
                error = max(0, int(lo[i]) - target, target - int(hi[i]))
                bound = float(result.rank_error_bound)
                ratio = error / bound if bound > 0 else float(error > 0)
                worst[result.mode] = max(worst[result.mode], ratio)
                if error > bound + RANK_SLACK:
                    failures.append(
                        f"{label}: value {result.value} has rank in "
                        f"[{lo[i]}, {hi[i]}], target {target}, error "
                        f"{error} > bound {bound:.3f}"
                    )
        return Verdict(
            checked=len(answers), failures=failures, err_over_bound_max=worst
        )
