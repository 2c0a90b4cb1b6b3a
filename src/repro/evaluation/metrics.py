"""Accuracy metrics (Section 3.1).

The paper measures *relative error*: ``|r - r_hat| / (phi * N)`` where
``r`` is the rank a phi-quantile query targets and ``r_hat`` is the
true rank (in T) of the element the algorithm returned.  True ranks
come from the :class:`~repro.sketches.exact.ExactQuantiles` oracle the
runner feeds alongside the engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.query_path import QueryResult
from ..sketches.exact import ExactQuantiles


@dataclass(frozen=True)
class QueryAccuracy:
    """A query result annotated with its oracle-measured accuracy."""

    result: QueryResult
    true_rank: int
    rank_error: int
    relative_error: float


def measure(result: QueryResult, oracle: ExactQuantiles) -> QueryAccuracy:
    """Annotate a query result with its true rank error.

    The oracle must cover exactly the data the query did (full dataset
    or window).  An element ``e`` occupies the whole rank interval
    ``[#(< e) + 1, #(<= e)]``; the rank error is the distance from the
    target rank to that interval, which is zero exactly when ``e`` is a
    correct answer (this matches the paper's ``|r - r_hat|`` on
    duplicate-free data and stays fair on duplicate-heavy data, where
    even the exact quantile element spans many ranks).
    """
    rank_high = oracle.rank(result.value)
    rank_low = oracle.rank_strict(result.value) + 1
    target = result.target_rank
    rank_error = max(0, rank_low - target, target - rank_high)
    denominator = max(1, target)
    return QueryAccuracy(
        result=result,
        true_rank=rank_high,
        rank_error=rank_error,
        relative_error=rank_error / denominator,
    )

