"""The quick-path query coalescer: many requests, one TS read.

The quick response (Algorithm 5) is a binary search over the combined
summary TS — but *building* TS (merging every partition summary with
the stream summary and computing rank bounds) dominates its cost, and
requests read at one version see the identical TS.  The service takes
every quick request queued at once as one batch, on the thread of a
caller waiting for one of them (waiting first only while an accurate
search runs, so that requests arriving meanwhile join).  The coalescer
answers it with one TS per window scope, read through the system's own
pin-free quick path, plus one rank-bound lookup per distinct phi.
This is the data-fusion insight (PAPERS.md: quantile trackers shared
across streams) applied to our read path: merges per request drop
below one, which is the serving benchmark's headline number.

Duplicate phis inside a batch are answered once and fanned out, so a
thundering herd of dashboards refreshing the same p99 costs one
answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..sketches.base import rank_for_phi

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.query_path import PinnedQueries
    from .metrics import ServiceMetrics
    from .service import PendingQuery


def answer_quick_batch(
    engine: "PinnedQueries",
    batch: "List[PendingQuery]",
    metrics: "ServiceMetrics",
) -> None:
    """Answer a coalesced batch of quick requests, pinning nothing.

    Requests are grouped by window scope (each scope reads its own TS),
    deduplicated by phi within each group, and every request is
    fulfilled with the epoch its group's TS was read at — or failed
    with the batch's exception, so no waiter hangs.
    """
    groups: "Dict[object, List[PendingQuery]]" = {}
    for request in batch:
        groups.setdefault(request.window_steps, []).append(request)
    try:
        for window_steps, requests in groups.items():
            phis = list(dict.fromkeys(r.phi for r in requests))
            results, epoch = engine._quick_at(phis, rank_for_phi, window_steps)
            if any(r.partial is not None for r in results):
                metrics.count(partial_gathers=len(requests))
            table = dict(zip(phis, results))
            for request in requests:
                request._settle(table[request.phi], epoch)
    except BaseException as exc:
        for request in batch:
            if not request.done:
                request._settle(error=exc)
        raise
    metrics.count(
        coalesced_batches=1,
        coalesced_requests=len(batch),
        max_batch=len(batch),
        ts_merges=len(groups),
    )


def dedupe_key(request: "PendingQuery") -> Tuple[float, object]:
    """Requests with equal keys may share one answer."""
    return (request.phi, request.window_steps)
