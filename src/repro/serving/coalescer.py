"""The quick-path query coalescer: many requests, one TS merge.

The quick response (Algorithm 5) is a binary search over the combined
summary TS — but *building* TS (merging every partition summary with
the stream summary and computing rank bounds) dominates its cost.  Two
requests pinned at the same epoch see the identical TS, so the merge is
shareable.  The service takes every quick request queued at once as
one batch, on the thread of a caller waiting for one of them, and
waits first only while an accurate search runs, so that requests
arriving meanwhile join.  The coalescer pins **one**
:class:`~repro.core.epoch.SnapshotHandle` and answers the whole batch
with one cached TS plus one rank-bound lookup per distinct phi
(:meth:`~repro.core.bounds.CombinedSummary.quick_responses`).  This is
the data-fusion insight (PAPERS.md: quantile trackers shared across
streams) applied to our read path: merges per request drop below one,
which is the serving benchmark's headline number.

Duplicate phis inside a batch are answered once and fanned out, so a
thundering herd of dashboards refreshing the same p99 costs one
answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import HybridQuantileEngine
    from ..core.epoch import SnapshotHandle
    from .metrics import ServiceMetrics
    from .service import PendingQuery


def answer_quick_batch(
    engine: "HybridQuantileEngine",
    batch: "List[PendingQuery]",
    metrics: "ServiceMetrics",
    warm: "Optional[Callable[[SnapshotHandle, List[float]], None]]" = None,
) -> None:
    """Answer a coalesced batch of quick requests against one pin.

    Requests are grouped by window scope (different windows need
    different merges), deduplicated by phi within each group, and every
    request is fulfilled — or failed with the batch's exception, so no
    waiter hangs.  ``warm``, when given, runs once against the pinned
    handle with the batch's distinct phis — the service uses it to
    prefetch the shared block tier once per epoch-batch.
    """
    try:
        with engine.pin() as handle:
            if warm is not None:
                warm(handle, list(dict.fromkeys(r.phi for r in batch)))
            merges_before = handle.ts_merges_built
            groups: "Dict[object, List[PendingQuery]]" = {}
            for request in batch:
                groups.setdefault(request.window_steps, []).append(request)
            for window_steps, requests in groups.items():
                phis = list(dict.fromkeys(r.phi for r in requests))
                results = handle.quantile_many(
                    phis, mode="quick", window_steps=window_steps
                )
                table = dict(zip(phis, results))
                partial = sum(
                    1
                    for r in results
                    if getattr(r, "partial", None) is not None
                )
                if partial:
                    metrics.note_partial(len(requests))
                for request in requests:
                    request._fulfill(table[request.phi], handle.epoch)
            merges = handle.ts_merges_built - merges_before
    except BaseException as exc:
        for request in batch:
            if not request.done:
                request._fail(exc)
        raise
    metrics.note_batch(len(batch), merges)


def dedupe_key(request: "PendingQuery") -> Tuple[float, object]:
    """Requests with equal keys may share one answer."""
    return (request.phi, request.window_steps)
