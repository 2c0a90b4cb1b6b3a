"""Sharded multi-engine cluster: fan-out ingest, fused queries.

:class:`ClusterEngine` runs N in-process
:class:`~repro.core.engine.HybridQuantileEngine` shards, each with its
**own** :class:`~repro.storage.disk.SimulatedDisk` — the cluster models
N independent devices, which is exactly what sharding buys: ingest I/O
(sort + archive + merges) divides across devices, so the simulated
critical path (``max`` over shards) shrinks ~linearly with the shard
count even though this process is single-threaded.  A
:class:`~repro.cluster.router.ShardRouter` places elements; batched
ingest fans a numpy array out per shard in one vectorized pass.

Queries go through :class:`ClusterSnapshot`, which pins every shard
(``engine.pin()`` per shard, in shard order) and answers through the
single engine's :mod:`repro.core.query_path` scope and functions, over
the shards' partitions (shard-major) and **one** stream: their pinned
KLL sketches merged by :meth:`~repro.sketches.kll.KLLSketch.merge_many`,
which keeps the ``eps`` bound over the union.  A cluster therefore
needs ``sketch_backend='kll'``; GK sketches do not merge.

* **quick** — one :class:`~repro.core.bounds.CombinedSummary` of every
  shard's partition summaries and the merged stream's SS, with the
  single-engine contract over the union: ``eps1 * n + eps2 * m``.
* **accurate** — scatter/gather: the *single-engine*
  :class:`~repro.core.filters.AccurateSearch` runs unchanged over the
  union of all shards' partitions; a :class:`ShardedBlockCache` routes
  each block touch to the owning shard's per-query cache (charging
  that shard's disk), and the stream term of every rank estimate is
  the merged sketch's bracket.  With ``shards == 1`` the shard's own
  stream is the union, and every probe, filter and snap is
  bit-identical to the plain engine.

The snapshot's epoch is the tuple of per-shard epochs — hashable and
comparable, so the serving layer's coalescer groups cluster requests
exactly as it groups single-engine ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.bounds import CombinedSummary, PartialResult, widen_rank_bound
from ..core.config import EngineConfig
from ..core.engine import HybridQuantileEngine, StepReport
from ..core.epoch import HistoricalMemo, SnapshotHandle, StreamView
from ..core.query_path import (
    PinnedQueries,
    PinnedView,
    QueryResult,
    QueryScope,
    answer_rank,
)
from ..faults.disk import FaultyDisk
from ..faults.errors import DiskFault
from ..faults.plan import FaultPlan
from ..faults.retry import PROBE_RETRY_POLICY
from ..ingest.wal import WriteAheadLog
from ..query.executor import QueryExecutor
from ..sketches.base import as_int64_batch
from ..sketches.kll import KLLSketch
from ..warehouse.partition import Partition
from .router import ShardRouter


class ClusterUnavailable(RuntimeError):
    """Too few live shards to satisfy the gather contract."""


class ShardErrors(RuntimeError):
    """Multiple shards failed the same lifecycle operation.

    Raised by :meth:`ClusterEngine.flush` / :meth:`ClusterEngine.close`
    when more than one shard fails, so no shard's poison state is
    masked by an earlier shard's exception.  ``errors`` maps shard
    index to the exception that shard raised.
    """

    def __init__(
        self, operation: str, errors: Mapping[int, BaseException]
    ) -> None:
        self.operation = operation
        self.errors: Dict[int, BaseException] = dict(errors)
        detail = "; ".join(
            f"shard {index}: {type(exc).__name__}: {exc}"
            for index, exc in sorted(self.errors.items())
        )
        super().__init__(
            f"{len(self.errors)} shards failed during {operation}: {detail}"
        )


def shard_dir(root: "str | Path", index: int) -> Path:
    """Shard ``index``'s ``shard-NN`` entry under ``root`` — the one
    layout of checkpoints, WALs, storage directories and transcripts."""
    return Path(root) / f"shard-{index:02d}"


def shard_config(config: EngineConfig, index: int) -> EngineConfig:
    """The engine config shard ``index`` runs under.

    File-backed storage backends must not share a directory across
    shards, so an explicit ``storage_dir`` is specialized to the
    shard's ``shard-NN/`` subdirectory (mirroring the WAL/checkpoint
    layout).  A ``None`` directory already gives every shard its own
    private tempdir, and the simulated backend has no directory at all
    — both pass through unchanged.
    """
    if config.storage_backend == "simulated" or config.storage_dir is None:
        return config
    return replace(
        config,
        storage_dir=str(shard_dir(config.storage_dir, index)),
    )


def new_shard_disk(
    fault_plan: Optional[FaultPlan], config: EngineConfig, index: int
) -> Optional[FaultyDisk]:
    """A fresh device for building or restoring shard ``index``.

    Under a fault plan every device the slot ever gets draws the same
    per-shard schedule (:meth:`FaultPlan.for_shard
    <repro.faults.plan.FaultPlan.for_shard>`); ``None`` without one,
    letting the engine build a plain simulated disk.
    """
    if fault_plan is None:
        return None
    return FaultyDisk(
        fault_plan.for_shard(index), block_elems=config.block_elems
    )


class ShardedBlockCache:
    """Routes block touches to the owning shard's per-query cache.

    :class:`~repro.core.filters.AccurateSearch` talks to one cache; a
    cluster query spans runs on N distinct simulated disks.  This
    multiplexer maps each ``run_id`` (globally unique across disks) to
    the per-query :class:`~repro.storage.cache.BlockCache` of the handle
    that pinned the run, so every charge lands on the disk that actually
    holds the run — per-shard I/O accounting stays exact.  Only the
    handles given are reachable: a stray touch of another shard's run
    raises ``KeyError`` rather than silently re-faulting.

    When a touch raises a :class:`~repro.faults.DiskFault`, the owning
    handle's position is recorded in :attr:`failed_shard` before the
    fault propagates — the culprit attribution the partial-gather retry
    loop uses to exclude exactly the shard that failed.  (A search
    reaches the disks only through its cache, so every fault it sees
    has a culprit.)
    """

    def __init__(self, handles: Sequence[SnapshotHandle]) -> None:
        self._caches = [handle._new_cache() for handle in handles]
        self._run_to_shard = {
            p.run.run_id: i
            for i, handle in enumerate(handles)
            for p in handle.partitions
        }
        #: handle position whose disk faulted a touch (None until then).
        self.failed_shard: Optional[int] = None
        # Prefetch gating mirrors BlockCache.shared: enabled when any
        # shard reads through a shared tier.
        self.shared = next(
            (c.shared for c in self._caches if c.shared is not None), None
        )

    def _shard_of(self, run_id: int) -> int:
        try:
            return self._run_to_shard[run_id]
        except KeyError:
            raise KeyError(
                f"run {run_id} is not pinned by this cluster snapshot"
            ) from None

    def touch_range(
        self,
        run_id: int,
        first_block: int,
        last_block: int,
        prefetch: bool = False,
    ) -> int:
        """Charge a read on the owning shard's disk, a fault attributed."""
        shard = self._shard_of(run_id)
        try:
            return self._caches[shard].touch_range(
                run_id, first_block, last_block, prefetch
            )
        except DiskFault:
            self.failed_shard = shard
            raise

    # The rest of the surface SortedRun reads through: a block's bytes
    # are pinned in the cache of the shard that was charged for them.
    # None of these reaches a disk, so there is no fault to attribute.

    def pins(self, run_id: int) -> bool:
        """Whether the owning shard's cache pins the blocks it charges."""
        return self._caches[self._shard_of(run_id)].pins(run_id)

    def pinned_block(self, run_id: int, block: int) -> Optional[np.ndarray]:
        """The payload the owning shard's cache pinned for ``block``."""
        return self._caches[self._shard_of(run_id)].pinned_block(run_id, block)

    def pin_block(self, run_id: int, block: int, payload: np.ndarray) -> None:
        """Pin a fetched block in the owning shard's cache."""
        self._caches[self._shard_of(run_id)].pin_block(run_id, block, payload)

    @property
    def blocks_charged(self) -> int:
        """Total blocks charged across every shard (scatter sum)."""
        return sum(c.blocks_charged for c in self._caches)

    def run_blocks(self) -> Dict[int, int]:
        """Blocks charged so far per run id, across every shard."""
        merged: Dict[int, int] = {}
        for cache in self._caches:
            merged.update(cache.run_blocks())
        return merged


_NEEDS_KLL = "a cluster merges its stream sketches: sketch_backend='kll'"


def merged_stream(views: Sequence[StreamView], eps2: float) -> StreamView:
    """One view over the union of ``views``' streams: their KLL sketches
    merged (a single view is its own union)."""
    if len(views) == 1:
        return views[0]
    sketches = [view.sketch for view in views]
    if not all(isinstance(sketch, KLLSketch) for sketch in sketches):
        raise ValueError(_NEEDS_KLL)
    return StreamView(KLLSketch.merge_many(sketches), eps2)


class ClusterSnapshot(PinnedView):
    """A pinned, consistent view across every shard of a cluster.

    Holds one :class:`~repro.core.epoch.SnapshotHandle` per shard (in
    shard order).  The verbs and the scope are
    :class:`~repro.core.query_path.PinnedView`'s, over the shard-major
    concatenation of the handles' partitions and their merged stream,
    so the serving layer drives a cluster exactly as it drives a single
    engine; what is here is the gather: the per-shard block cache and
    the culprit-exclusion retry with its partial results.

    Can be built from any list of pinned handles (not only via
    :meth:`ClusterEngine.pin`): the equivalence harness constructs one
    over *standalone* engines that replayed recorded per-shard feeds
    and checks the answers match the cluster's bit for bit.

    Partial gathers: ``shard_ids`` names the cluster-wide id behind
    each handle and ``missing`` maps quarantined shard ids to their
    acked element counts.  When those are omitted the snapshot is
    every shard answering, nothing missing.

    ``historical_memo`` (the owning cluster's) and ``stream`` (the
    handles' merged stream) are what the caller already holds; without
    them the snapshot keeps its own memo and merges its own stream —
    the same arrays either way.
    """

    def __init__(
        self,
        handles: Sequence[SnapshotHandle],
        config: EngineConfig,
        executor: QueryExecutor,
        shard_ids: Optional[Sequence[int]] = None,
        missing: Optional[Mapping[int, int]] = None,
        historical_memo: Optional[HistoricalMemo] = None,
        stream: Optional[StreamView] = None,
    ) -> None:
        if not handles:
            raise ValueError("a cluster snapshot needs at least one shard")
        super().__init__(config, executor, handles[0]._latency)
        self.handles = list(handles)
        #: cluster-wide shard id behind each handle (handle order).
        self.shard_ids: "tuple[int, ...]" = (
            tuple(int(i) for i in shard_ids)
            if shard_ids is not None
            else tuple(range(len(self.handles)))
        )
        if len(self.shard_ids) != len(self.handles):
            raise ValueError(
                f"{len(self.shard_ids)} shard ids for "
                f"{len(self.handles)} handles"
            )
        #: quarantined-at-pin shard id -> acked elements it holds.
        self.missing: Dict[int, int] = (
            {int(k): int(v) for k, v in missing.items()} if missing else {}
        )
        #: tuple of per-shard epochs — hashable, so the coalescer's
        #: same-epoch batching works unchanged.
        self.epoch = tuple(h.epoch for h in self.handles)
        self.n_historical = sum(h.n_historical for h in self.handles)
        self.m_stream = sum(h.m_stream for h in self.handles)
        self._historical_memo = historical_memo or HistoricalMemo()
        self._stream = stream or merged_stream(
            [h._stream for h in self.handles], config.epsilon2
        )

    def _release_pins(self) -> None:
        for handle in self.handles:
            handle.release()

    # -- the union scope ------------------------------------------------

    def _partitions_in(
        self,
        window_steps: Optional[int],
        step_range: "Optional[tuple[int, int]]",
    ) -> List[Partition]:
        # Shard-major: the order the historical shares are summed in.
        return [
            p
            for handle in self.handles
            for p in handle._partitions_in(window_steps, step_range)
        ]

    def combined(
        self,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> CombinedSummary:
        """TS over every shard's scope (full scope cached)."""
        # Defined here only for bench/trace.py, which wraps the name it
        # finds in this class's own __dict__ (``cluster.fuse``).
        return super().combined(window_steps, step_range)

    def _new_cache(self) -> ShardedBlockCache:
        return ShardedBlockCache(self.handles)

    def _on_degraded(self, cache: ShardedBlockCache) -> None:
        # Counted on the shard whose disk faulted.
        self.handles[cache.failed_shard]._note_degraded()

    # -- queries --------------------------------------------------------

    def _answer(
        self,
        scope: QueryScope,
        rank: int,
        mode: str,
        cache: Optional[ShardedBlockCache] = None,
    ) -> QueryResult:
        """:func:`~repro.core.query_path.answer_rank` over the union
        scope, plus what is cluster-specific.

        *Culprit exclusion*: when a shard's disk faults mid-search and
        ``min_gather_shards`` leaves quorum to spare, that shard is
        excluded and the search re-run on a snapshot of the survivors.
        *Partial results*: with shards excluded here or quarantined at
        pin time, the answer's rank bound is widened by the missing
        shards' element counts (:func:`~repro.core.bounds.widen_rank_bound`)
        and a :class:`~repro.core.bounds.PartialResult` attached.  With
        every shard answering and no faults the result is
        ``answer_rank``'s, untouched — a 1-shard cluster runs the plain
        engine's lines.
        """
        started = time.perf_counter()
        quorum = max(1, self.config.min_gather_shards)
        view = self
        # Shard ids excluded mid-search -> their scoped counts.
        excluded: Dict[int, int] = {}
        while True:
            # A caller-shared cache only matches the full shard set;
            # exclusion retries get a fresh one over the survivors.
            if mode == "accurate" and (cache is None or excluded):
                cache = scope.new_cache()
            can_exclude = (
                self.config.min_gather_shards > 0
                and len(view.handles) - 1 >= quorum
            )
            try:
                result = answer_rank(
                    scope, rank, mode, self.config, self._executor,
                    self._latency, cache, degrade=not can_exclude,
                )
                break
            except DiskFault:
                if not can_exclude:
                    raise
                failed = cache.failed_shard
                culprit = view.handles[failed]
                parts = culprit._partitions_in(
                    scope.window_steps, scope.step_range
                )
                excluded[view.shard_ids[failed]] = sum(map(len, parts)) + (
                    culprit.m_stream if scope.step_range is None else 0
                )
                view = ClusterSnapshot(
                    view.handles[:failed] + view.handles[failed + 1:],
                    self.config,
                    self._executor,
                    shard_ids=view.shard_ids[:failed]
                    + view.shard_ids[failed + 1:],
                    historical_memo=self._historical_memo,
                )
                scope = view._query_scope(scope.window_steps, scope.step_range)
        result = self._with_partial(
            result, {**self.missing, **excluded}, len(view.handles)
        )
        if excluded:
            # The failed attempts are part of this query's latency.
            result = replace(
                result, wall_seconds=time.perf_counter() - started
            )
        return result

    def _answer_quick_many(
        self, scope: QueryScope, phis: Sequence[float]
    ) -> List[QueryResult]:
        return [
            self._with_partial(result, self.missing, len(self.handles))
            for result in super()._answer_quick_many(scope, phis)
        ]

    def _with_partial(
        self, result: QueryResult, missing: Mapping[int, int], answering: int
    ) -> QueryResult:
        """``result`` widened by, and reporting, the ``missing`` shards."""
        if not missing:
            return result
        lost = sum(missing.values())
        return replace(
            result,
            rank_error_bound=widen_rank_bound(result.rank_error_bound, lost),
            partial=PartialResult(
                missing_shards=tuple(sorted(missing)),
                missing_elements=lost,
                shards_answering=answering,
                base_bound=result.rank_error_bound,
            ),
        )


class ClusterEngine(PinnedQueries):
    """Facade over N engine shards: one logical stream, one query API.

    Construction creates the shards (each with a fresh simulated disk)
    and the router.  Ingest fans out deterministically; time steps
    advance in lockstep (``end_time_step`` seals every shard); queries
    pin all shards and gather.  The serving layer's
    :class:`~repro.serving.service.QueryService` drives a cluster
    through the same surface as a single engine — ``pin``, ``config``,
    ``shared_cache`` (``None``, so its views are never warmed) and
    ``disk``.

    Fault tolerance:

    * ``fault_plan`` wraps each shard's device in its own seeded
      :class:`~repro.faults.FaultyDisk` (see
      :meth:`FaultPlan.for_shard <repro.faults.plan.FaultPlan.for_shard>`
      for the derivation), so chaos scenarios replay from one integer.
    * ``wal_dir`` gives every shard a durable
      :class:`~repro.ingest.wal.WriteAheadLog` under
      ``<wal_dir>/shard-NN/``; acked ingest survives a shard crash.
    * :meth:`kill_shard` quarantines a poisoned shard — its slot turns
      ``None``, ingest routed to it banks into the retained WAL writer,
      queries gather partially (quorum permitting) — and
      :meth:`rejoin_shard` swaps a restored engine back in.  The
      :class:`~repro.cluster.supervisor.ShardSupervisor` automates the
      quarantine -> restore -> rejoin loop.
    """

    def __init__(
        self,
        shards: int = 2,
        config: Optional[EngineConfig] = None,
        epsilon: Optional[float] = None,
        engines: Optional[Sequence[HybridQuantileEngine]] = None,
        fault_plan: Optional[FaultPlan] = None,
        wal_dir: "Optional[str | Path]" = None,
    ) -> None:
        if config is None:
            if epsilon is None:
                raise ValueError("pass epsilon or a full EngineConfig")
            config = EngineConfig(epsilon=epsilon, sketch_backend="kll")
        if config.sketch_backend != "kll":
            raise ValueError(_NEEDS_KLL)
        self.config = config
        self.router = ShardRouter(shards)
        self.fault_plan = fault_plan
        if engines is not None:
            if fault_plan is not None:
                raise ValueError(
                    "fault_plan applies to cluster-built shards; wrap "
                    "the disks yourself when passing explicit engines"
                )
            if len(engines) != shards:
                raise ValueError(
                    f"got {len(engines)} engines for {shards} shards"
                )
            self.shards: "List[Optional[HybridQuantileEngine]]" = list(
                engines
            )
        else:
            self.shards = [
                HybridQuantileEngine(
                    config=shard_config(config, index),
                    disk=new_shard_disk(fault_plan, config, index),
                )
                for index in range(shards)
            ]
        self._wal_root: Optional[Path] = (
            Path(wal_dir) if wal_dir is not None else None
        )
        self._wals: "List[Optional[WriteAheadLog]]" = [None] * shards
        if self._wal_root is not None:
            for index, shard in enumerate(self.shards):
                wal = getattr(shard, "_wal", None)
                if wal is None:
                    wal = WriteAheadLog(
                        shard_dir(self._wal_root, index),
                        fsync=config.wal_fsync,
                    )
                    shard.attach_wal(wal)
                self._wals[index] = wal
        #: quarantined shard index -> reason string.
        self._quarantined: Dict[int, str] = {}
        #: cumulative acked elements per shard — cluster-side truth
        #: that survives a shard's death (recovery must match it).
        self._shard_elems: List[int] = [
            int(shard.n_total) for shard in self.shards
        ]
        self._executor = QueryExecutor(retry=PROBE_RETRY_POLICY)
        self._step = 0
        # TS's historical half per partition set (over the shard-major
        # concatenation) and the TS last fused onto it.
        self._historical_memo = HistoricalMemo()
        #: the shard views last merged, and their merge.
        self._merged: tuple = ([], None)
        self._merge_lock = threading.Lock()

    # -- ingest ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of engine shards (quarantined slots included)."""
        return len(self.shards)

    @property
    def quarantined_shards(self) -> Dict[int, str]:
        """Quarantined shard index -> reason (copy)."""
        return dict(self._quarantined)

    def _wal_only_append(self, shard: int, chunk: np.ndarray) -> None:
        """Bank a quarantined shard's sub-batch into its retained WAL.

        The append is durable before the caller's ack returns, so the
        supervisor's recovery (checkpoint + WAL roll-forward) observes
        every element ever acked for the slot.  Without a WAL there is
        nowhere durable to put the data — refuse the write.
        """
        wal = self._wals[shard]
        if wal is None:
            raise ClusterUnavailable(
                f"shard {shard} is quarantined and has no WAL to bank "
                "writes into"
            )
        wal.append_batch(chunk)

    def stream_update(self, value: int) -> None:
        """Route one live element to its shard (WAL-only if quarantined).

        The value is checked like a one-element batch before it is
        routed: what ``stream_update_many`` refuses raises here too.
        """
        arr = as_int64_batch([value])
        shard = self.router.shard_of(arr[0])
        engine = self.shards[shard]
        if engine is None:
            self._wal_only_append(shard, arr)
        else:
            engine.stream_update(int(arr[0]))
        self._shard_elems[shard] += 1

    def stream_update_many(self, values: np.ndarray) -> int:
        """Fan a numpy batch out per shard in one vectorized pass.

        Each shard receives its sub-stream in arrival order, so the
        fanned batch is indistinguishable from element-wise routing
        (and each shard's own batched path preserves its single-engine
        bit-identity contract).  Sub-batches routed to a quarantined
        shard are banked durably into its WAL and applied at recovery.
        Returns the number of elements ingested.
        """
        arr = as_int64_batch(values)
        if arr.size == 0:
            return 0
        for shard, chunk in enumerate(self.router.route_many(arr)):
            if not chunk.size:
                continue
            engine = self.shards[shard]
            if engine is None:
                self._wal_only_append(shard, chunk)
            else:
                engine.stream_update_many(chunk)
            self._shard_elems[shard] += int(chunk.size)
        return int(arr.size)

    def end_time_step(self) -> "List[Optional[StepReport]]":
        """Seal the current step on every shard (lockstep).

        Returns the per-shard step reports in shard order.  All shards
        seal even when a shard received no elements this step, so step
        numbering — and therefore windowed queries — stays aligned
        across the cluster.  A quarantined shard gets a seal frame in
        its WAL instead (recovery replays it to the same lockstep) and
        a ``None`` placeholder in the report list.
        """
        reports: "List[Optional[StepReport]]" = []
        for index, shard in enumerate(self.shards):
            if shard is None:
                wal = self._wals[index]
                if wal is not None:
                    wal.append_seal(self._step + 1)
                reports.append(None)
            else:
                reports.append(shard.end_time_step())
        self._step += 1
        return reports

    def flush(self) -> "List[Optional[List[StepReport]]]":
        """Drain every live shard's archiver (all attempted, errors joined).

        Every live shard is flushed even when an earlier one fails;
        quarantined slots yield ``None``.  A single failure re-raises
        that shard's original exception unchanged; multiple failures
        raise :class:`ShardErrors` carrying all of them, so one
        poisoned shard can never mask another's state.
        """
        results, errors = self._on_live_shards("flush")
        self._raise_joined("flush", errors)
        return results

    def _on_live_shards(
        self, verb: str
    ) -> "tuple[list, Dict[int, BaseException]]":
        """Call ``verb`` on every live shard, an earlier failure
        notwithstanding: per-slot results (``None`` where quarantined
        or failed) and the exceptions by shard."""
        results: list = [None] * len(self.shards)
        errors: Dict[int, BaseException] = {}
        for index, shard in enumerate(self.shards):
            if shard is None:
                continue
            try:
                results[index] = getattr(shard, verb)()
            except BaseException as exc:  # noqa: BLE001 - attempt all first
                errors[index] = exc
        return results, errors

    @staticmethod
    def _raise_joined(
        operation: str, errors: Dict[int, BaseException]
    ) -> None:
        if len(errors) == 1:
            raise next(iter(errors.values()))
        if errors:
            raise ShardErrors(operation, errors)

    # -- stats ----------------------------------------------------------

    @property
    def n_historical(self) -> int:
        """Elements archived across all live shards."""
        return sum(
            s.n_historical for s in self.shards if s is not None
        )

    @property
    def m_stream(self) -> int:
        """Live stream elements across all live shards."""
        return sum(s.m_stream for s in self.shards if s is not None)

    @property
    def n_total(self) -> int:
        """Total elements held by live shards (quarantined excluded)."""
        return self.n_historical + self.m_stream

    @property
    def n_acked(self) -> int:
        """Total elements ever acked, quarantined shards included."""
        return sum(self._shard_elems)

    @property
    def steps_sealed(self) -> int:
        """Lockstep count of sealed time steps."""
        return self._step

    @property
    def shared_cache(self):
        """Always ``None``: shared tiers live inside each shard.

        The serving layer warms a pinned view only when this is not
        ``None``, so a cluster's views are never warmed.
        """
        return None

    @property
    def disk(self):
        """First live shard's disk (protocol compatibility)."""
        for shard in self.shards:
            if shard is not None:
                return shard.disk
        raise ClusterUnavailable("every shard is quarantined")

    def available_window_sizes(self) -> List[int]:
        """Window sizes answerable on every live shard."""
        live = [s for s in self.shards if s is not None]
        if not live:
            return []
        common = set(live[0].available_window_sizes())
        for shard in live[1:]:
            common &= set(shard.available_window_sizes())
        return sorted(common)

    def per_shard_sim_seconds(self) -> List[float]:
        """Simulated seconds accrued on each shard's device so far.

        ``max`` over the list is the cluster's I/O critical path — the
        wall-clock a deployment with one real device per shard would
        observe; ``sum`` is the single-device equivalent.  Quarantined
        slots report ``0.0`` (their device is gone with the engine).
        """
        return [
            s.disk.simulated_seconds() if s is not None else 0.0
            for s in self.shards
        ]

    def shard_reports(self) -> List[dict]:
        """Per-shard metrics: sizes, epochs, I/O — the gather side.

        One dict per shard with ingest sizes, epoch-layer counters and
        simulated-device accounting, ready for the serving layer's
        metrics endpoint or the ablation's JSON rows.
        """
        reports = []
        for index, shard in enumerate(self.shards):
            if shard is None:
                reports.append(
                    {
                        "shard": index,
                        "quarantined": self._quarantined.get(
                            index, "unknown"
                        ),
                        "acked_elements": self._shard_elems[index],
                    }
                )
                continue
            stats = shard.epoch_stats
            counters = shard.disk.stats.counters
            reports.append(
                {
                    "shard": index,
                    "n_historical": shard.n_historical,
                    "m_stream": shard.m_stream,
                    "steps_sealed": shard.steps_sealed,
                    "epoch": stats.current_epoch,
                    "ts_merges": stats.ts_merges,
                    "live_pins": stats.live_pins,
                    "io_total": counters.total,
                    "io_sequential": (
                        counters.sequential_reads + counters.sequential_writes
                    ),
                    "io_random": counters.random_reads,
                    "sim_seconds": shard.disk.simulated_seconds(),
                }
            )
        return reports

    # -- queries --------------------------------------------------------

    def pin(self) -> ClusterSnapshot:
        """Pin every live shard (in shard order) into one consistent view.

        Per-shard pins are individually atomic against that shard's
        sealing; cross-shard exactness holds when ingest is quiesced
        (the equivalence harness's regime).  On failure every
        already-acquired pin is released.

        With quarantined shards: strict gather
        (``min_gather_shards == 0``, the default) raises
        :class:`ClusterUnavailable`; otherwise the snapshot carries the
        missing shards' acked counts so every answer widens its bound
        and reports a :class:`~repro.core.bounds.PartialResult`.
        Quorum is ``max(1, min_gather_shards)`` live shards.
        """
        live = [
            (index, shard)
            for index, shard in enumerate(self.shards)
            if shard is not None
        ]
        if self._quarantined:
            if self.config.min_gather_shards <= 0:
                raise ClusterUnavailable(
                    f"shards {sorted(self._quarantined)} are quarantined "
                    "and min_gather_shards is 0 (strict gather)"
                )
            quorum = max(1, self.config.min_gather_shards)
            if len(live) < quorum:
                raise ClusterUnavailable(
                    f"only {len(live)} of {len(self.shards)} shards are "
                    f"live; gather quorum is {quorum}"
                )
        handles: List[SnapshotHandle] = []
        try:
            for _, shard in live:
                handles.append(shard.pin())
            stream = self._merged_stream([h._stream for h in handles])
        except BaseException:
            for handle in handles:
                handle.release()
            raise
        return ClusterSnapshot(
            handles,
            self.config,
            self._executor,
            shard_ids=[index for index, _ in live],
            missing={
                index: self._shard_elems[index]
                for index in self._quarantined
            },
            historical_memo=self._historical_memo,
            stream=stream,
        )

    def _merged_stream(self, views: List[StreamView]) -> StreamView:
        """The merge of the shards' ``views``, the last one again while
        every shard hands out the same view: the memo retains a TS per
        SS object, so racing pins wait for one merge."""
        with self._merge_lock:
            held, merged = self._merged
            if held != views:
                merged = merged_stream(views, self.config.epsilon2)
                self._merged = (views, merged)
            return merged

    def _query_pin(self) -> ClusterSnapshot:
        # Looked up per call: a traced run patches ``pin`` on the class.
        return self.pin()

    # -- fault handling -------------------------------------------------

    def kill_shard(self, shard: int, reason: str = "poisoned") -> None:
        """Quarantine a shard: detach its WAL, tear the engine down.

        The WAL writer is retained by the cluster, so ingest routed to
        the dead shard keeps acking durably (WAL-only) while the
        supervisor restores it.  Errors from the dying engine are
        swallowed — the shard is being quarantined *because* it is
        broken.
        """
        engine = self.shards[shard]
        if engine is None:
            raise ValueError(f"shard {shard} is already quarantined")
        wal = getattr(engine, "_wal", None)
        if wal is not None:
            engine.detach_wal()
            self._wals[shard] = wal
        try:
            engine.close()
        except BaseException:  # noqa: BLE001 - quarantining a broken shard
            pass
        self.shards[shard] = None
        self._quarantined[shard] = str(reason)

    def rejoin_shard(
        self, shard: int, engine: HybridQuantileEngine
    ) -> None:
        """Swap a restored engine back into a quarantined slot.

        The engine must have caught up to the cluster: same sealed-step
        count and the full acked element count for the slot — both are
        what checkpoint-plus-WAL-replay recovery guarantees.  Adopts
        the restored engine's WAL writer as the slot's writer.
        """
        if self.shards[shard] is not None:
            raise ValueError(f"shard {shard} is not quarantined")
        if engine.steps_sealed != self._step:
            raise ValueError(
                f"restored shard sealed {engine.steps_sealed} steps, "
                f"cluster is at {self._step}"
            )
        if engine.n_total != self._shard_elems[shard]:
            raise ValueError(
                f"restored shard holds {engine.n_total} elements, "
                f"{self._shard_elems[shard]} were acked"
            )
        self.shards[shard] = engine
        self._quarantined.pop(shard, None)
        wal = getattr(engine, "_wal", None)
        if wal is not None:
            self._wals[shard] = wal

    def release_wal(self, shard: int) -> None:
        """Close and drop the cluster-retained WAL writer for a slot.

        The supervisor calls this right before restoring the shard:
        ``load_engine(wal_dir=...)`` opens its own writer on the same
        directory, and a directory admits exactly one live writer.
        """
        wal = self._wals[shard]
        if wal is not None:
            self._wals[shard] = None
            wal.close()

    def reopen_wal(self, shard: int) -> None:
        """Reopen a quarantined slot's WAL writer after a failed restore.

        Idempotent; a no-op without a WAL root or when a writer is
        already open.  Keeps the slot durably writable between restore
        attempts.
        """
        if self._wal_root is None or self._wals[shard] is not None:
            return
        self._wals[shard] = WriteAheadLog(
            shard_dir(self._wal_root, shard),
            fsync=self.config.wal_fsync,
        )

    @property
    def wal_root(self) -> Optional[Path]:
        """Root directory holding the per-shard WALs (``None`` if off)."""
        return self._wal_root

    def dump_fault_transcripts(
        self, directory: "str | Path"
    ) -> List[Path]:
        """Write each live shard's fault transcript JSON (CI artifact)."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for index, shard in enumerate(self.shards):
            if shard is None or not isinstance(shard.disk, FaultyDisk):
                continue
            written.append(
                shard.disk.dump_transcript(
                    shard_dir(out, index).with_suffix(".json")
                )
            )
        return written

    # -- lifecycle ------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate every live shard plus the cluster's lockstep contract."""
        self._historical_memo.check_invariants()
        for index, shard in enumerate(self.shards):
            if shard is None:
                continue
            shard.check_invariants()
            if shard.steps_sealed != self._step:
                raise AssertionError(
                    f"shard sealed {shard.steps_sealed} steps, "
                    f"cluster sealed {self._step}"
                )
            if shard.n_total != self._shard_elems[index]:
                raise AssertionError(
                    f"shard {index} holds {shard.n_total} elements, "
                    f"{self._shard_elems[index]} were acked"
                )

    def close(self) -> None:
        """Close every shard (all attempted, errors joined).

        Every live shard is closed even when an earlier one fails, and
        quarantined slots' cluster-retained WAL writers are closed too.
        A single failure re-raises that shard's original exception
        unchanged; multiple failures raise :class:`ShardErrors` with
        all of them — a poisoned shard cannot mask another's.
        """
        _, errors = self._on_live_shards("close")
        for index, wal in enumerate(self._wals):
            if wal is not None and self.shards[index] is None:
                self._wals[index] = None
                try:
                    wal.close()
                except BaseException as exc:  # noqa: BLE001
                    errors.setdefault(index, exc)
        self._raise_joined("close", errors)

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
