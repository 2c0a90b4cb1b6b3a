"""Sharded multi-engine cluster: home-routed ingest, fused queries.

:class:`ClusterEngine` runs N in-process
:class:`~repro.core.engine.HybridQuantileEngine` shards, each on its
**own** simulated device, so ingest I/O divides across devices and the
simulated critical path (``max`` over shards) shrinks ~linearly with
the shard count.  A :class:`~repro.cluster.router.ShardRouter` sends
each time step's writes whole to one home shard.

A :class:`ClusterSnapshot` answers through the single engine's
:mod:`repro.core.query_path` over the shards' partitions (shard-major)
and **one** stream: their KLL sketches merged by
:meth:`~repro.sketches.kll.KLLSketch.merge_many`, which keeps the
``eps`` bound over the union (GK sketches do not merge: a cluster needs
``sketch_backend='kll'``).  Quick answers read one TS of the union;
accurate ones run the single-engine search, a :class:`ShardedBlockCache`
sending each block's fetch to its shard's cache and disk.  With one
shard every probe, filter and snap is the plain engine's.  The view's
epoch is the tuple of per-shard epochs, so the serving layer's
coalescer groups cluster requests as it groups single-engine ones.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ..core.bounds import CombinedSummary
from ..core.config import EngineConfig
from ..core.engine import HybridQuantileEngine, StepReport
from ..core.epoch import HistoricalMemo, SnapshotHandle, StreamView
from ..core.query_path import (
    PinnedQueries,
    PinnedView,
    QueryResult,
    QueryScope,
    with_partial,
)
from ..core.summaries import PartitionSummary
from ..faults.plan import FaultPlan
from ..faults.retry import PROBE_RETRY_POLICY
from ..ingest.wal import WriteAheadLog
from ..query.executor import QueryExecutor
from ..sketches.kll import KLLSketch
from ..storage.backends import RunHandle
from ..warehouse.partition import Partition
from .router import ClusterUnavailable, ShardRouter

_logger = logging.getLogger(__name__)


class ShardErrors(RuntimeError):
    """Multiple shards failed the same lifecycle operation.

    Raised by :meth:`ClusterEngine.end_time_step`, ``flush``, ``close``
    and :func:`~repro.cluster.persistence.restore_shards` when more
    than one shard fails, so no shard's poison state is masked by an
    earlier shard's exception.  ``errors`` maps shard index to the
    exception that shard raised.
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

    @classmethod
    def raise_joined(
        cls, operation: str, errors: Mapping[int, BaseException]
    ) -> None:
        """The rule once every shard was tried: one error re-raises
        unchanged, several raise together as one :class:`ShardErrors`."""
        if len(errors) == 1:
            raise next(iter(errors.values()))
        if errors:
            raise cls(operation, errors)


def shard_dir(root: "str | Path", index: int) -> Path:
    """Shard ``index``'s ``shard-NN`` entry under ``root`` — the one
    layout of checkpoints, WALs, storage directories and transcripts."""
    return Path(root) / f"shard-{index:02d}"


def shard_config(config: EngineConfig, index: int) -> EngineConfig:
    """The engine config shard ``index`` runs under: an explicit
    file-backed ``storage_dir`` gets the shard's ``shard-NN/``
    subdirectory (no directory shared across shards); ``None`` (a
    private tempdir each) and the simulated backend pass unchanged."""
    if config.storage_backend == "simulated" or config.storage_dir is None:
        return config
    return replace(
        config,
        storage_dir=str(shard_dir(config.storage_dir, index)),
    )


class ShardedBlockCache:
    """Routes block reads to the owning shard's per-query cache.

    :class:`~repro.core.filters.AccurateSearch` talks to one cache; a
    cluster query spans runs on N disks.  Each ``run_id`` (unique across
    disks) maps to the per-query :class:`~repro.storage.cache.BlockCache`
    of the shard that pinned it, so per-shard I/O accounting stays
    exact; a run outside the gather raises ``KeyError``.
    """

    def __init__(self, gather: "ShardGather") -> None:
        self._caches = [handle._new_cache() for handle in gather.handles]
        self._run_to_shard = gather.run_to_shard
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

    def fetch(
        self,
        handle: RunHandle,
        first_block: int,
        last_block: int,
        prefetch: bool = False,
    ) -> np.ndarray:
        """Read through the owning shard's cache: that shard's disk is
        charged and its cache pins the bytes."""
        return self._caches[self._shard_of(handle.run_id)].fetch(
            handle, first_block, last_block, prefetch
        )

    def pins(self, run_id: int) -> bool:
        """Whether the owning shard's cache pins the blocks it charges."""
        return self._caches[self._shard_of(run_id)].pins(run_id)

    def pinned_block(self, run_id: int, block: int) -> Optional[np.ndarray]:
        """The payload the owning shard's cache pinned for ``block``."""
        return self._caches[self._shard_of(run_id)].pinned_block(run_id, block)

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


class ShardGather(NamedTuple):
    """What every view pinned at one cluster version reads — the
    cluster's :class:`~repro.core.epoch.Layout`, derived by the first
    pin at the version and shared by the rest.  ``handles`` name each
    live shard's engine, layout and stream; pins are each view's own.
    """

    handles: "tuple[SnapshotHandle, ...]"
    shard_ids: "tuple[int, ...]"
    #: per-shard epochs: hashable, so the coalescer batches by it.
    epoch: tuple
    n_historical: int
    m_stream: int
    #: shard-major, off the layouts: the full scope's HS order, its key.
    summaries: List[PartitionSummary]
    key: tuple
    stream: StreamView
    run_to_shard: Dict[int, int]

    @classmethod
    def of(
        cls,
        handles: Sequence[SnapshotHandle],
        shard_ids: "tuple[int, ...]",
        stream: StreamView,
    ) -> "ShardGather":
        """The gather of ``handles`` (shard order), ``stream`` their merge."""
        handles = tuple(handles)
        return cls(
            handles, shard_ids, tuple(h.epoch for h in handles),
            sum(h.n_historical for h in handles),
            sum(h.m_stream for h in handles),
            [s for h in handles for s in h._summaries],
            sum((h._key for h in handles), ()), stream,
            {run: i for i, h in enumerate(handles) for run in h._run_ids},
        )

    def holds(
        self, live: "Sequence[tuple[int, HybridQuantileEngine]]"
    ) -> bool:
        """Whether the ``live`` (id, engine) pairs would pin what the
        gather holds (lock-free: see ``HybridQuantileEngine._pins_as``)."""
        return len(live) == len(self.handles) and all(
            index == shard_id
            and engine is h._engine
            and engine._pins_as(h._layout, h._stream)
            for (index, engine), shard_id, h in zip(
                live, self.shard_ids, self.handles
            )
        )


class ClusterSnapshot(PinnedView):
    """A pinned, consistent view across every shard of a cluster.

    Reads one :class:`ShardGather` through
    :class:`~repro.core.query_path.PinnedView`'s verbs and scope; what
    is here is the per-shard block cache and the widening of a gather
    that misses quarantined shards.  Built over pinned handles (one per
    shard, released with the view: the equivalence harness passes
    standalone engines' handles) or by :meth:`repinned`.  ``shard_ids``
    names the cluster-wide id behind each handle, ``historical_memo`` is
    the owning cluster's (or one of the view's own) and ``missing`` maps
    quarantined shard ids to their acked counts.  ``stream`` is the
    handles' merged stream; without it the snapshot merges its own — the
    same arrays either way.
    """

    def __init__(
        self,
        handles: Sequence[SnapshotHandle],
        config: EngineConfig,
        executor: QueryExecutor,
        shard_ids: Sequence[int],
        historical_memo: HistoricalMemo,
        missing: Optional[Mapping[int, int]] = None,
        stream: Optional[StreamView] = None,
    ) -> None:
        if not handles:
            raise ValueError("a cluster snapshot needs at least one shard")
        ids = tuple(map(int, shard_ids))
        if len(ids) != len(handles):
            raise ValueError(
                f"{len(ids)} shard ids for {len(handles)} handles"
            )
        stream = stream or merged_stream(
            [h._stream for h in handles], config.epsilon2
        )
        self._read(
            ShardGather.of(handles, ids, stream), config, executor,
            missing, historical_memo,
        )

    @classmethod
    def repinned(
        cls, gather: ShardGather, config: EngineConfig,
        executor: QueryExecutor, missing: Mapping[int, int],
        historical_memo: HistoricalMemo, pin: bool = True,
    ) -> "ClusterSnapshot":
        """A new view over ``gather`` with pins of its own: each handle's
        registry pin and run pins taken again, directly.  With
        ``pin=False`` it takes none and is born released."""
        view = cls.__new__(cls)
        view._read(gather, config, executor, missing, historical_memo)
        view._repinned, view._released = True, not pin
        if pin:
            for handle in gather.handles:
                handle._pin()
        return view

    def _read(self, gather, config, executor, missing, historical_memo):
        super().__init__(config, executor, gather.handles[0]._latency)
        self._gather, self._repinned = gather, False
        (self.handles, self.shard_ids, self.epoch, self.n_historical,
         self.m_stream, self._summaries, self._key, self._stream,
         _) = gather
        #: quarantined-at-pin shard id -> acked elements it holds.
        self.missing: Dict[int, int] = (
            {int(k): int(v) for k, v in missing.items()} if missing else {}
        )
        self._historical_memo = historical_memo

    def _release_pins(self) -> None:
        for handle in self.handles:
            if self._repinned:  # the pins repinned took, not the handle's
                handle._release_pins()
            else:
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
        return ShardedBlockCache(self._gather)

    # -- queries --------------------------------------------------------

    def _answer(
        self,
        scope: QueryScope,
        rank: int,
        cache: Optional[ShardedBlockCache] = None,
    ) -> QueryResult:
        """:func:`~repro.core.query_path.answer_rank` over the union,
        widened by the shards quarantined at pin time (a
        :class:`~repro.core.bounds.PartialResult` attached).  A fault
        mid-search degrades the answer to quick over the whole gather,
        as it does an engine's."""
        return with_partial(
            super()._answer(scope, rank, cache),
            self.missing,
            len(self.handles),
        )

    def _current_ts(self, *scope: Any) -> "tuple[CombinedSummary, dict, int, tuple]":
        return self.combined(*scope), self.missing, len(self.handles), self.epoch


class ClusterEngine(PinnedQueries):
    """Facade over N engine shards: one logical stream, one query API.

    Each time step's ingest goes to one home shard, time steps advance
    in lockstep and queries pin all shards and gather.  The serving
    layer drives a cluster through a single engine's surface — ``pin``,
    ``config``, ``shared_cache`` (``None``: its views are never warmed)
    and ``disk``.

    * ``engines`` hands in shards already built (restored ones, say):
      the cluster resumes at the step they all sealed and refuses
      engines that disagree on it.
    * ``fault_plan`` gives each shard's disk its own seeded schedule
      (:meth:`FaultPlan.for_shard
      <repro.faults.plan.FaultPlan.for_shard>`): chaos replays from one
      integer.  With ``engines`` it is recorded for the disks of
      later restores; the handed-in shards keep the disks they have.
    * ``wal_dir`` gives every shard a durable
      :class:`~repro.ingest.wal.WriteAheadLog` under
      ``<wal_dir>/shard-NN/`` (a handed-in shard keeps the one it
      has); acked ingest survives a shard crash.  A live shard's
      engine owns its writer; the cluster holds it only while the
      slot is quarantined.
    * :meth:`kill_shard` quarantines a shard (its slot turns ``None``,
      writes go to live shards, queries gather partially) and
      :meth:`rejoin_shard` swaps a restored engine back in, a loop
      :func:`~repro.cluster.persistence.restore_shards` runs for every
      quarantined slot.
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
        if config.min_gather_shards > shards:
            raise ValueError(
                f"min_gather_shards={config.min_gather_shards} exceeds the "
                f"{shards} shards: no gather could meet it"
            )
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan()
        )
        if engines is not None:
            if len(engines) != shards:
                raise ValueError(
                    f"got {len(engines)} engines for {shards} shards"
                )
            steps = {engine.steps_sealed for engine in engines}
            if len(steps) > 1:
                raise ValueError(
                    f"engines sealed different step counts {sorted(steps)}"
                )
            self.shards: "List[Optional[HybridQuantileEngine]]" = list(
                engines
            )
        else:
            self.shards = [
                HybridQuantileEngine(
                    config=shard_config(config, index),
                    fault_plan=self.fault_plan.for_shard(index),
                )
                for index in range(shards)
            ]
        self._wal_root: Optional[Path] = (
            Path(wal_dir) if wal_dir is not None else None
        )
        if self._wal_root is not None:
            for index, shard in enumerate(self.shards):
                if shard.wal is None:
                    shard.attach_wal(self._open_wal(index))
        #: quarantined shard index -> the WAL writer its slot retains.
        self._wals: Dict[int, WriteAheadLog] = {}
        #: quarantined shard index -> reason string, and the disk (its
        #: fault transcript) the shard's engine left.
        self._quarantined: Dict[int, str] = {}
        self._dead_disks: Dict[int, Any] = {}
        #: cumulative acked elements per shard — cluster-side truth
        #: that survives a shard's death (recovery must match it).
        self._shard_elems: List[int] = [
            int(shard.n_total) for shard in self.shards
        ]
        self.router.resume([shard.m_stream for shard in self.shards])
        self._executor = QueryExecutor(retry=PROBE_RETRY_POLICY)
        self._step = self.shards[0].steps_sealed
        # TS's historical half per partition set (over the shard-major
        # concatenation) and the TS last fused onto it.
        self._historical_memo = HistoricalMemo()
        #: the shard views last merged, and their merge.
        self._merged: tuple = ([], None)
        self._merge_lock = threading.Lock()
        # The gather of the last pin (no pins held): reused while every
        # live shard would pin the same, dropped by every write verb.
        self._gather: Optional[ShardGather] = None

    # -- ingest ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of engine shards (quarantined slots included)."""
        return len(self.shards)

    @property
    def quarantined_shards(self) -> Dict[int, str]:
        """Quarantined shard index -> reason (copy)."""
        return dict(self._quarantined)

    def stream_update(self, value: int) -> None:
        """Send one live element to the step's home shard.

        The value is checked like a one-element batch before it is
        routed: what ``stream_update_many`` refuses raises here too.
        """
        home, arr = self.router.route_many([value], self._acked_live())
        self.shards[home].stream_update(int(arr[0]))
        self._shard_elems[home] += 1
        self._gather = None

    def stream_update_many(self, values: np.ndarray) -> int:
        """Send a batch whole, in arrival order, to the step's home shard
        (:meth:`ShardRouter.route_many`); with no shard live a non-empty
        batch is refused before anything is applied.  Returns the count."""
        home, arr = self.router.route_many(values, self._acked_live())
        if arr.size:
            self.shards[home].stream_update_many(arr)
            self._shard_elems[home] += int(arr.size)
            self._gather = None
        return int(arr.size)

    def _acked_live(self) -> "List[Optional[int]]":
        """Acked elements per shard, ``None`` where quarantined."""
        return [
            None if shard is None else acked
            for shard, acked in zip(self.shards, self._shard_elems)
        ]

    def end_time_step(self) -> "List[Optional[StepReport]]":
        """Seal the current step on every shard (lockstep), empty or
        not, so step numbers and windows stay aligned; the per-shard
        reports in shard order.  A quarantined shard gets a seal frame
        in its WAL instead (recovery replays it) and a ``None`` report.
        A shard whose seal raises is quarantined — with the frame, if
        its step did not advance — and the cluster still advances: one
        error re-raises unchanged, several as :class:`ShardErrors`.
        The next write picks the next step's home.
        """
        step = self._step + 1
        owed = list(self._wals)
        reports, errors = self._on_live_shards("end_time_step")
        for index, exc in errors.items():
            if self.shards[index].steps_sealed < step:
                owed.append(index)
            self.kill_shard(index, f"{type(exc).__name__}: {exc}")
        for index in owed:
            if index in self._wals:
                self._wals[index].append_seal(step)
        self._step = step
        self.router.end_step()
        self._gather = None
        ShardErrors.raise_joined("end_time_step", errors)
        return reports

    def flush(self) -> "List[Optional[List[StepReport]]]":
        """Drain every live shard's archiver, an earlier failure
        notwithstanding (quarantined slots yield ``None``).  One failure
        re-raises unchanged; several raise :class:`ShardErrors` with all
        of them, so no poisoned shard masks another's state.
        """
        results, errors = self._on_live_shards("flush")
        self._gather = None
        ShardErrors.raise_joined("flush", errors)
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

    # -- stats ----------------------------------------------------------

    @property
    def n_historical(self) -> int:
        """Elements archived across all live shards."""
        return sum(s.n_historical for s in self.shards if s is not None)

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
        """Always ``None``: shared tiers live inside each shard, so the
        serving layer never warms a cluster's views."""
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
        live = [set(s.available_window_sizes())
                for s in self.shards if s is not None]
        return sorted(set.intersection(*live)) if live else []

    def per_shard_sim_seconds(self) -> List[float]:
        """Simulated seconds accrued on each shard's device so far
        (``0.0`` when quarantined): ``max`` is the I/O critical path of
        one device per shard, ``sum`` the single-device equivalent."""
        return [
            s.disk.simulated_seconds() if s is not None else 0.0
            for s in self.shards
        ]

    # -- queries --------------------------------------------------------

    def pin(self) -> ClusterSnapshot:
        """Pin every live shard (in shard order) into one consistent view.

        Each shard's pin is atomic against its sealing; cross-shard
        exactness holds when ingest is quiesced.  While every live shard
        would pin what the last pin's :class:`ShardGather` holds, the
        view is :meth:`ClusterSnapshot.repinned` over it: no
        ``engine.pin()``, nothing concatenated again.  Otherwise each
        shard is pinned (all released if one fails) and the gather kept.

        With quarantined shards a strict gather (``min_gather_shards ==
        0``) raises :class:`ClusterUnavailable`; otherwise, quorum
        (``max(1, min_gather_shards)`` live shards) permitting, every
        answer widens its bound by the missing shards' acked counts.
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
        held = self._held_view()
        if held is not None:
            return held
        handles: List[SnapshotHandle] = []
        try:
            for _, shard in live:
                handles.append(shard.pin())
            stream = self._merged_stream([h._stream for h in handles])
        except BaseException:
            for handle in handles:
                handle.release()
            raise
        view = ClusterSnapshot(
            handles, self.config, self._executor, [i for i, _ in live],
            self._historical_memo, self._missing(), stream,
        )
        self._gather = view._gather
        return view

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

    def _held_view(self, pin: bool = True) -> Optional[ClusterSnapshot]:
        """:meth:`ClusterSnapshot.repinned` over the held gather while
        every live shard would pin what it holds, else None.  Every
        change to ``_quarantined`` clears ``_gather``, so a held gather
        passed :meth:`pin`'s quorum checks over this same live set: the
        quick path, which skips them, may use it too."""
        gather = self._gather
        live = [(i, s) for i, s in enumerate(self.shards) if s is not None]
        if gather is None or not gather.holds(live):
            return None
        return ClusterSnapshot.repinned(
            gather, self.config, self._executor, self._missing(),
            self._historical_memo, pin=pin,
        )

    def _missing(self) -> Dict[int, int]:
        """The quarantined shards' acked counts, by shard id."""
        return {i: self._shard_elems[i] for i in self._quarantined}

    def _current_ts(self, *scope: Any) -> "tuple[CombinedSummary, dict, int, tuple]":
        """The held gather's TS off a view born released (no shard
        pinned, nothing gathered again), else a pinned view's (it keeps
        its gather)."""
        view = self._held_view(pin=False)
        if view is None:
            view = self._query_pin()
        with view:
            return view._current_ts(*scope)

    # -- fault handling -------------------------------------------------

    def kill_shard(self, shard: int, reason: str = "poisoned") -> None:
        """Quarantine a shard: keep its WAL writer for the lockstep seal
        frames recovery replays, and tear the engine down (its errors
        swallowed: it is broken).  Writes go to live shards, the rest
        of the step to a new home if this was the step's."""
        engine = self.shards[shard]
        if engine is None:
            raise ValueError(f"shard {shard} is already quarantined")
        wal = engine.detach_wal()
        if wal is not None:
            self._wals[shard] = wal
        try:
            engine.close()
        except BaseException:  # noqa: BLE001 - quarantining a broken shard
            pass
        self.shards[shard] = None
        self._quarantined[shard] = str(reason)
        self._dead_disks[shard] = engine.disk
        self._gather = None
        _logger.debug(
            "quarantined shard %d: %s", shard, reason,
            extra={"faults.disk_faults": engine.disk.faults_fired},
        )

    def rejoin_shard(
        self, shard: int, engine: HybridQuantileEngine
    ) -> None:
        """Swap a restored engine, which owns its WAL writer, into a
        quarantined slot (a writer the slot still retains is closed).  It
        must have caught up — the cluster's sealed steps and the slot's
        acked elements, as checkpoint-plus-WAL recovery does."""
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
        self.release_wal(shard)
        self.shards[shard] = engine
        self._quarantined.pop(shard, None)
        self._dead_disks.pop(shard, None)
        self._gather = None
        _logger.debug(
            "shard %d rejoined at step %d", shard, self._step,
            extra={
                "warehouse.partitions_final": engine.store.partition_count()
            },
        )

    def release_wal(self, shard: int) -> None:
        """Close and drop a slot's retained WAL writer, right before a
        restore: ``load_engine(wal_dir=...)`` opens the directory's one
        live writer itself."""
        wal = self._wals.pop(shard, None)
        if wal is not None:
            wal.close()

    def reopen_wal(self, shard: int) -> None:
        """Reopen a quarantined slot's WAL writer after a failed restore,
        so it keeps taking lockstep seal frames (a no-op without a WAL
        root, on a live slot or with a writer open)."""
        if (
            self._wal_root is not None
            and self.shards[shard] is None
            and shard not in self._wals
        ):
            self._wals[shard] = self._open_wal(shard)

    def _open_wal(self, shard: int) -> WriteAheadLog:
        return WriteAheadLog(
            shard_dir(self._wal_root, shard), fsync=self.config.wal_fsync
        )

    @property
    def wal_root(self) -> Optional[Path]:
        """Root directory holding the per-shard WALs (``None`` if off)."""
        return self._wal_root

    def dump_fault_transcripts(
        self, directory: "str | Path"
    ) -> List[Path]:
        """Write each shard's fault transcript JSON (CI artifact), a
        quarantined one's as its engine left it."""
        disks = [
            self._dead_disks[index] if shard is None else shard.disk
            for index, shard in enumerate(self.shards)
        ]
        return [
            disk.dump_transcript(shard_dir(directory, i).with_suffix(".json"))
            for i, disk in enumerate(disks)
        ]

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
        """Close every live shard and every quarantined slot's retained
        WAL writer, errors joined as :meth:`flush` joins them."""
        _, errors = self._on_live_shards("close")
        for index in list(self._wals):
            try:
                self.release_wal(index)
            except BaseException as exc:  # noqa: BLE001
                errors.setdefault(index, exc)
        ShardErrors.raise_joined("close", errors)

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
