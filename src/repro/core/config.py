"""Engine configuration.

Algorithm 1 of the paper fixes the error split ``eps_1 = eps / 2`` for
the historical summaries and ``eps_2 = eps / 4`` for the stream sketch,
with summary lengths ``beta_1 = ceil(1/eps_1) + 1`` and
``beta_2 = ceil(1/eps_2) + 1``.  :class:`EngineConfig` carries those
parameters plus the simulation knobs (block size, merge threshold,
query optimizations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EngineConfig:
    """All tunables of the hybrid engine.

    Parameters
    ----------
    epsilon:
        Overall error parameter: accurate queries are answered within
        ``O(epsilon * m)`` rank error, where m is the stream size.
    kappa:
        Merge threshold of the historical store (max partitions per
        level).
    block_elems:
        Elements per disk block of the simulated device.
    eps1, eps2:
        Optional overrides of the historical/stream error split
        (used by the memory-split ablation).  Defaults follow
        Algorithm 1.
    block_cache:
        Enable the Section 2.4 per-query block cache optimization.
    probe_budget:
        Optional cap (``>= 0``) on random block reads per query: the
        search stops early once the cap is reached and returns its
        current best answer (the accuracy/disk-access tradeoff
        discussed in the paper's Section 4).
    compaction:
        Historical merge policy: ``"tiered"`` (the paper's — up to
        kappa partitions per level) or ``"leveled"`` (LevelDB-style —
        one partition per level, the Section 4 "improved data
        structures" ablation).
    ingest_mode:
        Who runs the archive step of a batch ``end_time_step`` sealed
        (sort, write, summary, level merges — one function,
        :mod:`repro.ingest.archiver`): ``"sync"`` (default) the calling
        thread, so the stream blocks until the batch is in the layout;
        ``"background"`` the archiver thread, so the stream (and
        queries) continue.  After ``engine.flush()`` the answers, I/O
        counters and invariants are bit-identical across modes, and a
        fault is retried and surfaced the same way in both.
    shared_cache_blocks:
        Capacity (in blocks) of the process-wide shared block cache
        (:mod:`repro.storage.shared_cache`) that per-query caches read
        through.  The default of 0 disables the shared tier entirely —
        every query pays the paper's per-query accounting exactly, the
        historical behavior.  With a positive budget, a block already
        resident from an earlier query (or a prefetch) is free; only
        shared-tier misses are charged.
    prefetch_blocks:
        Accurate-path prefetch threshold: once the filter ``(u, v)``
        narrows a partition's candidate range to at most this many
        blocks, the executor reads the whole range ahead of the binary
        search in one batched ranged read.  Only active when the shared
        tier is attached (``shared_cache_blocks > 0``), so legacy
        accounting is untouched when the cache is off.
    sketch_backend:
        Live stream-sketch implementation: ``"gk"`` (default — the
        paper's Greenwald-Khanna sketch, deterministic ``eps``
        guarantee) or ``"kll"`` (the mergeable Karnin-Lang-Liberty
        compactor sketch, ``eps`` guarantee w.h.p.).  KLL is what a
        sharded cluster needs: per-shard sketches merge without error
        blow-up, which GK summaries cannot do.  Single-engine answers
        remain within the same ``eps * m`` contract either way.
    min_gather_shards:
        Cluster partial-gather quorum: the minimum number of live
        shards a query pins before it answers at all (at most the
        shard count).  The default of 0 is strict: a quarantined shard
        fails the query.  With a positive quorum, a gather missing up
        to ``N - quorum`` quarantined shards still answers, widening
        ``rank_error_bound`` by the missing shards' element counts and
        attaching a :class:`~repro.core.bounds.PartialResult` to the
        response.  At any quorum a shard whose disk faults mid-search
        degrades the query to the quick response, as in one engine.
    wal_fsync:
        Whether an attached ingest write-ahead log fsyncs every
        appended frame before the update is acked (default).  Turning
        it off keeps the framing and replay machinery but downgrades
        the durability guarantee to the OS page cache — a benchmark
        escape hatch, not a production setting.
    storage_backend:
        Where sorted-run payload bytes live
        (:mod:`repro.storage.backends`): ``"simulated"`` (default —
        in-memory arrays, zero real I/O, the deterministic historical
        behavior), ``"mmap"`` (one real file per run, atomic
        write/fsync/rename commits, mmap reads), or ``"object"``
        (tiered: hot run files plus an emulated S3-like bucket that
        cold levels age into, with GET/PUT request accounting).
        Block-level charges — and therefore every answer and every
        ``DiskStats`` counter — are bit-identical across backends.
    storage_dir:
        Directory the ``mmap``/``object`` backends keep their files
        under.  ``None`` (default) uses a private temporary directory
        that is removed when the engine closes; checkpoints and
        clusters pass an explicit directory under their layout.
    object_tier_level:
        Tiering policy threshold of the ``object`` backend: a run
        placed at this warehouse level or deeper migrates from the hot
        file tier into the object bucket (one PUT), after which its
        cold reads are GET requests.  Level 0 sends every run straight
        to the bucket; higher values keep more of the young levels hot.
    hot_tier_bytes:
        Capacity bound on the object backend's hot file tier, in
        bytes.  When allocation or promotion pushes the tier past the
        budget, least-recently-read unpinned runs are demoted to the
        bucket (atomic migration, counted in ``evicted_runs``).  Runs
        referenced by a live ``SnapshotHandle`` are pinned and never
        evicted — the tier may temporarily exceed the budget instead.
        ``None`` (default) leaves the hot tier unbounded.
    """

    epsilon: float
    kappa: int = 10
    block_elems: int = 1024
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    block_cache: bool = True
    probe_budget: Optional[int] = None
    compaction: str = "tiered"
    ingest_mode: str = "sync"
    shared_cache_blocks: int = 0
    prefetch_blocks: int = 4
    sketch_backend: str = "gk"
    min_gather_shards: int = 0
    wal_fsync: bool = True
    storage_backend: str = "simulated"
    storage_dir: Optional[str] = None
    object_tier_level: int = 1
    hot_tier_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.kappa < 2:
            raise ValueError("kappa must be >= 2")
        if self.block_elems < 1:
            raise ValueError("block_elems must be >= 1")
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if value is not None and not 0 < value < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.compaction not in ("tiered", "leveled"):
            raise ValueError("compaction must be 'tiered' or 'leveled'")
        if self.ingest_mode not in ("sync", "background"):
            raise ValueError("ingest_mode must be 'sync' or 'background'")
        if self.probe_budget is not None and self.probe_budget < 0:
            raise ValueError("probe_budget must be None or >= 0")
        if self.shared_cache_blocks < 0:
            raise ValueError("shared_cache_blocks must be >= 0")
        if self.prefetch_blocks < 0:
            raise ValueError("prefetch_blocks must be >= 0")
        if self.sketch_backend not in ("gk", "kll"):
            raise ValueError("sketch_backend must be 'gk' or 'kll'")
        if self.min_gather_shards < 0:
            raise ValueError("min_gather_shards must be >= 0")
        if self.storage_backend not in ("simulated", "mmap", "object"):
            raise ValueError(
                "storage_backend must be 'simulated', 'mmap' or 'object'"
            )
        if self.object_tier_level < 0:
            raise ValueError("object_tier_level must be >= 0")
        if self.hot_tier_bytes is not None and self.hot_tier_bytes < 0:
            raise ValueError("hot_tier_bytes must be >= 0")

    @property
    def epsilon1(self) -> float:
        """Historical-summary error parameter (Algorithm 1: eps / 2)."""
        return self.eps1 if self.eps1 is not None else self.epsilon / 2.0

    @property
    def epsilon2(self) -> float:
        """Stream-sketch error parameter (Algorithm 1: eps / 4)."""
        return self.eps2 if self.eps2 is not None else self.epsilon / 4.0

    @property
    def beta1(self) -> int:
        """Length of each historical partition summary."""
        return math.ceil(1.0 / self.epsilon1) + 1

    @property
    def beta2(self) -> int:
        """Length of the stream summary."""
        return math.ceil(1.0 / self.epsilon2) + 1

    @property
    def query_epsilon(self) -> float:
        """Acceptance slack of the accurate query, as a fraction of m.

        Algorithm 8 stops when the estimated rank of the probe is
        within ``epsilon * m`` of the target.  When the eps1/eps2 split
        is overridden, the slack follows the stream-side error
        (``4 * eps2``), which is what drives the final answer quality.
        """
        if self.eps2 is not None:
            return 4.0 * self.eps2
        return self.epsilon


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the concurrent query service (:mod:`repro.serving`).

    Parameters
    ----------
    max_queue:
        Admission bound on requests waiting to execute (across modes
        unless ``accurate_queue`` splits the budget).  A request
        arriving past the bound is rejected with a typed
        :class:`~repro.serving.admission.Overloaded` — bounded queues
        instead of unbounded latency collapse.
    accurate_queue:
        Optional separate bound for accurate-path requests (their
        probes hold disk resources much longer than quick answers).
        ``None`` shares ``max_queue``.
    accurate_workers:
        Accurate searches running at once, each on a thread that
        waits for its answer (a search probes its partitions inline
        on that thread).  A caller past the limit waits, still counted
        as queued.
    degrade_on_overload:
        When the accurate queue is full, degrade the request to the
        quick path (flagged on the result) instead of rejecting it —
        the serving-side analogue of an accurate query that degrades
        when its probes exhaust their retries.
    """

    max_queue: int = 64
    accurate_queue: Optional[int] = None
    accurate_workers: int = 2
    degrade_on_overload: bool = False

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.accurate_queue is not None and self.accurate_queue < 1:
            raise ValueError("accurate_queue must be >= 1")
        if self.accurate_workers < 1:
            raise ValueError("accurate_workers must be >= 1")

    @property
    def accurate_queue_bound(self) -> int:
        """The effective accurate-path admission bound."""
        return (
            self.accurate_queue
            if self.accurate_queue is not None
            else self.max_queue
        )
