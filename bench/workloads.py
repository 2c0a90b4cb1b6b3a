"""The four workloads.

Each class generates its inputs from the seed in ``__init__`` (arrays
and op scripts only — the program never sees the seed), builds a fresh
system in :meth:`setup`, and drives it in :meth:`measure` through a
:class:`~bench.harness.RoundLog`, which times and records every call.
A round is a fixed piece of work: it runs its script to the end, so the
same seed gives the same operations, partition counts and block counts
on every machine.  Scripts are sized to about three seconds on the
uncontended 2-core sandbox; the harness runs rounds until ``--seconds``
are measured.  Set-up stays near a second; ``scale`` shrinks element and
operation counts for smoke tests only.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import (
    ClusterEngine,
    EngineConfig,
    HybridQuantileEngine,
    QueryService,
    ServingConfig,
)

from .oracle import PRELOADED

#: phis checked, untimed, against the exact oracle once a round's loop
#: has ended (tails included: they stress the filters hardest).
FINAL_PHIS = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)


def _normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(1e8, 1e7, n).astype(np.int64)


def _phis(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` phis in (0.01, 0.99): a shuffled, jittered grid of ``n`` cells.

    Every seed covers the phi range evenly, so per-query means (blocks,
    iterations) depend little on the seed.
    """
    grid = (np.arange(n) + rng.uniform(0, 1, n)) / n
    return 0.01 + 0.98 * rng.permutation(grid)


class Workload:
    """Common shape; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def n(self, elements: int) -> int:
        """``elements`` shrunk by the smoke-test scale."""
        return max(64, int(elements * self.scale))

    def ops(self, count: int) -> int:
        """A script length shrunk by the smoke-test scale."""
        return max(8, int(count * self.scale))

    def rng(self, stream: int) -> np.random.Generator:
        """Independent generator per input stream of this workload."""
        return np.random.default_rng([self.seed, stream])

    def preloaded(self) -> List[tuple]:
        """Writes applied during set-up, as oracle log entries."""
        return []

    def setup(self, tmp: Path):
        """Build a fresh system (timed as set-up); returns the state."""
        raise NotImplementedError

    def engines(self, state) -> Sequence[HybridQuantileEngine]:
        """Every engine behind ``state`` (for the stats surfaces)."""
        raise NotImplementedError

    def measure(self, state, log) -> None:
        """Run the script once, recording every call on ``log``."""
        raise NotImplementedError

    def close(self, state) -> None:
        """Release the system."""
        raise NotImplementedError


def _warm_up(config: EngineConfig) -> None:
    """Finish lazy imports and numpy first-call set-up before timing."""
    with HybridQuantileEngine(config=config) as engine:
        rng = np.random.default_rng(0)
        for _ in range(2):
            engine.stream_update_many(rng.integers(0, 1 << 30, 2048))
            engine.quantile(0.5, "quick")
            engine.quantile(0.5, "accurate")
            engine.end_time_step()


class IngestHeavy(Workload):
    """Write-dominated: chunks in, one dashboard poll and a seal per step.

    Because sketch absorption is lazy, a loop that never queried would
    never touch the sketch; the quick poll just before each seal makes
    the sketch swallow the full step.  Steps alternate between a smooth
    and a heavy-duplicate distribution because sort, merge and GK cost
    all depend on duplicates.  A hundred steps give nine level-0 -> 1
    merges a round and stop just short of the first level-1 -> 2
    cascade, at step 101.  Every workload has to report accurate
    latencies too, so every step also asks an accurate quantile (about
    a fifth of the round's time).
    """

    name = "ingest_heavy"
    CONFIG = EngineConfig(epsilon=1e-3, kappa=10)
    STEPS = 100
    STEP_ELEMS = 75_000
    CHUNK = 4096

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = self.rng(1)
        size = self.n(self.STEP_ELEMS)
        self.steps = [
            _normal(rng, size) if index % 2 == 0
            else np.minimum(rng.zipf(1.3, size), 1 << 40).astype(np.int64)
            for index in range(self.ops(self.STEPS))
        ]
        self.phis = _phis(rng, len(self.steps))

    def setup(self, tmp: Path):
        _warm_up(self.CONFIG)
        return HybridQuantileEngine(config=self.CONFIG)

    def engines(self, state):
        return [state]

    def measure(self, engine, log) -> None:
        query = log.engine_query(engine)
        log.start()
        for index, values in enumerate(self.steps):
            log.feed(engine, values, self.CHUNK)
            log.query(query, 0.99, "quick")
            log.query(query, self.phis[index], "accurate")
            log.seal(engine)
        log.stop(ingest_elems=sum(values.size for values in self.steps))
        for phi in FINAL_PHIS:
            log.query(query, phi, "accurate", timed=False)

    def close(self, engine) -> None:
        engine.close()


class QueryHeavy(Workload):
    """Read-dominated: one thread, a quick and an accurate query per turn.

    The universe is 2^40 wide so the value bisection runs its full
    depth.  Every fourth turn appends a trickle to the live stream, so
    memoising the combined summary per static state cannot pass for a
    real gain.  The working set fits the default per-query cache.
    """

    name = "query_heavy"
    CONFIG = EngineConfig(epsilon=1e-3, kappa=10)
    PRELOAD_STEPS = 40  # leaves 3 level-1 + 10 level-0 = 13 partitions
    STEP_ELEMS = 100_000
    LIVE_ELEMS = 50_000
    TURNS = 100
    TRICKLE = 512

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = self.rng(2)
        self.turns = self.ops(self.TURNS)
        self.history = [
            rng.integers(0, 1 << 40, self.n(self.STEP_ELEMS))
            for _ in range(self.PRELOAD_STEPS)
        ]
        self.live = rng.integers(0, 1 << 40, self.n(self.LIVE_ELEMS))
        self.trickle = rng.integers(
            0, 1 << 40, (-(-self.turns // 4), self.TRICKLE)
        )
        self.quick_phis = _phis(rng, self.turns)
        self.accurate_phis = _phis(rng, self.turns)

    def preloaded(self):
        return [
            (PRELOADED, PRELOADED, values)
            for values in self.history + [self.live]
        ]

    def setup(self, tmp: Path):
        _warm_up(self.CONFIG)
        engine = HybridQuantileEngine(config=self.CONFIG)
        for values in self.history:
            engine.stream_update_many(values)
            engine.end_time_step()
        engine.stream_update_many(self.live)
        return engine

    def engines(self, state):
        return [state]

    def measure(self, engine, log) -> None:
        query = log.engine_query(engine)
        log.start()
        for turn in range(self.turns):
            if turn % 4 == 0:
                log.append(engine, self.trickle[turn // 4])
            log.query(query, self.quick_phis[turn], "quick")
            log.query(query, self.accurate_phis[turn], "accurate")
        log.stop(ingest_elems=self.trickle.size)

    def close(self, engine) -> None:
        engine.close()


class MixedServing(Workload):
    """Reads beside writes through the serving layer on cold storage.

    A YCSB-style closed loop of exactly two client threads (``nproc``
    is 2; there are no other generator threads), each running its own
    seeded script of 7 quick, 2 accurate and 1 write of 4096 elements
    in every ten operations.  Whichever client's write crosses a step
    boundary seals.
    The shared cache and the hot tier are both smaller than the
    history, so GETs, evictions, migrations, epoch invalidation and
    archiver adoption all happen under the readers — the workload where
    a query-side gain bought with a longer lock hold shows up as lower
    ``ops_per_s``.
    """

    name = "mixed_serving"
    PRELOAD_STEPS = 30
    STEP_ELEMS = 50_000  # 30 steps = 1.5M elements = 12 MB of history
    CACHE_BLOCKS = 128  # 1 MiB
    HOT_TIER_BYTES = 1 << 20
    CLIENTS = 2
    OPS = 170  # per client
    WRITE_ELEMS = 4096
    WRITES_PER_STEP = 5
    TIMEOUT_S = 30.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = self.rng(3)
        self.history = [
            _normal(rng, self.n(self.STEP_ELEMS))
            for _ in range(self.PRELOAD_STEPS)
        ]
        tens = -(-self.ops(self.OPS) // 10)
        self.scripts = []
        for client in range(self.CLIENTS):
            crng = self.rng(30 + client)
            # Exact 7:2:1 mix in every ten operations (shuffled within
            # the ten): a random draw per operation would make the share
            # of 50 ms accurate queries, and so every rate, vary by seed.
            kinds = crng.permuted(
                np.tile(np.repeat((0, 1, 2), (7, 2, 1)), (tens, 1)), axis=1
            ).ravel()
            # Each mode's phis cover the range evenly on their own.
            phis = np.zeros(kinds.size)
            for kind in (0, 1):
                phis[kinds == kind] = _phis(crng, int((kinds == kind).sum()))
            self.scripts.append((
                kinds,
                phis,
                _normal(crng, tens * self.WRITE_ELEMS).reshape(tens, -1),
            ))

    def preloaded(self):
        return [(PRELOADED, PRELOADED, values) for values in self.history]

    def config(self, tmp: Path) -> EngineConfig:
        return EngineConfig(
            epsilon=1e-3,
            kappa=4,
            storage_backend="object",
            storage_dir=str(tmp / "runs"),
            object_tier_level=1,
            shared_cache_blocks=self.CACHE_BLOCKS,
            hot_tier_bytes=self.HOT_TIER_BYTES,
            ingest_mode="background",
        )

    def setup(self, tmp: Path):
        config = self.config(tmp)
        _warm_up(EngineConfig(epsilon=1e-3, kappa=4))
        engine = HybridQuantileEngine(config=config)
        for values in self.history:
            engine.stream_update_many(values)
            engine.end_time_step()
        engine.flush()
        return engine, QueryService(engine, ServingConfig())

    def engines(self, state):
        return [state[0]]

    def measure(self, state, log) -> None:
        engine, service = state

        def query(phi: float, mode: str):
            return service.quantile(phi, mode, timeout=self.TIMEOUT_S)

        step = self.WRITES_PER_STEP * self.WRITE_ELEMS
        acked = [0]
        acked_lock = threading.Lock()

        def client(script) -> None:
            kinds, phis, batches = script
            writes = 0
            for kind, phi in zip(kinds, phis):
                if kind == 2:
                    log.append(engine, batches[writes])
                    writes += 1
                    with acked_lock:
                        acked[0] += self.WRITE_ELEMS
                        crossed = acked[0] % step == 0
                    if crossed:
                        log.seal(engine)
                else:
                    log.query(query, phi, "quick" if kind == 0 else "accurate")

        threads = [
            threading.Thread(target=client, args=(script,), name=f"client-{i}")
            for i, script in enumerate(self.scripts)
        ]
        log.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.reports.extend(engine.flush())
        log.stop(ingest_elems=acked[0])
        log.service = service.metrics_snapshot()
        for phi in FINAL_PHIS:
            log.query(query, phi, "accurate", timed=False)

    def close(self, state) -> None:
        engine, service = state
        service.close()
        engine.close()


class Cluster4Shard(Workload):
    """Scale-out path with write-ahead logging: 4 KLL shards, a WAL each.

    Phase A ingests through the router and the per-shard logs, polling
    every fifth step; phase B issues quick and accurate cluster
    quantiles with a trickle of writes.  Every batch and seal is framed,
    checksummed and written to its shard's log, but ``wal_fsync`` is
    off: on the sandbox's virtual disk an fsync takes 0.3-22 ms and
    slows for minutes at a time, which no processor-speed scaling can
    take out (``ingest_updates_per_s`` spread 0.09-0.19 over seeds with
    it on, 0.05 with it off).  The policy is part of the workload and
    the same on both sides of any comparison.
    """

    name = "cluster_4shard"
    CONFIG = EngineConfig(epsilon=1e-3, sketch_backend="kll", wal_fsync=False)
    SHARDS = 4
    PRELOAD_STEPS = 4
    INGEST_STEPS = 8  # the level-0 -> 1 merge falls on step 11, in phase A
    STEP_ELEMS = 300_000
    CHUNK = 16_384
    TURNS = 60
    TRICKLE = 512

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = self.rng(4)
        size = self.n(self.STEP_ELEMS)
        self.history = [_normal(rng, size) for _ in range(self.PRELOAD_STEPS)]
        self.steps = [_normal(rng, size) for _ in range(self.INGEST_STEPS)]
        self.turns = self.ops(self.TURNS)
        self.trickle = _normal(
            rng, -(-self.turns // 4) * self.TRICKLE
        ).reshape(-1, self.TRICKLE)
        self.quick_phis = _phis(rng, self.turns)
        self.accurate_phis = _phis(rng, self.turns)

    def preloaded(self):
        return [(PRELOADED, PRELOADED, values) for values in self.history]

    def setup(self, tmp: Path):
        _warm_up(self.CONFIG)
        cluster = ClusterEngine(
            shards=self.SHARDS, config=self.CONFIG, wal_dir=tmp / "wal"
        )
        for values in self.history:
            cluster.stream_update_many(values)
            cluster.end_time_step()
        return cluster

    def engines(self, state):
        return state.shards

    def measure(self, cluster, log) -> None:
        query = cluster.quantile
        log.start()
        for index, values in enumerate(self.steps):
            log.feed(cluster, values, self.CHUNK)
            if index % 5 == 4:
                log.query(query, 0.99, "quick", poll=True)
            log.seal(cluster)
        cluster.flush()
        log.mark_ingest_done(sum(v.size for v in self.steps))
        for turn in range(self.turns):
            if turn % 4 == 0:
                log.append(cluster, self.trickle[turn // 4])
            log.query(query, self.quick_phis[turn], "quick")
            log.query(query, self.accurate_phis[turn], "accurate")
        log.stop()

    def close(self, cluster) -> None:
        cluster.close()


REGISTRY: Dict[str, type] = {
    cls.name: cls
    for cls in (IngestHeavy, QueryHeavy, MixedServing, Cluster4Shard)
}
