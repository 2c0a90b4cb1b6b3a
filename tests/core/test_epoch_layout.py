"""One layout per epoch: pins between two writes share what they read.

``HybridQuantileEngine.pin`` derives the partition-set facts a query
reads — the step-ordered partitions with pending batches staged, ``n``,
the run ids to pin, the step, the non-empty partitions' summaries and
their memo key — the first time a pin sees an epoch, and every later
pin at that epoch shares them.  The cache is keyed by the epoch, so
every layout change must bump it or drop the cache: seals and
adoptions bump, a cascade merge and ``load_engine`` drop.

The state machine drives every write, pin and query door (background
ingest, so adoptions land between rules) and checks, after every step,
that each live handle still equals a fresh derivation taken at its pin
and that ``check_invariants`` passes: it compares the shared layout
with a fresh one and, through the conftest's autouse sweep, searches
every retained TS against the paper's arrays
(``ts_arrays_reference.py``).  It logs every acked write, and every
full-scope quick or accurate answer must pass
``bench.oracle.Oracle.verify`` against the writes acked before the
engine answered or the handle was pinned.  It also records where each
seal falls in that log: after every step ``aggregate`` over the full
union and over every answerable window must be exact, and a drawn
range of sealed steps is answered exactly or refused with
``RangeNotAlignedError``.  A sibling machine does the
same to a 3-shard KLL cluster, whose pins reuse one gather per cluster
version, with views held across writes and seals, odd chunkings,
writes straight into a shard, kills (mid-step ones move the step's
home), checkpoints, rejoins, whole-cluster restores that
roll every shard's WAL forward and read-fault bursts on one shard
around an accurate query, which degrade it to quick; an answer
gathered without a quarantined shard is checked over the whole union
against its widened bound.
"""

import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.warehouse.leveled_store as leveled_store
from bench.oracle import Answer, Oracle
from repro.cluster import (
    ClusterEngine,
    load_cluster,
    restore_shards,
    save_cluster,
)
from repro.core.aggregates import AggregateStats
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.core.epoch import HistoricalMemo
from repro.core.windows import (
    RangeNotAlignedError,
    WindowNotAlignedError,
    resolve_window_in,
    window_sizes_from,
)
from repro.faults.errors import CorruptedBlockError
from repro.faults.plan import FaultPlan
from repro.ingest.archiver import ArchiveFailedError
from repro.persistence.checkpoint import load_engine, save_engine


def fresh_derivation(engine):
    """(epoch, partitions, n, step) read straight off the store and the
    archiver's pending set, with adoption held off."""
    with engine._seal_lock, engine.store.layout_lock:
        archiver = engine._archiver
        pending = archiver.pending_batches() if archiver is not None else []
        partitions = engine.store.partitions() + [
            batch.partition for batch in pending
        ]
        return (
            engine.epoch_stats.current_epoch,
            [id(p) for p in partitions],
            sum(map(len, partitions)),
            engine.steps_sealed,
        )


def verify(oracle, writes, mode, phi, at, result):
    """``Oracle.verify`` of one answer given at logical time ``at``.

    Checked as tests/test_differential.py does: a quick answer's
    ``eps1 * n + eps2 * m`` is exceeded on short streams (one sealed
    element under 165 live ones: error 5 > 2.09 + 2), while Lemma 3
    allows 1.5 * eps * N; so its base bound counts twice.  A partial
    gather's answer is checked over the whole union: its size counts
    the missing shards' acked elements back in, and its rank error
    against its own target must fit the widened bound.
    """
    missing = 0 if result.partial is None else result.partial.missing_elements
    if mode == "quick":
        base = result.rank_error_bound - missing
        result = replace(result, rank_error_bound=2 * base + missing)
    if missing:
        result = replace(result, total_size=result.total_size + missing)
    verdict = oracle.verify(writes, [Answer(mode, phi, at, at, result)])
    assert not verdict.failures, verdict.failures


def write_odd(system, rng, kind, size, log):
    """A duplicate-heavy batch, a sorted run or 1-4 scalar writes into
    ``system``, each acked write handed to ``log``."""
    if kind == "scalars":
        for value in rng.integers(0, 10**6, size % 4 + 1):
            system.stream_update(int(value))
            log(np.asarray([value]))
        return
    if kind == "duplicates":
        values = rng.integers(0, 10**6) + rng.integers(0, 16, size)
    else:
        values = np.sort(rng.integers(0, 10**6, size))
    system.stream_update_many(values)
    log(values)


ODD_KINDS = st.sampled_from(["duplicates", "ascending", "scalars"])


def handle_print(handle):
    return (
        handle.epoch,
        [id(p) for p in handle.partitions],
        handle.n_historical,
        handle.created_at_step,
    )


class LayoutMachine(RuleBasedStateMachine):
    """Writes, pins, queries and restores against one background engine."""

    CONFIG = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode="background"
    )

    def __init__(self):
        super().__init__()
        self.engine = HybridQuantileEngine(config=self.CONFIG)
        self.rng = np.random.default_rng(0)
        # (handle, what it read at its pin)
        self.handles = []
        self.directories = []
        # The oracle's log: (start, end, values) per acked write on a
        # logical clock that ticks once per write and per pin.
        self.oracle, self.writes, self.clock = Oracle(), [], 0
        self.pinned_at = {}
        # len(self.writes) at each seal: step s holds the writes logged
        # between the (s-1)-th seal and the s-th.
        self.seals = []

    def tick(self):
        self.clock += 1
        return self.clock

    def teardown(self):
        for handle, _ in self.handles:
            handle.release()
        self.engine.close()
        for directory in self.directories:
            shutil.rmtree(directory, ignore_errors=True)

    # -- writes -------------------------------------------------------------

    def log(self, values):
        """Log one acked write for the oracle, at the next tick."""
        at = self.tick()
        self.writes.append((at, at, values))

    @rule(size=st.integers(1, 300))
    def update(self, size):
        values = self.rng.integers(0, 10**6, size)
        self.engine.stream_update_many(values)
        self.log(values)

    @rule(kind=ODD_KINDS, size=st.integers(1, 300))
    def odd_update(self, kind, size):
        """A duplicate-heavy batch, a sorted run or a few scalar writes."""
        write_odd(self.engine, self.rng, kind, size, self.log)

    @rule()
    def seal(self):
        self.engine.end_time_step()
        self.seals.append(len(self.writes))

    @rule()
    def flush(self):
        self.engine.flush()

    def exact(self, first_step=1, last_step=None):
        """Exact aggregates of the writes of steps ``first_step`` to
        ``last_step`` (``None``: every sealed step and the live stream)."""
        bounds = [0] + self.seals
        end = None if last_step is None else bounds[last_step]
        chunks = [v for _, _, v in self.writes[bounds[first_step - 1]:end]]
        if not chunks:
            return AggregateStats.empty()
        return AggregateStats.of_array(np.concatenate(chunks).astype(np.int64))

    # -- pins ---------------------------------------------------------------

    @rule()
    def pin(self):
        before = self.engine.epoch_stats.current_epoch
        handle = self.engine.pin()
        self.pinned_at[handle] = self.tick()
        fresh = fresh_derivation(self.engine)
        if fresh[0] == before:
            # No adoption raced the pin: it must be this very state.
            assert handle_print(handle) == fresh
        self.handles.append((handle, handle_print(handle)))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.handles) - 1))
        handle, _ = self.handles.pop(index)
        handle.release()

    # -- queries ------------------------------------------------------------

    def view(self, data):
        """The engine, or one of the live handles."""
        index = data.draw(st.integers(-1, len(self.handles) - 1))
        return self.engine if index < 0 else self.handles[index][0]

    @rule(
        data=st.data(),
        phi=st.floats(0.01, 1.0),
        mode=st.sampled_from(["quick", "accurate"]),
    )
    def query(self, data, phi, mode):
        view = self.view(data)
        if view.n_total == 0:
            return
        result = view.quantile(phi, mode)
        assert result.total_size == view.n_total
        at = self.tick() if view is self.engine else self.pinned_at[view]
        verify(self.oracle, self.writes, mode, phi, at, result)

    @precondition(lambda self: self.handles)
    @rule(
        data=st.data(),
        mode=st.sampled_from(["quick", "accurate"]),
        part_at=st.integers(0, 255),
        window_at=st.integers(0, 255),
    )
    def scoped_query(self, data, mode, part_at, window_at):
        # A handle's partitions and window sizes depend on when the
        # archiver adopted, so positions in them are drawn before any
        # state is read: the draws replay the same whatever it did.
        index = data.draw(st.integers(0, len(self.handles) - 1))
        handle = self.handles[index][0]
        parts = [p for p in handle.partitions if len(p) > 0]
        if not parts:
            return
        part = parts[part_at % len(parts)]
        span = (part.start_step, part.end_step)
        result = handle.quantile(0.5, mode, step_range=span)
        assert result.total_size == len(part)
        sizes = window_sizes_from(handle.partitions)
        window = sizes[window_at % len(sizes)]
        covered = resolve_window_in(handle.partitions, window)
        if sum(map(len, covered)) + handle.m_stream > 0:
            handle.quantile(0.5, mode, window_steps=window)

    @rule(first_at=st.integers(0, 255), span_at=st.integers(0, 255))
    def aggregate_range(self, first_at, span_at):
        """A range of sealed steps is answered exactly or refused."""
        sealed = len(self.seals)
        if not sealed:
            return
        first = first_at % sealed + 1
        last = first + span_at % (sealed - first + 1)
        try:
            got = self.engine.aggregate(step_range=(first, last))
        except RangeNotAlignedError:
            return
        assert got == self.exact(first, last)

    # -- restore ------------------------------------------------------------

    @rule(size=st.integers(1, 300))
    def restore(self, size):
        # Seal something first, so the restored store is never empty.
        self.update(size)
        self.seal()
        directory = tempfile.mkdtemp(prefix="layout-machine-")
        self.directories.append(directory)
        save_engine(self.engine, directory)
        for handle, _ in self.handles:
            handle.release()
        self.handles = []
        self.engine.close()
        self.engine = load_engine(directory)
        # The first pin after a restore must see the restored store.
        self.pin()

    # -- after every step ---------------------------------------------------

    @invariant()
    def handles_never_move(self):
        for handle, printed in self.handles:
            assert handle_print(handle) == printed

    @invariant()
    def invariants_hold(self):
        self.engine.check_invariants()

    @invariant()
    def aggregates_are_exact(self):
        """The full union, and every window the layout answers, count,
        sum, min and max every acked write in scope exactly."""
        assert self.engine.aggregate() == self.exact()
        sealed = len(self.seals)
        epoch = self.engine.epoch_stats.current_epoch
        for window in self.engine.available_window_sizes():
            try:
                got = self.engine.aggregate(window_steps=window)
            except WindowNotAlignedError:
                # Only an adoption since the sizes were read may move
                # the boundaries, and it bumps the epoch.
                assert self.engine.epoch_stats.current_epoch != epoch
                continue
            assert got == self.exact(sealed - window + 1)


TestLayoutMachine = LayoutMachine.TestCase
TestLayoutMachine.settings = settings(
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ClusterMachine(RuleBasedStateMachine):
    """Writes, seals, flushes, held views, queries, direct shard writes,
    kills, checkpoints, rejoins and restores against a 3-shard KLL
    cluster with background ingest and per-shard WALs.  After every step
    the cluster's invariants hold, the step's home is live and every live
    shard counts one pin per held view."""

    SHARDS = 3
    CONFIG = replace(
        LayoutMachine.CONFIG,
        sketch_backend="kll",
        min_gather_shards=1,
        wal_fsync=False,
    )

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="cluster-machine-")
        self.cluster = ClusterEngine(
            shards=self.SHARDS, config=self.CONFIG, wal_dir=f"{self.root}/wal"
        )
        self.saved = None  # the last checkpoint's directory
        self.rng = np.random.default_rng(1)
        # (view, the logical time it was pinned at)
        self.views = []
        self.oracle, self.writes, self.clock = Oracle(), [], 0

    def tick(self):
        self.clock += 1
        return self.clock

    def teardown(self):
        self.release_all()
        self.cluster.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def live(self):
        return [i for i, s in enumerate(self.cluster.shards) if s is not None]

    def release_all(self):
        for view, _ in self.views:
            view.release()
        self.views = []

    def log(self, values):
        """Log one acked write for the oracle, at the next tick."""
        at = self.tick()
        self.writes.append((at, at, values))

    @rule(size=st.integers(1, 300))
    def update(self, size):
        values = self.rng.integers(0, 10**6, size)
        self.cluster.stream_update_many(values)
        self.log(values)
        assert self.cluster.shards[self.cluster.router.home] is not None

    @rule(kind=ODD_KINDS, size=st.integers(1, 300))
    def odd_update(self, kind, size):
        """A duplicate-heavy batch, a sorted run or a few scalar writes,
        each routed to the step's home."""
        write_odd(self.cluster, self.rng, kind, size, self.log)
        assert self.cluster.shards[self.cluster.router.home] is not None

    @rule(data=st.data(), size=st.integers(1, 300))
    def direct_update(self, data, size):
        """A write straight into a live shard, acked to the cluster's
        ledger as its own write verb would: the next pin must see it."""
        index = data.draw(st.sampled_from(self.live()))
        values = self.rng.integers(0, 10**6, size)
        self.cluster.shards[index].stream_update_many(values)
        self.cluster._shard_elems[index] += size
        self.log(values)

    @rule()
    def seal(self):
        self.cluster.end_time_step()

    @rule()
    def flush(self):
        self.cluster.flush()

    @rule()
    def pin(self):
        self.views.append((self.cluster.pin(), self.tick()))

    @precondition(lambda self: self.views)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.views) - 1))
        self.views.pop(index)[0].release()

    @precondition(lambda self: not self.cluster.quarantined_shards)
    @rule()
    def checkpoint(self):
        self.saved = save_cluster(self.cluster, f"{self.root}/ckpt")

    @precondition(
        lambda self: self.saved is not None and len(self.live()) > 1
    )
    @rule(data=st.data())
    def kill(self, data):
        """Quarantine a live shard, mid-step or not (views pinned over
        its engine go first)."""
        index = data.draw(st.sampled_from(self.live()))
        self.release_all()
        self.cluster.kill_shard(index, "chaos")

    @precondition(lambda self: self.cluster.quarantined_shards)
    @rule()
    def rejoin(self):
        self.release_all()
        restore_shards(self.cluster, self.saved)
        assert not self.cluster.quarantined_shards

    @precondition(lambda self: self.saved is not None)
    @rule()
    def restore(self):
        """Close the cluster, quarantined slots too, and load the last
        checkpoint through every shard's WAL: each acked write is back."""
        self.release_all()
        self.cluster.close()
        self.cluster = load_cluster(self.saved, wal_dir=f"{self.root}/wal")
        assert not self.cluster.quarantined_shards
        assert self.cluster.n_total == sum(v.size for _, _, v in self.writes)

    @rule(
        data=st.data(),
        phi=st.floats(0.01, 1.0),
        mode=st.sampled_from(["quick", "accurate"]),
    )
    def query(self, data, phi, mode):
        """The cluster, or one of the held views."""
        index = data.draw(st.integers(-1, len(self.views) - 1))
        view, at = (self.cluster, None) if index < 0 else self.views[index]
        if view.n_total == 0:
            return
        result = view.quantile(phi, mode)
        assert result.total_size == view.n_total
        assert (result.partial is not None) == bool(
            self.cluster.quarantined_shards if at is None else view.missing
        )
        at = self.tick() if at is None else at
        verify(self.oracle, self.writes, mode, phi, at, result)

    @rule(data=st.data(), phi=st.floats(0.01, 1.0))
    def faulted_query(self, data, phi):
        """An accurate query of the cluster while a burst of reads on
        one live shard faults, with background work drained first so
        the burst meets only the search.  A search that reads that
        shard degrades to quick over the whole gather, widened for
        quarantined shards alone, and is counted on that shard's disk."""
        if self.cluster.n_total == 0:
            return
        live = self.live()
        index = data.draw(st.sampled_from(live))
        self.cluster.flush()
        disk = self.cluster.shards[index].disk
        plan, fired = disk.plan, disk.faults_fired

        def degraded_counts():
            return [
                self.cluster.shards[i].reliability.degraded_queries
                for i in live
            ]

        before = degraded_counts()
        # Far more reads than a probe's four attempts: the first read
        # of this shard that faults exhausts its retries.
        start = disk.operations
        disk.plan = FaultPlan(
            fail_at={("read", op) for op in range(start, start + 16)}
        )
        try:
            result = self.cluster.quantile(phi, "accurate")
        finally:
            disk.plan = plan
        assert result.degraded == (disk.faults_fired > fired)
        quarantined = tuple(sorted(self.cluster.quarantined_shards))
        partial = result.partial
        assert (partial.missing_shards if partial else ()) == quarantined
        assert degraded_counts() == [
            count + (result.degraded and i == index)
            for i, count in zip(live, before)
        ]
        # A degraded answer is a quick one, held to the quick allowance.
        mode = "quick" if result.degraded else "accurate"
        verify(
            self.oracle, self.writes, mode, phi, self.tick(),
            replace(result, degraded=False),
        )

    @invariant()
    def invariants_hold(self):
        self.cluster.check_invariants()
        live = [s for s in self.cluster.shards if s is not None]
        for shard in live:
            assert shard.epoch_stats.live_pins == len(self.views)


TestClusterMachine = ClusterMachine.TestCase
TestClusterMachine.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- count guard ---------------------------------------------------------------


def count_derivations(monkeypatch):
    derived = []
    original = HybridQuantileEngine._derive_layout

    def derive(engine):
        derived.append(engine)
        return original(engine)

    monkeypatch.setattr(HybridQuantileEngine, "_derive_layout", derive)
    return derived


def record_memo_keys(monkeypatch):
    calls = []
    original = HistoricalMemo.combined

    def combined(memo, summaries, stream_summary, key=None):
        calls.append((tuple(map(id, summaries)), key))
        return original(memo, summaries, stream_summary, key)

    monkeypatch.setattr(HistoricalMemo, "combined", combined)
    return calls


def fed(system, steps=5):
    rng = np.random.default_rng(11)
    for _ in range(steps):
        system.stream_update_many(rng.integers(0, 10**6, 2000))
        system.end_time_step()
    system.stream_update_many(rng.integers(0, 10**6, 500))
    return system


def quick_schedule(system, rng):
    """K = 30 quick queries at one epoch through every full-scope door,
    with a stream write after the tenth (it moves SS, not the epoch)."""
    for turn in range(30):
        if turn == 10:
            system.stream_update_many(rng.integers(0, 10**6, 64))
        door = turn % 3
        if door == 0:
            system.quantile(0.37, "quick")
        elif door == 1:
            system.query_rank(1234, "quick")
        else:
            system.quantile_many([0.1, 0.5, 0.9], "quick")


def test_an_engine_derives_one_layout_per_epoch(monkeypatch):
    engine = fed(HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64))
    derived = count_derivations(monkeypatch)
    keys = record_memo_keys(monkeypatch)
    quick_schedule(engine, np.random.default_rng(5))
    assert derived == [engine]
    assert len(keys) == 30
    assert all(key == composed for composed, key in keys)
    stats = engine.epoch_stats
    # One resolution per query, every one after a write's first reusing
    # the retained TS; quick queries pin nothing.
    assert (stats.ts_merges, stats.ts_reuses) == (30, 28)
    assert (stats.hs_builds, stats.hs_extends) == (1, 0)
    assert (stats.peak_pins, stats.live_pins) == (0, 0)


def test_a_cluster_derives_one_layout_per_shard(monkeypatch):
    cluster = fed(
        ClusterEngine(
            shards=3,
            config=EngineConfig(
                epsilon=0.01, kappa=3, block_elems=64, sketch_backend="kll"
            ),
        )
    )
    derived = count_derivations(monkeypatch)
    keys = record_memo_keys(monkeypatch)
    quick_schedule(cluster, np.random.default_rng(5))
    assert sorted(map(id, derived)) == sorted(
        id(shard) for shard in cluster.shards
    )
    assert len(keys) == 30
    assert all(key == composed for composed, key in keys)
    memo = cluster._historical_memo
    assert (memo.builds, memo.extends, memo.reuses) == (1, 0, 28)
    for shard in cluster.shards:
        stats = shard.epoch_stats
        assert (stats.ts_merges, stats.peak_pins, stats.live_pins) == (0, 1, 0)
    cluster.close()


def test_windows_and_ranges_still_compose_their_key(monkeypatch):
    engine = fed(HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64))
    keys = record_memo_keys(monkeypatch)
    engine.quantile(0.5, "quick", window_steps=1)
    engine.quantile(0.5, "quick", step_range=(5, 5))
    engine.quantile(0.5, "quick")
    assert [key is None for _, key in keys] == [True, True, False]


# -- what drops the layout without an epoch bump ---------------------------------


def test_a_cascade_merge_that_faults_halfway_drops_the_layout(monkeypatch):
    """A two-level cascade whose second merge faults changes the layout
    and never bumps the epoch: pins after it see the merged level."""
    engine = HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.05, kappa=2, block_elems=16, ingest_mode="background"
        )
    )
    rng = np.random.default_rng(3)
    for _ in range(6):  # levels: [56] [12 34]; the seventh merges both
        engine.stream_update_many(rng.integers(0, 10**6, 200))
        engine.end_time_step()
    engine.flush()
    engine._archiver.pause()
    engine.stream_update_many(rng.integers(0, 10**6, 200))
    engine.end_time_step()
    with engine.pin() as before:
        pass
    merges = []
    merge_runs = leveled_store.merge_runs

    def second_merge_faults(disk, runs):
        merges.append(runs)
        if len(merges) == 2:
            raise CorruptedBlockError("read", 0)
        return merge_runs(disk, runs)

    monkeypatch.setattr(leveled_store, "merge_runs", second_merge_faults)
    engine._archiver.resume()
    with pytest.raises(ArchiveFailedError):
        engine.flush()
    assert len(merges) == 2
    assert engine.epoch_stats.current_epoch == before.epoch
    with engine.pin() as after:
        assert handle_print(after) == fresh_derivation(engine)
        assert handle_print(after) != handle_print(before)
    engine.check_invariants()
    engine.close()
