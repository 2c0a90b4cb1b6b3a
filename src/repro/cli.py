"""Command-line interface: a tiny data-stream warehouse shell.

Operates a persistent engine checkpoint directory::

    python -m repro init  /tmp/wh --epsilon 0.001 --kappa 10
    python -m repro ingest /tmp/wh data.npy            # stream a batch
    python -m repro ingest /tmp/wh data.npy --archive  # ...and end the step
    python -m repro query  /tmp/wh --phi 0.5 0.95 0.99
    python -m repro query  /tmp/wh --phi 0.5 --window 7
    python -m repro status /tmp/wh
    python -m repro fsck   /tmp/wh --repair            # verify checkpoint
    python -m repro fsck   /tmp/wh --wal /tmp/wal      # ...and the ingest WAL
    python -m repro cache-stats /tmp/wh --warm         # shared-cache counters
    python -m repro demo --steps 20                    # self-contained tour
    python -m repro demo --shards 4                    # sharded-cluster tour

``ingest`` accepts ``.npy`` files, whitespace/newline-separated text
files, or ``-`` for numbers on stdin.

Fault injection: ``ingest``, ``query`` and ``demo`` accept
``--fault-plan`` (inline JSON or a file path — see
:class:`repro.faults.FaultPlan`) to run the command against a disk that
fails on a deterministic seeded schedule; ``--fault-transcript`` dumps
the fired faults for replay or as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core.config import EngineConfig
from .core.engine import HybridQuantileEngine
from .faults import DiskFault, FaultPlan, FaultyDisk
from .faults.retry import ARCHIVE_RETRY_POLICY
from .ingest.archiver import ArchiveFailedError
from .persistence import (
    PersistenceError,
    load_engine,
    recover_checkpoint,
    save_engine,
)
from .persistence.checkpoint import config_from_state
from .sketches.base import as_int64_batch
from .storage.disk import SimulatedDisk
from .workloads import NormalWorkload


def _read_values(source: str) -> np.ndarray:
    """Load int64 values from .npy, a text file, or '-' (stdin)."""
    if source == "-":
        text = sys.stdin.read()
        return np.asarray(
            [int(token) for token in text.split()], dtype=np.int64
        )
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(source)
    if path.suffix == ".npy":
        # Refused like every engine door refuses it: a cast would
        # truncate floats and wrap wide uint64 values.
        return as_int64_batch(np.load(path))
    return np.asarray(
        [int(token) for token in path.read_text().split()], dtype=np.int64
    )


def _cmd_init(args: argparse.Namespace) -> int:
    directory = Path(args.warehouse)
    if (directory / "engine.json").exists() and not args.force:
        print(f"error: {directory} already holds an engine "
              "(use --force to overwrite)", file=sys.stderr)
        return 1
    config = EngineConfig(
        epsilon=args.epsilon,
        kappa=args.kappa,
        block_elems=args.block_elems,
        ingest_mode=args.ingest_mode,
        shared_cache_blocks=args.shared_cache_blocks,
        prefetch_blocks=args.prefetch_blocks,
        sketch_backend=args.sketch_backend,
        storage_backend=args.storage_backend,
        storage_dir=args.storage_dir,
        object_tier_level=args.object_tier_level,
    )
    with HybridQuantileEngine(config=config) as engine:
        save_engine(engine, directory)
    print(f"initialized warehouse at {directory} "
          f"(epsilon={args.epsilon}, kappa={args.kappa}, "
          f"storage={args.storage_backend})")
    return 0


def _fault_plan_of(args: argparse.Namespace) -> Optional[FaultPlan]:
    spec = getattr(args, "fault_plan", None)
    return FaultPlan.from_spec(spec) if spec is not None else None


def _load_engine_cli(args: argparse.Namespace) -> HybridQuantileEngine:
    """Load the warehouse engine, on a fault-injecting disk if asked."""
    plan = _fault_plan_of(args)
    if plan is None:
        return load_engine(args.warehouse)
    # The disk must match the persisted block size, which lives in the
    # (recovered) checkpoint's engine state.
    directory = recover_checkpoint(args.warehouse)
    config = config_from_state(
        json.loads(
            (directory / "engine.json").read_text(encoding="utf-8")
        )["config"]
    )
    disk = FaultyDisk(plan, block_elems=config.block_elems)
    # The recovery scan itself runs on the faulty disk; retry transient
    # faults as an archive step would (a fresh load each attempt draws
    # fresh fault decisions).
    try:
        return ARCHIVE_RETRY_POLICY.call(
            lambda: load_engine(args.warehouse, disk=disk)
        )
    except DiskFault:
        # The transcript matters most when the load itself gave up.
        _dump_transcript(args, disk)
        raise


def _dump_transcript(args: argparse.Namespace, disk: SimulatedDisk) -> None:
    path = getattr(args, "fault_transcript", None)
    if path is not None and isinstance(disk, FaultyDisk):
        disk.dump_transcript(path)
        print(f"fault transcript -> {path} "
              f"({disk.faults_fired} faults over {disk.operations} ops)")


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a file of values into the warehouse (vectorized path)."""
    with _load_engine_cli(args) as engine:
        values = _read_values(args.source)
        if args.batch_size and args.batch_size > 0:
            for lo in range(0, len(values), args.batch_size):
                engine.stream_update_many(values[lo : lo + args.batch_size])
        else:
            engine.stream_update_many(values)
        message = f"streamed {len(values):,} elements"
        if args.archive:
            report = engine.end_time_step()
            # Background mode returns a provisional report; the checkpoint
            # flushes anyway, so surface the authoritative numbers.
            if not report.archived:
                flushed = engine.flush()
                if flushed:
                    report = flushed[-1]
            message += (
                f"; archived step {report.step} "
                f"({report.io_total:,} disk accesses"
                + (", merged partitions" if report.merged_levels else "")
                + ")"
            )
        save_engine(engine, args.warehouse)
        stats = engine.ingest_stats
        if stats is not None and (stats.fault_retries or stats.disk_faults):
            message += (f" [{stats.disk_faults} disk faults, "
                        f"{stats.fault_retries} retries]")
        print(message)
        _dump_transcript(args, engine.disk)
        return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _load_engine_cli(args) as engine:
        if engine.n_total == 0:
            print("error: warehouse is empty", file=sys.stderr)
            return 1
        # One pinned snapshot answers every phi: quick mode shares a single
        # TS merge across the list, accurate mode shares the block cache.
        # Answered before the header, so a refused phi prints no table.
        results = engine.quantile_many(
            args.phi, mode=args.mode, window_steps=args.window
        )
        print(f"{'phi':>6} {'value':>16} {'rank target':>12} {'disk I/O':>9}")
        for phi, result in zip(args.phi, results):
            print(f"{phi:>6} {result.value:>16,} {result.target_rank:>12,} "
                  f"{result.disk_accesses:>9}"
                  + ("  DEGRADED" if result.degraded else ""))
        report = engine.reliability
        if not report.healthy:
            print(f"reliability: {report.disk_faults} disk faults, "
                  f"{report.total_retries} retries, "
                  f"{report.degraded_queries} degraded queries")
        _dump_transcript(args, engine.disk)
        return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    with load_engine(args.warehouse, repair=args.repair) as engine:
        layout = [len(p) for p in engine.store.partitions()]
        print(f"checkpoint OK: {len(layout)} partitions, "
              f"{engine.n_historical:,} historical elements over "
              f"{engine.steps_loaded} steps, "
              f"{engine.m_stream:,} buffered stream elements"
              + (" (repair mode)" if args.repair else ""))
        # File-backed storage backends fsck at construction (staging
        # orphans, and for the object tier a run duplicated across hot and
        # bucket by a crash mid-migration); surface what they repaired.
        report = getattr(engine.disk.backend, "fsck_report", None)
        if report is not None:
            if report:
                for line in report:
                    print(f"storage fsck: {line}")
            else:
                print("storage fsck: clean")
    if args.wal is not None:
        return _fsck_wal(args)
    return 0


def _fsck_wal(args: argparse.Namespace) -> int:
    """Validate (and with ``--repair`` salvage) an ingest WAL."""
    from .ingest.wal import WalError, scan_wal

    state = json.loads(
        (Path(args.warehouse) / "engine.json").read_text(encoding="utf-8")
    )
    watermark = int(state.get("wal_lsn", 0))
    try:
        scan = scan_wal(args.wal, salvage=args.repair)
    except WalError as exc:
        print(f"error: WAL corrupt: {exc} "
              "(rerun with --repair to truncate at the damage)",
              file=sys.stderr)
        return 1
    batches = sum(1 for r in scan.records if r.kind == "batch")
    seals = sum(1 for r in scan.records if r.kind == "seal")
    pending = sum(1 for r in scan.records if r.lsn > watermark)
    print(f"WAL OK: {scan.segments} segments, "
          f"{batches} batch frames, {seals} seal frames, "
          f"last LSN {scan.last_lsn} "
          f"(checkpoint watermark {watermark}, "
          f"{pending} records pending replay)"
          + (" [torn tail]" if scan.torn_tail else ""))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with load_engine(args.warehouse) as engine:
        memory = engine.memory_report()
        print(f"warehouse        : {args.warehouse}")
        print(f"epsilon / kappa  : {engine.config.epsilon} / "
              f"{engine.config.kappa}")
        print(f"historical elems : {engine.n_historical:,} "
              f"({engine.steps_loaded} steps)")
        print(f"live stream elems: {engine.m_stream:,}")
        print(f"storage backend  : {engine.config.storage_backend}"
              + (
                  f" ({engine.config.storage_dir})"
                  if engine.config.storage_dir is not None
                  else ""
              ))
        print(f"memory words     : {memory.total_words:,} "
              f"({memory.total_megabytes:.3f} MB)")
        print(f"window sizes     : {engine.available_window_sizes()}")
        layout = [
            f"L{p.level}[{p.start_step}-{p.end_step}]x{len(p):,}"
            for p in engine.store.partitions()
        ]
        print(f"partitions       : {' '.join(layout) if layout else '(none)'}")
        return 0


def _print_backend_stats(engine: HybridQuantileEngine) -> None:
    """Object-tier request counters (only on the object backend)."""
    if engine.config.storage_backend != "object":
        return
    stats = engine.disk.backend.stats()
    print(f"object tier      : {stats.object_runs:,} runs cold, "
          f"{stats.hot_runs:,} hot")
    print(f"object requests  : {stats.gets:,} GETs "
          f"({stats.get_blocks:,} blocks), {stats.puts:,} PUTs, "
          f"{stats.migrations:,} migrations")


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    with load_engine(args.warehouse) as engine:
        cache = engine.shared_cache
        if cache is None:
            print("shared cache     : disabled "
                  "(re-init with --shared-cache-blocks N to enable)")
            _print_backend_stats(engine)
            return 0
        if args.warm:
            if engine.n_total == 0:
                print("error: warehouse is empty", file=sys.stderr)
                return 1
            charged = engine.warm_shared_cache(args.phi)
            print(f"warm pass        : {charged} blocks charged "
                  f"for phis {args.phi}")
        stats = cache.stats()
        print(f"capacity blocks  : {stats.capacity_blocks:,}")
        print(f"resident blocks  : {stats.resident_blocks:,}")
        print(f"lookups          : {stats.lookups:,} "
              f"({stats.hits:,} hits, {stats.misses:,} misses, "
              f"hit rate {stats.hit_rate:.3f})")
        print(f"evictions        : {stats.evictions:,}")
        print(f"invalidated      : {stats.invalidated_blocks:,} blocks over "
              f"{stats.invalidated_runs:,} retired runs")
        print(f"prefetch width   : {engine.config.prefetch_blocks} blocks/run")
        epochs = engine.epoch_stats
        print(f"TS merges        : {epochs.ts_merges:,} ({epochs.ts_reuses:,} "
              f"reused; historical half built {epochs.hs_builds:,}x, "
              f"extended {epochs.hs_extends:,}x)")
        _print_backend_stats(engine)
        return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # One config from the flags for both tours; only the sketch default
    # differs, since a cluster needs KLL's mergeable sketches.
    config = EngineConfig(
        epsilon=args.epsilon, kappa=args.kappa, block_elems=100,
        ingest_mode=args.ingest_mode,
        shared_cache_blocks=args.shared_cache_blocks,
        sketch_backend=args.sketch_backend
        or ("kll" if args.shards > 1 else "gk"),
        storage_backend=args.storage_backend,
    )
    if args.shards > 1:
        return _cmd_demo_cluster(args, config)
    plan = _fault_plan_of(args)
    disk: Optional[SimulatedDisk] = None
    if plan is not None:
        disk = FaultyDisk(plan, block_elems=config.block_elems)
    workload = NormalWorkload(seed=7)
    update_batch = (
        args.batch_size if args.batch_size and args.batch_size > 0 else None
    )
    with HybridQuantileEngine(config=config, disk=disk) as engine:
        print(f"demo: {args.steps} steps x {args.batch:,} elements (Normal, "
              f"{args.ingest_mode} ingest"
              + (f", update batch {update_batch:,}" if update_batch else "")
              + (", fault injection on" if plan is not None else "")
              + (
                  f", {args.storage_backend} storage"
                  if args.storage_backend != "simulated"
                  else ""
              )
              + ")")
        workload.feed(
            engine, args.steps, args.batch, update_batch=update_batch
        )
        engine.flush()
        engine.stream_update_many(workload.generate(args.batch))
        for phi in (0.25, 0.5, 0.75, 0.95, 0.99):
            result = engine.quantile(phi)
            print(f"  phi={phi:<5} -> {result.value:>12,} "
                  f"({result.disk_accesses} disk accesses"
                  + (", degraded" if result.degraded else "")
                  + ")")
        memory = engine.memory_report()
        print(f"memory: {memory.total_words:,} words over "
              f"{engine.n_total:,} elements")
        if engine.shared_cache is not None:
            cache = engine.shared_cache.stats()
            print(f"shared cache: {cache.hits}/{cache.lookups} hits "
                  f"({cache.resident_blocks}/{cache.capacity_blocks} blocks "
                  f"resident, {cache.evictions} evictions)")
        backend_stats = engine.disk.backend.stats()
        if (backend_stats.gets or backend_stats.puts
                or backend_stats.object_runs):
            print(f"object tier: {backend_stats.gets} GETs "
                  f"({backend_stats.get_blocks} blocks), "
                  f"{backend_stats.puts} PUTs, "
                  f"{backend_stats.migrations} migrations, "
                  f"{backend_stats.object_runs} runs cold / "
                  f"{backend_stats.hot_runs} hot")
        stats = engine.ingest_stats
        if stats is not None:
            print(f"ingest: stalled {stats.stall_seconds * 1e3:.1f} ms over "
                  f"{stats.batches_archived} steps "
                  f"(max queue depth {stats.max_queue_depth})")
        report = engine.reliability
        if not report.healthy:
            print(f"reliability: {report.disk_faults} disk faults, "
                  f"{report.archive_retries} archive retries, "
                  f"{report.probe_retries} probe retries, "
                  f"{report.degraded_queries} degraded queries")
        _dump_transcript(args, engine.disk)
    return 0


def _cmd_demo_cluster(args: argparse.Namespace, config: EngineConfig) -> int:
    """Sharded demo: fan a workload across N shards, gather quantiles."""
    from .cluster import ClusterEngine

    plan = _fault_plan_of(args)
    workload = NormalWorkload(seed=7)
    update_batch = (
        args.batch_size if args.batch_size and args.batch_size > 0 else None
    )
    with ClusterEngine(
        shards=args.shards, config=config, fault_plan=plan
    ) as cluster:
        print(f"demo: {args.steps} steps x {args.batch:,} elements over "
              f"{args.shards} shards ({config.sketch_backend} sketches, "
              f"{config.ingest_mode} ingest"
              + (f", update batch {update_batch:,}" if update_batch else "")
              + (
                  f", {config.storage_backend} storage"
                  if config.storage_backend != "simulated"
                  else ""
              )
              + (
                  ", fault injection on"
                  + (
                      f" (shards {list(plan.shard_scope)})"
                      if plan is not None and plan.shard_scope is not None
                      else ""
                  )
                  if plan is not None
                  else ""
              )
              + ")")
        workload.feed(
            cluster, args.steps, args.batch, update_batch=update_batch
        )
        cluster.flush()
        cluster.stream_update_many(workload.generate(args.batch))
        for phi in (0.25, 0.5, 0.75, 0.95, 0.99):
            result = cluster.quantile(phi)
            print(f"  phi={phi:<5} -> {result.value:>12,} "
                  f"({result.disk_accesses} disk accesses)")
        sims = cluster.per_shard_sim_seconds()
        print(f"elements: {cluster.n_total:,} over {args.shards} shards; "
              f"simulated I/O critical path {max(sims) * 1e3:.1f} ms "
              f"(single-device equivalent {sum(sims) * 1e3:.1f} ms)")
        for report in cluster.shard_reports():
            print(f"  shard {report['shard']}: "
                  f"{report['n_historical'] + report['m_stream']:,} elems, "
                  f"{report['io_total']:,} block I/Os, "
                  f"{report['sim_seconds'] * 1e3:.1f} ms simulated")
        transcript_dir = getattr(args, "fault_transcript", None)
        if transcript_dir is not None and plan is not None:
            written = cluster.dump_fault_transcripts(transcript_dir)
            print(f"fault transcripts -> {transcript_dir} "
                  f"({len(written)} shards)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantiles over the union of historical and "
                    "streaming data (VLDB 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser("init", help="create a warehouse directory")
    init.add_argument("warehouse")
    init.add_argument("--epsilon", type=float, default=1e-3)
    init.add_argument("--kappa", type=int, default=10)
    init.add_argument("--block-elems", type=int, default=1024)
    init.add_argument(
        "--ingest-mode", choices=("sync", "background"), default="sync",
        help="archive batches synchronously (default) or on a "
             "background thread that overlaps with updates and queries",
    )
    init.add_argument(
        "--shared-cache-blocks", type=int, default=0,
        help="capacity of the process-wide shared block cache "
             "(default 0: disabled, per-query accounting only)",
    )
    init.add_argument(
        "--prefetch-blocks", type=int, default=4,
        help="max contiguous blocks the accurate path prefetches per "
             "run once its filters narrow (needs a shared cache)",
    )
    init.add_argument(
        "--sketch-backend", choices=("gk", "kll"), default="gk",
        help="stream sketch: gk (deterministic, default) or kll "
             "(randomized, mergeable across shards)",
    )
    init.add_argument(
        "--storage-backend", choices=("simulated", "mmap", "object"),
        default="simulated",
        help="where run payloads live: simulated (in-memory, default), "
             "mmap (one file per run), or object (tiered hot files + "
             "emulated object bucket with GET/PUT accounting)",
    )
    init.add_argument(
        "--storage-dir", metavar="DIR", default=None,
        help="directory for mmap/object run files (default: a private "
             "temporary directory each command removes when it exits; "
             "a directory given here keeps every command's copies)",
    )
    init.add_argument(
        "--object-tier-level", type=int, default=1,
        help="warehouse level at which runs age into the object tier "
             "(object backend only; default 1)",
    )
    init.add_argument("--force", action="store_true")
    init.set_defaults(handler=_cmd_init)

    def add_fault_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fault-plan", metavar="SPEC", default=None,
            help="inject disk faults: inline JSON or a JSON file "
                 '(e.g. \'{"seed": 7, "read_error_rate": 0.05}\')',
        )
        sub.add_argument(
            "--fault-transcript", metavar="PATH", default=None,
            help="write the fired faults (plan + events) as JSON",
        )

    ingest = commands.add_parser("ingest", help="stream a batch of values")
    ingest.add_argument("warehouse")
    ingest.add_argument("source", help=".npy / text file / '-' for stdin")
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="chunk the source into vectorized updates of this many "
        "elements (0 = one update for the whole source)",
    )
    ingest.add_argument(
        "--archive", action="store_true",
        help="end the time step after streaming",
    )
    add_fault_options(ingest)
    ingest.set_defaults(handler=_cmd_ingest)

    query = commands.add_parser("query", help="ask for quantiles")
    query.add_argument("warehouse")
    query.add_argument("--phi", type=float, nargs="+", default=[0.5])
    query.add_argument(
        "--mode", choices=("accurate", "quick"), default="accurate"
    )
    query.add_argument("--window", type=int, default=None)
    add_fault_options(query)
    query.set_defaults(handler=_cmd_query)

    status = commands.add_parser("status", help="show warehouse state")
    status.add_argument("warehouse")
    status.set_defaults(handler=_cmd_status)

    fsck = commands.add_parser(
        "fsck", help="verify (and optionally repair) a checkpoint",
    )
    fsck.add_argument("warehouse")
    fsck.add_argument(
        "--repair", action="store_true",
        help="salvage checksum-mismatched partitions that are still "
             "structurally valid sorted runs, rewriting the manifest; "
             "with --wal, also truncate the log at mid-log corruption",
    )
    fsck.add_argument(
        "--wal", metavar="DIR", default=None,
        help="also validate the ingest write-ahead log in DIR against "
             "the checkpoint's replay watermark",
    )
    fsck.set_defaults(handler=_cmd_fsck)

    demo = commands.add_parser("demo", help="self-contained demonstration")
    demo.add_argument("--steps", type=int, default=10)
    demo.add_argument("--batch", type=int, default=20_000)
    demo.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="chunk each step's elements into vectorized updates of "
        "this many elements (0 = one update per step)",
    )
    demo.add_argument("--epsilon", type=float, default=0.01)
    demo.add_argument("--kappa", type=int, default=10)
    demo.add_argument(
        "--ingest-mode", choices=("sync", "background"), default="sync",
        help="archive batches synchronously (default) or in the background",
    )
    demo.add_argument(
        "--shared-cache-blocks", type=int, default=0,
        help="capacity of the process-wide shared block cache "
             "(default 0: disabled)",
    )
    demo.add_argument(
        "--shards", type=int, default=1,
        help="run the demo over a sharded cluster of this many engines "
             "(default 1: a single engine); --fault-plan may carry a "
             "shard_scope to target specific shards, and "
             "--fault-transcript names a directory for per-shard dumps",
    )
    demo.add_argument(
        "--sketch-backend", choices=("gk", "kll"), default=None,
        help="stream sketch: gk (deterministic, the single-engine "
             "default) or kll (randomized and mergeable: what a "
             "cluster needs, and its default)",
    )
    demo.add_argument(
        "--storage-backend", choices=("simulated", "mmap", "object"),
        default="simulated",
        help="run the demo on real storage: mmap files or the emulated "
             "object store (a private tempdir, removed on exit)",
    )
    add_fault_options(demo)
    demo.set_defaults(handler=_cmd_demo)

    cache_stats = commands.add_parser(
        "cache-stats",
        help="show the shared block-cache counters of a warehouse",
    )
    cache_stats.add_argument("warehouse")
    cache_stats.add_argument(
        "--warm", action="store_true",
        help="run one warming pass for --phi before reading the stats",
    )
    cache_stats.add_argument(
        "--phi", type=float, nargs="+", default=[0.5, 0.95, 0.99],
        help="phis the --warm pass prefetches block ranges for",
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (
        PersistenceError,
        FileNotFoundError,
        ValueError,
        TypeError,
        OverflowError,
        DiskFault,
        ArchiveFailedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
