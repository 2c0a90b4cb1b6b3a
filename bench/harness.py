"""Runs one workload in this process and turns its logs into metrics.

One run is: generate inputs from the seed; then *rounds* until
``--seconds`` are measured, each a fresh system
(:meth:`Workload.setup`, timed as set-up), the workload's script run
once (the measured loop) and an untimed teardown; then the exact oracle
over every round's log.  Latency percentiles pool the raw per-call
latencies of every round; rates are per round and steadied over the
rounds (:func:`steady`).  A fresh process per workload and a fresh
system per round are deliberate: the same ingest loop repeated in one
process drifted 7.1 s -> 10-11 s in probes, fresh processes did not.

With ``trace=True`` every second round runs untraced (the baseline for
``tracing.overhead_share``) and the others run with the wrappers of
:mod:`bench.layers` installed, single-engine queries driven stage by
stage and replayed through ``engine.quantile`` for equality.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import layers, metrics, speed, trace
from .oracle import Answer, Oracle
from .workloads import REGISTRY, Workload

#: fewest rounds of a run: set-up is a median and rates are steadied
#: over rounds, so three is the least that means anything.
MIN_ROUNDS = 3
#: stop adding rounds once this many ran, whatever the clock says.
MAX_ROUNDS = 12
#: times the inputs are generated (``setup_s`` takes the median).
DATAGENS = 3
#: reference probes on each side of a timed set-up step.
EDGE_PROBES = 4
#: seconds of a client's operations between two reference probes inside
#: a measured loop.  A probe is 2 ms of interpreter with the GIL held:
#: every 30 ms, the two clients of ``mixed_serving`` lost a tenth of
#: their throughput to each other's probes.
PROBE_EVERY_S = 0.1


_NO_SPAN = contextlib.nullcontext()


class RoundLog:
    """Times and records every call a workload makes in one round."""

    def __init__(self, tracer: Optional[trace.Tracer] = None) -> None:
        self.tracer = tracer
        self._span: Callable = tracer.span if tracer else lambda name: _NO_SPAN
        #: ``(start, end, values)`` per acked write.
        self.writes: List[tuple] = []
        self.answers: List[Answer] = []
        #: untimed answers: verified, never in a latency sample.
        self.unmeasured: List[Answer] = []
        #: quick polls of an ingest phase (timed, kept out of the
        #: query-latency samples of the query phase).
        self.polls: List[Answer] = []
        #: authoritative ``StepReport`` per archived step.
        self.reports: list = []
        self.errors: List[str] = []
        #: ``(kind, thread, seconds, completed)`` of every timed call; a
        #: thread's entries are in script order.
        self.timeline: List[tuple] = []
        #: length of the separate ingest phase at the head of the
        #: timeline; ``None`` when the whole loop ingests.
        self.ingest_ops: Optional[int] = None
        #: seconds of replay checks inside the loop (traced rounds).
        self.replay_s = 0.0
        self.replays = 0
        #: CPU seconds of each reference probe taken inside the loop.
        self.probes: List[float] = []
        #: when each client thread last probed.
        self._probed: Dict[str, float] = {}
        #: multiplier that reads this round's durations at reference
        #: speed (set when the loop stops).
        self.speed = 1.0
        self.started = 0.0
        #: seconds of the measured loop, probes taken out.
        self.wall = 0.0
        self.ingest_elems = 0
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: ``MetricsSnapshot`` of the round's QueryService, if any.
        self.service = None

    # -- clock ----------------------------------------------------------

    def start(self) -> None:
        """Start the measured loop."""
        self.started = time.perf_counter()

    def mark_ingest_done(self, elements: int) -> None:
        """End of a separate ingest phase (workloads that have one)."""
        self.ingest_ops = len(self.timeline)
        self.ingest_elems = elements

    def stop(self, ingest_elems: Optional[int] = None) -> None:
        """End the measured loop.

        ``ingest_elems`` is given by workloads whose writes are spread
        over the whole loop: their ingest phase *is* the loop.
        """
        # A probe is the harness's work, not the program's.
        self.wall = time.perf_counter() - self.started - sum(self.probes)
        self.probes.append(speed.probe())
        self.speed = speed.factor(self.probes)
        if ingest_elems is not None:
            self.ingest_elems = ingest_elems

    @property
    def ops(self) -> int:
        """Operations attempted inside the measured loop."""
        return len(self.timeline)

    def seconds(self, kind: str) -> List[float]:
        """Raw durations of this round's calls of one kind."""
        return [op[2] for op in self.timeline if op[0] == kind]

    def _clocked(self, kind: str, start: float, end: float, ok: bool) -> None:
        """Log one timed call; between calls, time the reference work.

        The probes tell the round how fast the machine ran while it was
        measured (see :mod:`bench.speed`).
        """
        thread = threading.current_thread().name
        self.timeline.append((kind, thread, end - start, ok))
        if end - self._probed.get(thread, self.started) >= PROBE_EVERY_S:
            self.probes.append(speed.probe())
            self._probed[thread] = time.perf_counter()

    # -- operations -----------------------------------------------------

    def append(self, target, values: np.ndarray) -> None:
        """One timed ``stream_update_many`` call."""
        with self._span("op.append"):
            start = time.perf_counter()
            try:
                target.stream_update_many(values)
            except Exception as exc:  # a failed op, not a harness crash
                self.errors.append(f"append: {type(exc).__name__}: {exc}")
                values = None
            end = time.perf_counter()
        self._clocked("append", start, end, values is not None)
        if values is not None:
            self.writes.append((start, end, values))

    def feed(self, target, values: np.ndarray, chunk: int) -> None:
        """Append ``values`` in ``chunk``-element calls."""
        for offset in range(0, values.size, chunk):
            self.append(target, values[offset:offset + chunk])

    def seal(self, target) -> None:
        """One timed ``end_time_step`` call."""
        failed = False
        with self._span("op.seal"):
            start = time.perf_counter()
            try:
                reports = target.end_time_step()
            except Exception as exc:
                self.errors.append(f"seal: {type(exc).__name__}: {exc}")
                reports, failed = [], True
            end = time.perf_counter()
        self._clocked("seal", start, end, not failed)
        if not isinstance(reports, list):
            reports = [reports]
        # Background mode hands back provisional reports; the
        # authoritative ones come from flush().
        self.reports.extend(r for r in reports if r is not None and r.archived)

    def query(
        self,
        call: Callable,
        phi: float,
        mode: str,
        timed: bool = True,
        poll: bool = False,
    ) -> None:
        """One ``call(phi, mode)``; exceptions become failed operations."""
        result = error = None
        with self._span("op." + mode):
            submit = time.perf_counter()
            try:
                result = call(phi, mode)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
        replay = getattr(call, "replay", None)
        if replay is not None and result is not None:
            error = replay(phi, mode, result)
        answer = Answer(mode, float(phi), submit, done, result, error)
        if not timed:
            self.unmeasured.append(answer)
            return
        self._clocked("poll" if poll else mode, submit, done, error is None)
        (self.polls if poll else self.answers).append(answer)

    def engine_query(self, engine) -> Callable:
        """``engine.quantile``, or its staged twin in a traced round."""
        if self.tracer is None:
            return engine.quantile
        return StagedQuery(engine, self)


class StagedQuery:
    """A single-engine query driven stage by stage, then replayed.

    :meth:`RoundLog.query` calls :meth:`replay` after the operation's
    span has closed, so the reference call is in no span and no
    latency sample; its time is kept in ``log.replay_s`` so the
    overhead estimate can leave it out.
    """

    def __init__(self, engine, log: RoundLog) -> None:
        self.engine = engine
        self.log = log

    def __call__(self, phi: float, mode: str):
        return layers.staged_quantile(self.engine, phi, mode)

    def replay(self, phi: float, mode: str, result) -> Optional[str]:
        """``None`` if ``engine.quantile`` gives the same answer."""
        started = time.perf_counter()
        with self.log.tracer.paused():
            reference = self.engine.quantile(phi, mode)
        self.log.replay_s += time.perf_counter() - started
        self.log.replays += 1
        for field in layers.REPLAY_FIELDS:
            if getattr(result, field) != getattr(reference, field):
                return (
                    f"staged answer differs from engine.quantile on {field}: "
                    f"{getattr(result, field)} != {getattr(reference, field)}"
                )
        return None


def _counter_delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: value - before.get(key, 0) for key, value in after.items()}


def run_round(
    workload: Workload, traced: bool, tmp: Path
) -> "tuple[RoundLog, float]":
    """Set up, measure and tear down one round; returns (log, setup_s).

    ``setup_s`` is at reference speed, like every duration of the log.
    """
    log = RoundLog(trace.Tracer() if traced else None)
    tmp.mkdir(parents=True)
    try:
        setup_s, state = at_reference_speed(lambda: workload.setup(tmp))
        try:
            engines = workload.engines(state)
            before = layers.read_counters(engines)
            if traced:
                layers.install_wrappers(log.tracer)
            try:
                workload.measure(state, log)
            finally:
                if traced:
                    log.tracer.restore()
            log.counters = _counter_delta(
                layers.read_counters(engines), before
            )
            log.gauges = layers.read_gauges(engines)
        finally:
            workload.close(state)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return log, setup_s


def at_reference_speed(work: Callable) -> tuple:
    """``(seconds at reference speed, result)`` of one call of ``work``."""
    probes = [speed.probe() for _ in range(EDGE_PROBES)]
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    probes += [speed.probe() for _ in range(EDGE_PROBES)]
    return elapsed * speed.factor(probes), result


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _pct(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def steady(samples: List[float]) -> float:
    """Mean of ``samples`` without the lowest and the highest one.

    One value per round goes in.  Dropping one sample at each end keeps
    a single stalled round (a neighbour's burst, a slow fsync) out of
    the result, and averaging the rest moves in proportion when the
    machine changes speed between rounds, where a median would jump.
    """
    ordered = sorted(samples)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return statistics.mean(ordered)


def served_latencies(logs: List[RoundLog], mode: str) -> List[float]:
    """Caller-observed seconds of every answered query of ``mode``.

    The raw per-call latencies of all ``logs`` in one pool, each at its
    round's reference speed: a stall that hits one call in twenty is in
    the pool wherever it fell.  Calls that raised are failed
    operations, not latency samples.
    """
    return [
        a.latency * log.speed
        for log in logs for a in log.answers
        if a.mode == mode and a.error is None
    ]


def end_to_end_metrics(
    logs: List[RoundLog], setup_s: float, rss_mb: float
) -> Dict[str, float]:
    """The gated metrics of one run, from its untraced rounds.

    A rate divides a round's work by the seconds one client spent in
    the calls of that phase: the summed call durations over the number
    of client threads (closed loops: a client is always inside a call,
    so on one thread this is the loop's time without the harness's
    own).  The rounds' rates are then steadied.
    """
    logs = [log for log in logs if log.tracer is None]
    ops_rates, ingest_rates = [], []
    for log in logs:
        clients = len({op[1] for op in log.timeline})
        phase = log.timeline[:log.ingest_ops]
        busy = sum(op[2] for op in log.timeline) * log.speed / clients
        ingest_busy = sum(op[2] for op in phase) * log.speed / clients
        ops_rates.append(sum(op[3] for op in log.timeline) / busy)
        ingest_rates.append(log.ingest_elems / ingest_busy)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ingest_updates_per_s": steady(ingest_rates),
        "ops_per_s": steady(ops_rates),
    }
    for mode in ("quick", "accurate"):
        values[f"{mode}_p50_ms"] = _ms(_pct(served_latencies(logs, mode), 50))
    blocks = [
        a.result.disk_accesses for log in logs for a in log.answers
        if a.mode == "accurate" and a.result is not None
    ]
    # Integer sum over integer count: repeats exactly for a given seed
    # however many rounds the run had time for.
    values["accurate_blocks_per_query"] = sum(blocks) / max(1, len(blocks))
    return {name: float(values[name]) for name in metrics.END_TO_END_NAMES}


def per_layer_metrics(
    logs: List[RoundLog], worst_ratio: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer table, from the traced rounds of ``logs``.

    ``*_s`` values are summed **self** times of the spans of that name,
    except ``cluster.pin_s`` / ``cluster.fuse_s`` / ``cluster.poll_s``,
    which are orchestration steps and are reported inclusive of the
    single-engine layers they call.  Every duration the benchmark
    clocked itself is at reference speed, like the end-to-end table;
    durations read from the program's stats surfaces are as reported.
    Tail latencies are caller-observed, so they come from the untraced
    rounds of the run.
    """
    traced = [log for log in logs if log.tracer is not None]
    plain = [log for log in logs if log.tracer is None]
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    op_time = covered = 0.0
    for log in traced:
        spans = log.tracer.spans
        for span, self_s in zip(spans, trace.self_times(spans)):
            name = span[0]
            duration = (span[2] - span[1]) * log.speed
            self_s *= log.speed
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration
            if name.startswith(trace.OP_PREFIX):
                op_time += duration
            elif span[4] is not None:
                covered += self_s
        for key, value in log.tracer.counts.items():
            counts[key] = counts.get(key, 0) + value

    def total(key: str) -> float:
        return sum(log.counters.get(key, 0) for log in traced)

    def gauge(key: str) -> float:
        return max((log.gauges.get(key, 0) for log in traced), default=0)

    reports = [r for log in traced for r in log.reports]

    def cpu(phase: str) -> float:
        return sum(r.cpu_seconds.get(phase, 0.0) for r in reports)

    answers = [a for log in traced for a in log.answers if a.result is not None]
    accurate = [a for a in answers if a.mode == "accurate"]
    quick, accurate_s = (
        served_latencies(plain, mode) for mode in ("quick", "accurate")
    )
    acks = [(end - start) * log.speed
            for log in traced for start, end, _ in log.writes]
    seals = [s * log.speed for log in traced for s in log.seconds("seal")]
    services = [log.service for log in traced if log.service is not None]
    served = services[-1] if services else None
    lookups = total("storage.cache.hits") + total("storage.cache.misses")
    ts_builds = calls.get("core.bounds.ts_build", 0)
    clustered = "cluster.pin" in calls

    def per_op(log: RoundLog) -> float:
        return (log.wall - log.replay_s) * log.speed / max(1, log.ops)

    overhead = 0.0
    if traced and plain:
        base = statistics.mean(per_op(log) for log in plain)
        overhead = statistics.mean(per_op(log) for log in traced) / base - 1.0

    values = {
        "sketches.absorb_s": own.get("sketches.absorb", 0.0),
        "sketches.absorb_elems": counts.get("sketches.absorb_elems", 0),
        "sketches.snapshot_s": own.get("sketches.snapshot", 0.0),
        "sketches.merge_many_s": own.get("sketches.merge_many", 0.0),
        "sketches.merge_many_calls": calls.get("sketches.merge_many", 0),
        "warehouse.sort_s": cpu("sort"),
        "warehouse.merge_s": cpu("merge"),
        "warehouse.load_s": cpu("load"),
        "warehouse.merge_steps": sum(r.merged_levels for r in reports),
        "warehouse.partitions_final": gauge("warehouse.partitions_final"),
        "warehouse.seal_stall_p50_ms": _ms(_pct(seals, 50)),
        "warehouse.seal_stall_p95_ms": _ms(_pct(seals, 95)),
        "warehouse.seal_samples": len(seals),
        "core.summaries.partition_build_s": cpu("summary"),
        "core.summaries.stream_extract_s": own.get(
            "core.summaries.stream_extract", 0.0),
        "core.epoch.pin_s": own.get("core.epoch.pin", 0.0),
        "core.epoch.pins": calls.get("core.epoch.pin", 0),
        "core.epoch.peak_pins": gauge("core.epoch.peak_pins"),
        "core.bounds.ts_build_s": own.get("core.bounds.ts_build", 0.0),
        "core.bounds.ts_builds": ts_builds,
        "core.bounds.ts_elems_mean": (
            counts.get("core.bounds.ts_elems", 0) / ts_builds
            if ts_builds else 0.0
        ),
        "core.bounds.quick_response_s": own.get(
            "core.bounds.quick_response", 0.0),
        "core.bounds.quick_err_over_bound_max": worst_ratio["quick"],
        "core.bounds.accurate_err_over_bound_max": worst_ratio["accurate"],
        "core.filters.search_s": own.get("core.filters.search", 0.0),
        "core.filters.iterations_per_query": (
            float(np.mean([a.result.iterations for a in accurate]))
            if accurate else 0.0
        ),
        "core.filters.truncated": sum(a.result.truncated for a in accurate),
        "query.run_tasks_s": own.get("query.run_tasks", 0.0),
        "query.probe_tasks": counts.get("query.probe_tasks", 0),
        "storage.cache.hit_rate": (
            total("storage.cache.hits") / lookups if lookups else 0.0
        ),
        "ingest.append_s": own.get("ingest.append", 0.0),
        "ingest.append_calls": calls.get("ingest.append", 0),
        "ingest.update_ack_p50_ms": _ms(_pct(acks, 50)),
        "ingest.update_ack_p95_ms": _ms(_pct(acks, 95)),
        "ingest.wal.append_s": own.get("ingest.wal.append", 0.0),
        "ingest.wal.frames": calls.get("ingest.wal.append", 0),
        "ingest.wal.bytes": counts.get("ingest.wal.bytes", 0),
        "ingest.archiver.max_queue_depth": gauge(
            "ingest.archiver.max_queue_depth"),
        "storage.backend.hot_bytes": gauge("storage.backend.hot_bytes"),
        "cluster.route_s": own.get("cluster.route", 0.0),
        "cluster.pin_s": inclusive.get("cluster.pin", 0.0),
        "cluster.fuse_s": inclusive.get("cluster.fuse", 0.0),
        "cluster.poll_s": sum(
            a.latency * log.speed for log in traced for a in log.polls),
        "cluster.quick_p90_ms": _ms(_pct(quick, 90)) if clustered else 0.0,
        "cluster.accurate_p90_ms": (
            _ms(_pct(accurate_s, 90)) if clustered else 0.0),
        "cluster.shard_skew": gauge("cluster.shard_skew") if clustered else 0.0,
        "cluster.per_shard_blocks_max": (
            gauge("cluster.per_shard_blocks_max") if clustered else 0.0),
        "cluster.partial_gathers": sum(
            a.result.partial is not None for a in answers),
        "core.engine.quick_p95_ms": _ms(_pct(quick, 95)),
        "core.engine.accurate_p95_ms": _ms(_pct(accurate_s, 95)),
        "core.engine.quick_p99_ms": _ms(_pct(quick, 99)),
        "core.engine.accurate_p99_ms": _ms(_pct(accurate_s, 99)),
        "core.engine.quick_samples": len(quick),
        "core.engine.accurate_samples": len(accurate_s),
        "serving.client_quick_p99_ms": _ms(_pct(quick, 99)) if served else 0.0,
        "serving.client_accurate_p99_ms": (
            _ms(_pct(accurate_s, 99)) if served else 0.0),
        "tracing.ops": sum(log.ops for log in traced),
        "tracing.layer_coverage_share": covered / op_time if op_time else 0.0,
        "tracing.overhead_share": overhead,
        "machine.speed": statistics.median(log.speed for log in logs),
    }
    for key in ("storage.random_blocks", "storage.seq_blocks_load",
                "storage.seq_blocks_sort", "storage.seq_blocks_merge",
                "storage.cache.evictions", "storage.cache.invalidated_runs",
                "storage.cache.coalesced_waits",
                "storage.cache.prefetched_blocks", "storage.backend.gets",
                "storage.backend.get_blocks", "storage.backend.puts",
                "storage.backend.migrations", "storage.backend.evicted_runs",
                "storage.backend.modeled_request_s",
                "ingest.archiver.stall_s", "ingest.archiver.archive_wall_s"):
        values[key] = total(key)
    values.update({
        "serving.coalescing_ratio": served.coalescing_ratio if served else 0.0,
        "serving.coalesced_batches": sum(s.coalesced_batches for s in services),
        "serving.max_batch": max((s.max_batch for s in services), default=0),
        "serving.peak_queue_depth": max(
            (s.peak_queue_depth for s in services), default=0),
        "serving.rejected": sum(s.rejections for s in services),
        "serving.degraded_to_quick": sum(
            s.degraded_to_quick for s in services),
        "serving.warm_passes": sum(s.warm_passes for s in services),
        "serving.warm_blocks": sum(s.warm_blocks for s in services),
        "serving.svc_quick_p50_ms": (
            _ms(served.latency["quick"].p50) if served else 0.0),
        "serving.svc_accurate_p50_ms": (
            _ms(served.latency["accurate"].p50) if served else 0.0),
    })
    return {name: float(values[name]) for name in metrics.PER_LAYER_NAMES}


def check_ts_merges(logs: List[RoundLog]) -> List[str]:
    """Span-counted TS builds must equal the registry's ``ts_merges``.

    Replays build one TS each with the tracer paused, so they are in
    the registry's count but not among the spans.
    """
    problems = []
    for index, log in enumerate(logs):
        if log.tracer is None:
            continue
        spans = sum(s[0] == "core.bounds.ts_build" for s in log.tracer.spans)
        registry = log.counters.get("epoch.ts_merges", 0) - log.replays
        fused = sum(s[0] == "cluster.fuse" for s in log.tracer.spans)
        if not fused and spans != registry:
            problems.append(
                f"round {index}: {spans} ts_build spans but epoch_stats "
                f"counted {registry} merges"
            )
    return problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    scale: float = 1.0,
    out_dir: Optional[Path] = None,
) -> dict:
    """Run one workload; returns the result record (see ``run.py``)."""
    out_dir = Path(out_dir) if out_dir is not None else Path("bench/out")
    tmp_root = out_dir / "tmp"
    datagens: List[float] = []
    for _ in range(DATAGENS):
        datagen_s, workload = at_reference_speed(
            lambda: REGISTRY[name](seed, scale))
        datagens.append(datagen_s)

    logs: List[RoundLog] = []
    setups: List[float] = []
    measured = 0.0
    while len(logs) < MIN_ROUNDS or (
        measured < seconds and len(logs) < MAX_ROUNDS
    ):
        tmp = tmp_root / f"{name}-{seed}-{len(logs)}-{time.time_ns()}"
        log, setup_s = run_round(workload, traced and len(logs) % 2 == 1, tmp)
        logs.append(log)
        setups.append(setup_s)
        measured += log.wall
        gc.collect()
    # Linux reports ru_maxrss in KiB.  Read before the oracle sorts
    # copies of every input.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = Oracle()
    preloaded = workload.preloaded()
    failures: List[str] = []
    attempted = 0
    worst = {"quick": 0.0, "accurate": 0.0}
    for index, log in enumerate(logs):
        verdict = oracle.verify(
            preloaded + log.writes,
            log.answers + log.polls + log.unmeasured,
        )
        # A raising append or seal is already among log.ops.
        attempted += log.ops + len(log.unmeasured)
        failures += [f"round {index}: {f}" for f in verdict.failures]
        failures += [f"round {index}: {e}" for e in log.errors]
        for mode, ratio in verdict.err_over_bound_max.items():
            worst[mode] = max(worst[mode], ratio)
    failures += check_ts_merges(logs)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(traced),
        "rounds": len(logs),
        "measured_s": measured,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ops_share": len(failures) / max(1, attempted),
        "failures": failures[:20],
        "samples": {
            "quick": sum(a.mode == "quick" for l in logs for a in l.answers),
            "accurate": sum(
                a.mode == "accurate" for l in logs for a in l.answers),
            "seals": sum(len(l.seconds("seal")) for l in logs),
            "writes": sum(len(l.writes) for l in logs),
        },
        "datagen_s": datagens,
        "per_round": [
            {
                "setup_s": setup_s,
                "speed": log.speed,
                "probes": len(log.probes),
                "wall_s": log.wall,
                "ingest_ops": log.ingest_ops,
                "ingest_elems": log.ingest_elems,
                "timeline": log.timeline,
            }
            for log, setup_s in zip(logs, setups)
        ],
        "end_to_end": end_to_end_metrics(
            logs,
            statistics.median(datagens) + statistics.median(setups),
            rss_mb,
        ),
    }
    if traced:
        record["per_layer"] = per_layer_metrics(logs, worst)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace.write_spans(
            out_dir / f"trace-{name}.json", name,
            [log.tracer for log in logs if log.tracer is not None],
        )
    return record
