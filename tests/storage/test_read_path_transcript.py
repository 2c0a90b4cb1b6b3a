"""The read path's accounting, pinned as literals.

A seeded mix of ``element_at`` / ``rank_of`` / ``read_block_range``
calls, each query through its own :class:`BlockCache` (every fourth one
the charge-every-probe ``enabled=False`` form), runs over every backend
(simulated, mmap, object with the runs placed cold), with and without a
shared tier, on a plain disk and on a seeded :class:`FaultyDisk` whose
transient read faults are retried in place.  What the storage stack
counted is recorded as literals: ``DiskStats`` per phase, the caches'
``blocks_charged`` / ``shared_hits`` / ``run_blocks()``, the shared
tier's counters, the backend's GETs and the fault transcript.  Any
change to how a read is charged, deduplicated, pinned or turned into a
GET moves one of them.
"""

import hashlib

import numpy as np
import pytest

from repro.faults import DiskFault, FaultPlan, FaultyDisk
from repro.storage import (
    BlockCache,
    MmapFileBackend,
    ObjectStoreBackend,
    ObjectStoreLatency,
    SharedBlockCache,
    SimulatedBackend,
    SimulatedDisk,
    SortedRun,
)
from repro.storage.stats import PHASES

BLOCK_ELEMS = 16
SIZES = (2400, 4133, 8000)
QUERIES = 16
OPS_PER_QUERY = 7
#: the shared tier retires run 0 before this query.
RETIRE_AFTER = 9


def make_backend(name, tmp_path):
    if name == "simulated":
        return SimulatedBackend()
    if name == "mmap":
        return MmapFileBackend(tmp_path / "mmap")
    # Readahead of five blocks, so GET counts follow the charges closely.
    latency = ObjectStoreLatency(seconds_per_get=5e-3, seconds_per_get_block=1e-3)
    return ObjectStoreBackend(
        tmp_path / "object", object_tier_level=1, latency=latency
    )


def make_runs(disk, backend_name):
    rng = np.random.default_rng(2024)
    runs = []
    for size in SIZES:
        data = np.sort(rng.integers(0, 4 * size, size)).astype(np.int64)
        run = SortedRun(disk, data)
        if backend_name == "object":
            disk.backend.place_run(run.run_id, level=1)
        runs.append(run)
    return runs


def plan_queries():
    """The op mix, drawn before anything runs: faults cannot move it."""
    rng = np.random.default_rng(77)
    queries = []
    for _ in range(QUERIES):
        ops = []
        for _ in range(OPS_PER_QUERY):
            r = int(rng.integers(len(SIZES)))
            n = SIZES[r]
            kind = int(rng.integers(3))
            if kind == 0:
                ops.append(("element_at", r, int(rng.integers(n))))
            elif kind == 1:
                lo = int(rng.integers(-2, n))
                hi = None if rng.random() < 0.3 else lo + int(rng.integers(1, n))
                ops.append(("rank_of", r, int(rng.integers(-5, 4 * n + 5)), lo, hi))
            else:
                first = int(rng.integers(-2, -(-n // BLOCK_ELEMS) + 1))
                ops.append(
                    ("read_block_range", r, first, first + int(rng.integers(0, 6)))
                )
        queries.append(ops)
    return queries


def run_op(runs, op, cache):
    kind, r, *args = op
    run = runs[r]
    if kind == "element_at":
        return run.element_at(args[0], cache=cache)
    if kind == "rank_of":
        value, lo, hi = args
        return run.rank_of(value, lo=lo, hi=hi, cache=cache)
    out = run.read_block_range(args[0], args[1], cache=cache)
    return (len(out), int(out.sum()))


def drive(backend_name, shared_tier, faulty, tmp_path):
    backend = make_backend(backend_name, tmp_path)
    if faulty:
        disk = FaultyDisk(
            FaultPlan(seed=13, read_error_rate=0.2), block_elems=BLOCK_ELEMS
        )
        disk.backend = backend
    else:
        disk = SimulatedDisk(block_elems=BLOCK_ELEMS, backend=backend)
    try:
        runs = make_runs(disk, backend_name)
        position = {run.run_id: i for i, run in enumerate(runs)}
        shared = SharedBlockCache(24) if shared_tier else None
        digest = hashlib.sha256()
        charged = hits = retries = 0
        for q, ops in enumerate(plan_queries()):
            if shared is not None and q == RETIRE_AFTER:
                shared.invalidate_run(runs[0].run_id)
            cache = BlockCache(disk, enabled=q % 4 != 3, shared=shared)
            answers = []
            for op in ops:
                while True:
                    try:
                        answers.append(run_op(runs, op, cache))
                        break
                    except DiskFault:
                        retries += 1
            per_run = sorted(
                (position[run_id], blocks)
                for run_id, blocks in cache.run_blocks().items()
            )
            digest.update(
                repr((answers, cache.blocks_charged, cache.shared_hits, per_run))
                .encode()
            )
            charged += cache.blocks_charged
            hits += cache.shared_hits
        stats = disk.stats
        phases = {
            phase: (c.sequential_reads, c.sequential_writes, c.random_reads)
            for phase in ("counters",) + PHASES
            for c in [getattr(stats, phase)]
        }
        shared_stats = None
        if shared is not None:
            s = shared.stats()
            shared_stats = (
                s.resident_blocks, s.hits, s.misses, s.evictions,
                s.invalidated_blocks, s.invalidated_runs, s.coalesced_waits,
            )
        gets = backend.stats()
        faults = None
        if faulty:
            faults = (
                disk.operations,
                retries,
                hashlib.sha256(
                    repr([e.as_dict() for e in disk.transcript]).encode()
                ).hexdigest()[:16],
            )
        return {
            "phases": phases,
            "charged": charged,
            "shared_hits": hits,
            "shared": shared_stats,
            "gets": (gets.gets, gets.get_blocks),
            "faults": faults,
            "queries": digest.hexdigest()[:16],
        }
    finally:
        backend.close()


#: per (shared tier, faulty disk): identical on every backend.
EXPECTED = {
    (False, False): {
        "phases": {
            "counters": (0, 909, 421), "load": (0, 909, 0),
            "sort": (0, 0, 0), "merge": (0, 0, 0), "query": (0, 0, 421),
        },
        "charged": 421,
        "shared_hits": 0,
        "shared": None,
        "faults": None,
        "queries": "31e00f8a70f65b2b",
    },
    (False, True): {
        "phases": {
            "counters": (0, 909, 621), "load": (0, 909, 0),
            "sort": (0, 0, 0), "merge": (0, 0, 0), "query": (0, 0, 621),
        },
        "charged": 621,
        "shared_hits": 0,
        "shared": None,
        "faults": (657, 132, "c83256dd828f25c1"),
        "queries": "aeda97d5626e0438",
    },
    (True, False): {
        "phases": {
            "counters": (0, 909, 390), "load": (0, 909, 0),
            "sort": (0, 0, 0), "merge": (0, 0, 0), "query": (0, 0, 390),
        },
        "charged": 390,
        "shared_hits": 31,
        "shared": (24, 31, 390, 287, 12, 1, 0),
        "faults": None,
        "queries": "7f98c93cf90a566f",
    },
    (True, True): {
        "phases": {
            "counters": (0, 909, 420), "load": (0, 909, 0),
            "sort": (0, 0, 0), "merge": (0, 0, 0), "query": (0, 0, 420),
        },
        "charged": 420,
        "shared_hits": 65,
        "shared": (24, 65, 420, 286, 15, 1, 0),
        "faults": (406, 82, "5d569ba7595ec07f"),
        "queries": "885066b80427dcf8",
    },
}

#: (GETs, blocks streamed) per (backend, shared tier, faulty disk).  The
#: object backend's registry streams each block once per run, so only
#: the set of blocks ever charged shapes these.
GETS = {
    (backend, shared, faulty): (150, 944) if backend == "object" else (0, 0)
    for backend in ("simulated", "mmap", "object")
    for shared in (False, True)
    for faulty in (False, True)
}

CASES = [
    (backend, shared, faulty)
    for backend in ("simulated", "mmap", "object")
    for shared in (False, True)
    for faulty in (False, True)
]


@pytest.mark.parametrize(
    "backend, shared, faulty",
    CASES,
    ids=[
        f"{b}-{'shared' if s else 'private'}-{'faulty' if f else 'plain'}"
        for b, s, f in CASES
    ],
)
def test_read_path_transcript_is_pinned(backend, shared, faulty, tmp_path):
    got = drive(backend, shared, faulty, tmp_path)
    assert got.pop("gets") == GETS[backend, shared, faulty]
    assert got == EXPECTED[shared, faulty]
