"""Extension E1: heavy hitters over the union (future-work aggregate).

The paper's introduction pairs heavy hitters with quantiles as the
primitives needing integrated historical+streaming processing; its
conclusion asks for "other classes of aggregates in this model".  This
bench runs the library's hybrid heavy-hitters engine (Misra-Gries on
the stream + exact block-counted counting on the leveled warehouse)
against a pure-streaming Misra-Gries over all of T, and reproduces the
quantile result's shape: count error bounded by the stream versus the
whole dataset, at the price of a bounded number of disk accesses.
"""

import numpy as np

from common import accuracy_scale, show
from conftest import run_once
from repro.frequent import HeavyHittersEngine, MisraGriesSketch
from repro.workloads import NetworkTraceWorkload

HEAVY_HOSTS = (0x11111, 0x22222, 0x33333)
HEAVY_SHARE = 0.05


def planted_batch(workload, rng, size):
    base = workload.generate(size)
    planted = np.concatenate(
        [
            np.full(int(HEAVY_SHARE * size), np.int64(host) << 20)
            for host in HEAVY_HOSTS
        ]
    )
    mixed = np.concatenate([base[: size - len(planted)], planted])
    rng.shuffle(mixed)
    return mixed


def sweep():
    scale = accuracy_scale()
    rng = np.random.default_rng(123)
    workload = NetworkTraceWorkload(seed=321)
    engine = HeavyHittersEngine(epsilon=0.01, kappa=10,
                                block_elems=scale.block_elems)
    pure = MisraGriesSketch.for_epsilon(0.01)
    chunks = []
    for _ in range(scale.steps):
        batch = planted_batch(workload, rng, scale.batch)
        chunks.append(batch)
        engine.stream_update_many(batch)
        pure.update_many(batch)
        engine.end_time_step()
    live = planted_batch(workload, rng, scale.batch)
    chunks.append(live)
    engine.stream_update_many(live)
    pure.update_many(live)
    data = np.concatenate(chunks)

    report = engine.heavy_hitters(phi=HEAVY_SHARE / 2)
    hybrid = {h.value: h for h in report.hitters}
    rows = []
    for host in HEAVY_HOSTS:
        key = int(np.int64(host) << 20)
        true = int(np.sum(data == key))
        hit = hybrid.get(key)
        hybrid_err = (
            max(hit.count_high - true, true - hit.count_low)
            if hit
            else float("nan")
        )
        pure_err = true - pure.estimate(key)
        rows.append([f"{host:#x}", true, hybrid_err, pure_err])
    return rows, report, engine, data


def test_ext_heavy_hitters(benchmark):
    rows, report, engine, data = run_once(benchmark, sweep)
    show(
        "Extension E1: heavy-hitter count error, hybrid vs pure streaming "
        f"({report.candidates_checked} candidates, "
        f"{report.disk_accesses} disk accesses)",
        ["host", "true count", "hybrid err", "pure MG err"],
        rows,
    )
    stream_bound = engine.config.epsilon2 * engine.m_stream + 1
    for _, true, hybrid_err, pure_err in rows:
        # every planted host found, with stream-bounded error
        assert hybrid_err == hybrid_err  # not NaN
        assert hybrid_err <= stream_bound
        # pure streaming undercounts with error that scales with N
        assert hybrid_err <= max(pure_err, stream_bound)
    assert 0 < report.disk_accesses < 50_000
