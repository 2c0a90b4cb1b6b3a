"""Ablation A12: chaos — shard kill/recovery under the durability WAL.

Drives the A11 cluster topology (Normal stream, kll backend) through a
seeded chaos schedule at shards in {4, 16}:

* step 0 is checkpointed (``save_cluster``), then a FAULTS_SEED-chosen
  victim among the shards holding elements is killed mid-run;
* ingest continues on the live shards while the victim is quarantined
  (each step goes to a live home); the victim's WAL takes the seal
  frames;
* mid-outage queries return *partial* answers whose observed rank error
  must stay inside the widened bound (base + missing elements, +2 rank
  rounding slack);
* ``restore_shards`` restores the victim from checkpoint + WAL
  replay, and the final answers must be bit-identical to a never-failed
  cluster fed the same stream;
* the disabled-faults cell (same WAL-attached cluster, no kill) must be
  bit-identical to a plain cluster without any durability machinery.

``FAULTS_SEED`` (default 0) picks the victim and the kill step, so the
CI chaos matrix sweeps genuinely different schedules.  The table is
written to ``BENCH_chaos.json`` next to this file; the CI chaos job
regenerates and uploads it.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from common import SCALE, bench_path, show, write_bench
from conftest import run_once
from repro.cluster import ClusterEngine, restore_shards, save_cluster
from repro.core.config import EngineConfig
from repro.workloads import NormalWorkload

PHIS = (0.05, 0.25, 0.5, 0.75, 0.95)
SHARDS = (4, 16)
STEPS = 5
STEP_ELEMS = int(20_000 * SCALE)
EPSILON = 0.02
BACKEND = "kll"
FAULTS_SEED = int(os.environ.get("FAULTS_SEED", "0"))
RESULT_FILE = bench_path("chaos")


def make_config(shards):
    return EngineConfig(
        epsilon=EPSILON,
        block_elems=100,
        sketch_backend=BACKEND,
        # Any single-shard outage keeps quorum at every swept width.
        min_gather_shards=shards - 1,
    )


def make_feeds():
    workload = NormalWorkload(seed=808)
    return [workload.generate(STEP_ELEMS) for _ in range(STEPS)]


def chaos_schedule(shards):
    """FAULTS_SEED picks the (post-checkpoint) kill step and a draw that
    picks the victim among the shards holding elements at the kill, so
    the outage hides some."""
    rng = np.random.default_rng((FAULTS_SEED << 8) ^ shards)
    kill_after_step = int(rng.integers(1, STEPS - 1))
    return int(rng.integers(0, shards)), kill_after_step


def rank_error(full, result, phi):
    target = max(1, int(np.ceil(phi * len(full))))
    lo = int(np.searchsorted(full, result.value, side="left")) + 1
    hi = int(np.searchsorted(full, result.value, side="right"))
    if lo <= target <= hi:
        return 0
    return min(abs(target - lo), abs(target - hi))


def run_plain(shards, feeds):
    """The no-faults reference: no WAL, no kills, plain scatter/gather."""
    cluster = ClusterEngine(shards=shards, config=make_config(shards))
    for feed in feeds:
        cluster.stream_update_many(feed)
        cluster.end_time_step()
    answers = [cluster.quantile(phi).value for phi in PHIS]
    cluster.close()
    return answers


def run_durable(shards, feeds, root, chaos):
    """One WAL-attached run; optionally kill + recover the victim."""
    config = make_config(shards)
    cluster = ClusterEngine(
        shards=shards, config=config, wal_dir=root / "wal"
    )
    draw, kill_after_step = chaos_schedule(shards)
    row = {
        "shards": shards,
        "faults_seed": FAULTS_SEED,
        "chaos": chaos,
        "victim": None,
        "kill_after_step": kill_after_step if chaos else None,
    }
    fed = []
    for step, feed in enumerate(feeds):
        cluster.stream_update_many(feed)
        cluster.end_time_step()
        fed.append(feed)
        if step == 0:
            save_cluster(cluster, root / "ckpt")
        if chaos and step == kill_after_step:
            holding = [i for i, s in enumerate(cluster.shards) if s.n_total]
            victim = row["victim"] = holding[draw % len(holding)]
            cluster.kill_shard(victim, "chaos kill")
        if chaos and step == kill_after_step + 1:
            # Mid-outage: partial answers, widened-bound soundness.
            full = np.sort(np.concatenate(fed))
            worst_excess = -float("inf")
            for phi in PHIS:
                result = cluster.quantile(phi, mode="accurate")
                partial = result.partial
                assert partial is not None
                assert partial.missing_shards == (victim,)
                error = rank_error(full, result, phi)
                worst_excess = max(
                    worst_excess, error - result.rank_error_bound
                )
                assert error <= result.rank_error_bound + 2, (
                    shards, phi, error, result.rank_error_bound,
                )
            row["missing_elements"] = int(cluster.n_acked - cluster.n_total)
            row["worst_partial_excess"] = worst_excess
            row["restored"] = restore_shards(cluster, root / "ckpt")
            assert row["restored"] == [victim]
            assert cluster.quarantined_shards == {}
    cluster.check_invariants()
    row["answers"] = [cluster.quantile(phi).value for phi in PHIS]
    assert cluster.quantile(0.5).partial is None  # full gather again
    cluster.close()
    return row


def drive(shards):
    feeds = make_feeds()
    reference = run_plain(shards, feeds)
    with tempfile.TemporaryDirectory() as tmp:
        chaos_row = run_durable(shards, feeds, Path(tmp) / "chaos", True)
        quiet_row = run_durable(shards, feeds, Path(tmp) / "quiet", False)
    # Recovery restores bit-identical answers; the disabled-faults cell
    # shows the durability machinery itself changes nothing.
    chaos_row["identical_to_reference"] = chaos_row["answers"] == reference
    quiet_row["identical_to_reference"] = quiet_row["answers"] == reference
    assert chaos_row["identical_to_reference"], (
        shards, chaos_row["answers"], reference,
    )
    assert quiet_row["identical_to_reference"], (
        shards, quiet_row["answers"], reference,
    )
    return [chaos_row, quiet_row]


def sweep():
    rows = []
    for shards in SHARDS:
        rows.extend(drive(shards))
    return rows


def test_ablation_chaos(benchmark):
    rows = run_once(benchmark, sweep)
    show(
        f"Ablation A12: chaos recovery (Normal, {STEPS} steps x "
        f"{STEP_ELEMS:,} elements, kll, FAULTS_SEED={FAULTS_SEED})",
        ["shards", "chaos", "victim", "missing", "partial excess", "final"],
        [
            [
                r["shards"],
                "kill+recover" if r["chaos"] else "disabled",
                r["victim"] if r["chaos"] else "-",
                r.get("missing_elements", 0),
                r.get("worst_partial_excess", "-"),
                "bit-identical" if r["identical_to_reference"] else "DRIFT",
            ]
            for r in rows
        ],
    )
    write_bench(
        "chaos",
        {
            "benchmark": "chaos_ablation",
            "meta": {
                "steps": STEPS,
                "step_elems": STEP_ELEMS,
                "epsilon": EPSILON,
                "phis": list(PHIS),
                "faults_seed": FAULTS_SEED,
                "shards": max(SHARDS),
                "shards_swept": list(SHARDS),
                "sketch_backend": BACKEND,
                "storage_backend": "simulated",
                "object_tier": False,
            },
            "rows": rows,
        },
    )
    assert all(r["identical_to_reference"] for r in rows)
    # Every chaos cell really exercised the outage path.
    for row in rows:
        if row["chaos"]:
            assert row["missing_elements"] > 0, row
            assert row["restored"] == [row["victim"]], row
