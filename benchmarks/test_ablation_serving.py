"""Ablation A8: concurrent serving — coalescing and admission control.

The quick response costs one TS merge; the serving layer's coalescer
shares that merge across every request pinned at the same epoch.  This
ablation sweeps closed-loop client counts with coalescing on and off
and reports throughput, tail latency, and TS merges per served request
(the coalescing ratio), then runs an open-loop overload to show the
bounded queue shedding load with typed ``Overloaded`` rejections (and,
with degradation enabled, accurate→quick downgrades).  Results land in
``BENCH_serving.json`` next to this file.

Acceptance checks asserted here:

* with coalescing on, the 32-client run performs strictly fewer TS
  merges than it serves requests (ratio < 1.0);
* every coalesced answer is bit-identical to a serial replay of the
  same phi against the same engine state;
* the overload run rejects (or degrades) rather than growing the
  queue past its bound, and metrics report queue depth and p99.
"""


from conftest import run_once
from common import bench_path, show, write_bench
from serving_bench import run_serving_bench

CLIENTS = (1, 8, 32)
REQUESTS_PER_CLIENT = 25
RESULT_FILE = bench_path("serving")


def sweep():
    return run_serving_bench(
        steps=6,
        batch=20_000,
        clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        seed=7,
    )


def test_ablation_serving(benchmark):
    doc = run_once(benchmark, sweep)
    rows = doc["closed_loop"]
    show(
        "Ablation A8: concurrent serving (closed loop, quick path)",
        [
            "clients", "coalesce", "served", "TS merges", "ratio",
            "qps", "p50 ms", "p99 ms", "identical",
        ],
        [
            [
                r["clients"],
                r["coalesce"],
                r["served"],
                r["ts_merges"],
                r["coalescing_ratio"],
                r["throughput_qps"],
                r["p50_ms"],
                r["p99_ms"],
                r["bit_identical"],
            ]
            for r in rows
        ],
    )
    show(
        "Ablation A8: open-loop overload (accurate path, queue bound 4)",
        [
            "mode", "requests", "served", "rejected", "degraded",
            "peak depth", "p99 ms",
        ],
        [
            [
                r["mode"],
                r["requests"],
                r["served"],
                r["rejected"],
                r["degraded"],
                r["peak_queue_depth"],
                r["p99_ms"],
            ]
            for r in doc["overload"]
        ],
    )
    doc.setdefault("meta", {}).update({
        "shards": 1,
        "sketch_backend": "gk",
        "storage_backend": "simulated",
        "object_tier": False,
    })
    # The schema's common table: closed-loop rows plus overload rows.
    doc["rows"] = doc["closed_loop"] + doc["overload"]
    write_bench("serving", doc)

    # Every request of every run must be answered or typed-rejected,
    # and every answer must match the serial replay bit for bit.
    for row in rows:
        assert row["served"] + row["rejected"] == row["requests"]
        assert row["bit_identical"], row

    # The tentpole claim: with coalescing on, concurrent clients share
    # TS merges — strictly fewer merges than requests served.
    coalesced_32 = next(
        r for r in rows if r["clients"] == 32 and r["coalesce"]
    )
    assert coalesced_32["served"] == 32 * REQUESTS_PER_CLIENT
    assert coalesced_32["ts_merges"] < coalesced_32["served"]
    assert coalesced_32["coalescing_ratio"] < 1.0

    # Without coalescing every request pays its own merge.
    solo_32 = next(
        r for r in rows if r["clients"] == 32 and not r["coalesce"]
    )
    assert solo_32["ts_merges"] >= solo_32["served"]
    # ...so coalescing must be doing real sharing, not bookkeeping.
    assert coalesced_32["ts_merges"] < solo_32["ts_merges"]

    # Admission control: the overload run sheds load with typed
    # rejections, never growing the queue past its bound...
    reject = next(r for r in doc["overload"] if r["mode"] == "reject")
    assert reject["rejected"] > 0
    assert reject["served"] + reject["rejected"] == reject["requests"]
    assert reject["peak_queue_depth"] <= reject["queue_bound"]
    assert reject["p99_ms"] > 0.0
    # ...and with degradation enabled, some accurate requests are
    # served as quick answers instead of being rejected outright.
    degrade = next(r for r in doc["overload"] if r["mode"] == "degrade")
    assert degrade["degraded"] > 0
    assert degrade["served"] >= reject["served"]
