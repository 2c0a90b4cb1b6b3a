"""Workloads end to end at smoke scale: determinism, declared metrics,
the oracle's teeth, and the command line the driver uses."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench import harness, metrics, speed
from bench.oracle import Answer
from bench.workloads import REGISTRY
from repro import HybridQuantileEngine

ROOT = Path(__file__).resolve().parents[2]
# Below ~0.03 a cluster shard's live stream is shorter than its stream
# summary (beta2 = 4001) when it is polled and the fused quick answer
# breaks its bound (see bench/README.md, "Findings"); the smoke stays
# well above that.
SCALE = 0.12


def arrays(obj):
    """Every ndarray reachable from a workload's generated inputs."""
    found = []
    for value in vars(obj).values():
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, np.ndarray):
                found.append(item)
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
    return found


@pytest.mark.parametrize("name", list(REGISTRY))
def test_same_seed_same_script_other_seed_other_script(name):
    first, again, other = (
        REGISTRY[name](seed, SCALE) for seed in (7, 7, 11)
    )
    assert len(arrays(first)) >= 3
    assert all(
        np.array_equal(a, b) for a, b in zip(arrays(first), arrays(again))
    )
    assert not all(
        np.array_equal(a, b) for a, b in zip(arrays(first), arrays(other))
    )


def fingerprints(log):
    return [
        (a.mode, a.result.value, a.result.target_rank, a.result.disk_accesses)
        for a in log.answers
    ]


@pytest.mark.parametrize("name", ["ingest_heavy", "query_heavy", "cluster_4shard"])
def test_single_threaded_counts_repeat_exactly(name, tmp_path):
    """Same seed: a round is the same operations with the same answers
    and block counts, whatever the machine's speed."""
    logs = []
    for attempt in range(2):
        workload = REGISTRY[name](7, SCALE)
        log, _ = harness.run_round(workload, False, tmp_path / f"round-{attempt}")
        logs.append(log)
    assert len(logs[0].answers) >= 10
    assert fingerprints(logs[0]) == fingerprints(logs[1])


@pytest.mark.parametrize("name", list(REGISTRY))
def test_traced_round_emits_exactly_the_declared_metrics(name, tmp_path):
    record = harness.run_workload(
        name, seed=7, seconds=0.6, traced=True, scale=SCALE, out_dir=tmp_path
    )
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert list(record["end_to_end"]) == metrics.END_TO_END_NAMES
    assert list(record["per_layer"]) == metrics.PER_LAYER_NAMES
    assert all(value > 0 for value in record["end_to_end"].values())
    layers = record["per_layer"]
    assert layers["core.bounds.quick_err_over_bound_max"] <= 1.0 or SCALE < 1
    assert layers["core.bounds.ts_builds"] > 0
    assert layers["tracing.ops"] > 0
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())
    first = spans["rounds"][0]["spans"][0]
    assert set(first) == {"name", "start", "end", "parent", "op_id"}
    assert not list((tmp_path / "tmp").iterdir())


def served(mode, seconds):
    return Answer(mode, 0.5, 0.0, seconds, result=object())


def round_log(slowdown, quick_s):
    """A one-client round: a 20 ms append, then quick queries."""
    log = harness.RoundLog()
    log.speed = speed.factor([speed.REFERENCE_S * slowdown] * 9)
    log.ingest_elems = 1000
    log.timeline = [("append", "main", 0.020 * slowdown, True)] + [
        ("quick", "main", seconds * slowdown, True) for seconds in quick_s
    ]
    log.answers = [served("quick", seconds * slowdown) for seconds in quick_s]
    return log


def test_durations_are_read_at_reference_speed():
    """A round whose probes ran 1.5x slow reports its raw times / 1.5."""
    logs = [round_log(slowdown, [0.010]) for slowdown in (1.0, 1.5, 1.0)]
    values = harness.end_to_end_metrics(logs, setup_s=1.0, rss_mb=1.0)
    assert values["quick_p50_ms"] == pytest.approx(10.0)
    assert values["ingest_updates_per_s"] == pytest.approx(1000 / 0.030)
    assert values["ops_per_s"] == pytest.approx(2 / 0.030)


def test_a_stall_on_one_call_in_ten_shows_in_the_tail_and_the_rate():
    """Raw per-call latencies are pooled: a 100 ms stall that falls on
    a different query of every round is still one sample in ten."""
    calm = [round_log(1.0, [0.010] * 10) for _ in range(5)]
    stalled = []
    for index in range(5):
        quick_s = [0.010] * 10
        quick_s[2 * index] = 0.110
        stalled.append(round_log(1.0, quick_s))
    assert harness._pct(harness.served_latencies(calm, "quick"), 95) == (
        pytest.approx(0.010))
    assert harness._pct(harness.served_latencies(stalled, "quick"), 95) == (
        pytest.approx(0.110))
    before = harness.end_to_end_metrics(calm, 1.0, 1.0)["ops_per_s"]
    after = harness.end_to_end_metrics(stalled, 1.0, 1.0)["ops_per_s"]
    assert after == pytest.approx(before * 0.120 / 0.220)


def test_a_call_that_raised_is_no_latency_sample_and_no_completed_op():
    log = round_log(1.0, [0.010, 0.010])
    log.timeline.append(("quick", "main", 0.500, False))
    log.answers.append(Answer("quick", 0.5, 0.0, 0.500, None, "Overloaded"))
    assert harness.served_latencies([log], "quick") == [0.010, 0.010]
    values = harness.end_to_end_metrics([log], 1.0, 1.0)
    assert values["ops_per_s"] == pytest.approx(3 / 0.540)


def test_one_stalled_round_is_kept_out_of_every_rate():
    assert harness.steady([1.0, 1.0, 9.0, 1.0]) == pytest.approx(1.0)
    assert harness.steady([2.0, 4.0]) == pytest.approx(3.0)


def test_staged_layers_cover_a_single_engine_query(tmp_path):
    record = harness.run_workload(
        "query_heavy", seed=7, seconds=0.6, traced=True, scale=SCALE,
        out_dir=tmp_path,
    )
    assert record["per_layer"]["tracing.layer_coverage_share"] > 0.8


def test_corrupting_one_answer_fails_the_run(tmp_path, monkeypatch):
    genuine = HybridQuantileEngine.quantile
    calls = []

    def corrupt(self, phi, mode="accurate", **kwargs):
        result = genuine(self, phi, mode, **kwargs)
        calls.append(mode)
        if len(calls) == 5:
            # Far outside any bound: the top of the value range.
            object.__setattr__(result, "value", 1 << 41)
        return result

    monkeypatch.setattr(HybridQuantileEngine, "quantile", corrupt)
    record = harness.run_workload(
        "query_heavy", seed=7, seconds=0.6, scale=SCALE, out_dir=tmp_path
    )
    assert not record["correct"]
    assert record["failed"] == 1
    assert record["failed_ops_share"] > 0


def test_command_line_smoke_all_workloads(tmp_path):
    """The whole set through ``run.py``, as an operator would run it."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--seed", "11",
         "--seconds", "0.6", "--scale", str(SCALE), "--out", str(tmp_path)],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 20
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    combined = json.loads((tmp_path / "result.json").read_text())
    assert [r["workload"] for r in combined["runs"]] == list(metrics.WORKLOADS)
    for name in metrics.WORKLOADS:
        for metric in metrics.END_TO_END_NAMES:
            assert f"{name} {metric} " in done.stdout


def test_driver_form_prints_one_result_object(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "ingest_heavy", "--seed", "3", "--seconds", "0.6", "--trace", "0",
         "--scale", str(SCALE), "--out", str(tmp_path)],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    final = json.loads(done.stdout.splitlines()[-1])
    assert list(final["metrics"]) == metrics.END_TO_END_NAMES
    for name, entry in final["metrics"].items():
        assert entry["unit"] == metrics.UNITS[name] and entry["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and bench/ has nothing to
    measure: non-zero exit, no result line."""
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in (ROOT / "bench").glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
