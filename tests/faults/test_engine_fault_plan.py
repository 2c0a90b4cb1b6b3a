"""An engine builds its own disk, from its config and a fault plan.

The block size has one owner — the config — so a checkpoint round trip
charges exactly what the saved engine charged.  A load's recovery scan
retries each partition's read on its own, before the run is allocated,
so a retried read on a file-backed backend builds nothing twice, and
counts it among the engine's archive retries.
"""

import json
import tempfile

import numpy as np
import pytest

from repro import EngineConfig, FaultPlan, HybridQuantileEngine
from repro.cli import main
from repro.faults.retry import ARCHIVE_RETRY_POLICY
from repro.persistence import load_engine, save_engine

pytestmark = [pytest.mark.faults, pytest.mark.usefixtures("no_backoff")]

PHIS = [i / 100 for i in range(1, 100)]
FIRST_READ_FAILS = FaultPlan(seed=0, fail_at={("read", 0)})


def fill(engine, steps=4, batch=1500, seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, batch))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, 300))


def answers(engine):
    return [
        (r.value, r.estimated_rank, r.disk_accesses, r.degraded)
        for r in map(engine.quantile, PHIS)
    ]


def test_a_retried_load_read_on_mmap_answers_as_a_clean_load(
    tmp_path, monkeypatch
):
    runs = tmp_path / "runs"
    runs.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(runs))
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, storage_backend="mmap"
    )
    with HybridQuantileEngine(config=config) as engine:
        fill(engine)
        save_engine(engine, tmp_path / "wh")
    with load_engine(tmp_path / "wh") as clean, load_engine(
        tmp_path / "wh", fault_plan=FIRST_READ_FAILS
    ) as faulted:
        assert faulted.disk.faults_fired == 1
        assert answers(faulted) == answers(clean)
        faulted.check_invariants()
    # Each engine removed the private run directory it made.
    assert list(runs.iterdir()) == []


def test_a_retried_load_read_counts_as_an_archive_retry(tmp_path):
    with HybridQuantileEngine(config=EngineConfig(epsilon=0.02)) as engine:
        fill(engine)
        save_engine(engine, tmp_path / "wh")
    with load_engine(tmp_path / "wh", fault_plan=FIRST_READ_FAILS) as loaded:
        report = loaded.reliability
    assert report.disk_faults == report.archive_retries == 1
    assert report.archive_retries + report.probe_retries == 1


def test_a_round_trip_charges_what_the_engine_charged(tmp_path):
    config = EngineConfig(epsilon=0.02, kappa=3, block_elems=64)
    # The first stage write faults and is retried; the load reads only.
    plan = FaultPlan(seed=7, fail_at={("write", 0)})
    with HybridQuantileEngine(config=config, fault_plan=plan) as engine:
        fill(engine)
        assert engine.disk.faults_fired == 1
        before = [engine.quantile(phi).disk_accesses for phi in PHIS[::7]]
        save_engine(engine, tmp_path / "wh")
    with load_engine(tmp_path / "wh", fault_plan=plan) as restored:
        assert restored.disk.block_elems == 64
        after = [restored.quantile(phi).disk_accesses for phi in PHIS[::7]]
    assert after == before


def cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr()


@pytest.fixture
def mmap_warehouse(tmp_path, capsys, monkeypatch):
    """A one-step warehouse on mmap storage in a private directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    warehouse = tmp_path / "wh"
    batch = tmp_path / "b.npy"
    np.save(batch, np.random.default_rng(1).integers(0, 10**6, 4000))
    assert cli(capsys, "init", warehouse, "--storage-backend", "mmap")[0] == 0
    assert cli(capsys, "ingest", warehouse, batch, "--archive")[0] == 0
    return warehouse


def test_a_cli_load_retries_a_read_in_place(mmap_warehouse, capsys):
    code, clean = cli(capsys, "query", mmap_warehouse, "--phi", "0.5")
    assert code == 0
    code, faulted = cli(
        capsys, "query", mmap_warehouse, "--phi", "0.5",
        "--fault-plan", '{"seed": 0, "fail_at": [["read", 0]]}',
    )
    assert code == 0, faulted.err
    assert faulted.out.splitlines()[:2] == clean.out.splitlines()[:2]
    assert faulted.out.splitlines()[2] == (
        "reliability: 1 disk faults, 1 archive retries, 0 probe retries, "
        "0 degraded queries"
    )


def test_a_load_that_gives_up_lists_every_fault_it_fired(
    mmap_warehouse, capsys
):
    transcript = mmap_warehouse.parent / "t.json"
    code, captured = cli(
        capsys, "query", mmap_warehouse, "--phi", "0.5",
        "--fault-plan", '{"seed": 0, "read_error_rate": 1.0}',
        "--fault-transcript", transcript,
    )
    assert code == 1 and "TransientReadError" in captured.err
    payload = json.loads(transcript.read_text())
    fired = ARCHIVE_RETRY_POLICY.max_retries + 1
    assert payload["operations"] == len(payload["events"]) == fired
    assert [e["index"] for e in payload["events"]] == list(range(fired))
