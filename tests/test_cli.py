"""Tests for the command-line interface."""

import itertools
import json
import tempfile

import numpy as np
import pytest

from repro.cli import main
from repro.storage import runfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInit:
    def test_creates_warehouse(self, tmp_path, capsys):
        code, out, _ = run(capsys, "init", str(tmp_path / "wh"),
                           "--epsilon", "0.01")
        assert code == 0
        assert "initialized" in out
        assert (tmp_path / "wh" / "engine.json").exists()

    def test_refuses_overwrite(self, tmp_path, capsys):
        run(capsys, "init", str(tmp_path / "wh"))
        code, _, err = run(capsys, "init", str(tmp_path / "wh"))
        assert code == 1
        assert "already" in err

    def test_force_overwrites(self, tmp_path, capsys):
        run(capsys, "init", str(tmp_path / "wh"))
        code, *_ = run(capsys, "init", str(tmp_path / "wh"), "--force")
        assert code == 0


class TestIngestAndQuery:
    @pytest.fixture
    def warehouse(self, tmp_path, capsys):
        path = tmp_path / "wh"
        run(capsys, "init", str(path), "--epsilon", "0.02",
            "--kappa", "3", "--block-elems", "16")
        return path

    def _ingest(self, capsys, warehouse, tmp_path, data, name, archive):
        source = tmp_path / name
        np.save(source, np.asarray(data, dtype=np.int64))
        argv = ["ingest", str(warehouse), str(source) + ""]
        # np.save appends .npy
        argv[2] = str(source) + ".npy"
        if archive:
            argv.append("--archive")
        return run(capsys, *argv)

    def test_ingest_npy(self, warehouse, tmp_path, capsys):
        code, out, _ = self._ingest(
            capsys, warehouse, tmp_path, range(1000), "batch", archive=True
        )
        assert code == 0
        assert "streamed 1,000" in out
        assert "archived step 1" in out

    def test_ingest_text_file(self, warehouse, tmp_path, capsys):
        source = tmp_path / "values.txt"
        source.write_text("5 3 9\n7 1\n")
        code, out, _ = run(capsys, "ingest", str(warehouse), str(source))
        assert code == 0
        assert "streamed 5" in out

    def test_query_median(self, warehouse, tmp_path, capsys):
        self._ingest(capsys, warehouse, tmp_path,
                     range(1, 1002), "batch", archive=True)
        self._ingest(capsys, warehouse, tmp_path,
                     range(1, 1002), "live", archive=False)
        code, out, _ = run(capsys, "query", str(warehouse), "--phi", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        value = int(lines[-1].split()[1].replace(",", ""))
        assert abs(value - 501) <= 0.02 * 1001 * 2 + 2

    def test_query_quick_mode(self, warehouse, tmp_path, capsys):
        self._ingest(capsys, warehouse, tmp_path,
                     range(1000), "batch", archive=True)
        code, out, _ = run(capsys, "query", str(warehouse),
                           "--phi", "0.5", "--mode", "quick")
        assert code == 0

    def test_query_empty_warehouse(self, warehouse, capsys):
        code, _, err = run(capsys, "query", str(warehouse))
        assert code == 1
        assert "empty" in err

    def test_status(self, warehouse, tmp_path, capsys):
        self._ingest(capsys, warehouse, tmp_path,
                     range(1000), "batch", archive=True)
        code, out, _ = run(capsys, "status", str(warehouse))
        assert code == 0
        assert "historical elems : 1,000" in out
        assert "L0[1-1]" in out

    def test_state_persists_across_invocations(self, warehouse, tmp_path,
                                               capsys):
        for step in range(4):
            self._ingest(capsys, warehouse, tmp_path,
                         range(step * 100, step * 100 + 500),
                         f"b{step}", archive=True)
        code, out, _ = run(capsys, "status", str(warehouse))
        assert "4 steps" in out

    def test_missing_warehouse(self, tmp_path, capsys):
        code, _, err = run(capsys, "query", str(tmp_path / "missing"))
        assert code == 1
        assert "error" in err

    def test_missing_source_file(self, warehouse, capsys):
        code, _, err = run(capsys, "ingest", str(warehouse), "nope.npy")
        assert code == 1

    @pytest.mark.parametrize(
        "data, message",
        [
            (np.array([2.7, 3.9, 1e19]), "got dtype float64"),
            (np.array([5.0, np.nan]), "got dtype float64"),
            (np.array([2**63 + 5], dtype=np.uint64), "exceeds the int64"),
        ],
        ids=["float", "nan", "wide-uint64"],
    )
    def test_lossy_npy_is_refused_before_streaming(
        self, warehouse, tmp_path, capsys, data, message
    ):
        self._ingest(capsys, warehouse, tmp_path, range(10), "b", True)
        _, before, _ = run(capsys, "status", str(warehouse))
        source = tmp_path / "lossy.npy"
        np.save(source, data)
        code, out, err = run(capsys, "ingest", str(warehouse), str(source))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "streamed" not in out
        assert run(capsys, "status", str(warehouse))[1] == before

    def test_retired_config_value_is_refused_with_or_without_a_fault_plan(
        self, warehouse, tmp_path, capsys
    ):
        self._ingest(capsys, warehouse, tmp_path, range(1000), "b", True)
        state_path = warehouse / "engine.json"
        state = json.loads(state_path.read_text())
        state["config"]["query_strategy"] = "fetch"
        state_path.write_text(json.dumps(state))
        code, _, plain = run(capsys, "query", str(warehouse))
        assert code == 1
        assert "query_strategy='fetch'" in plain
        code, _, faulted = run(
            capsys, "query", str(warehouse), "--fault-plan", '{"seed": 1}'
        )
        assert code == 1
        assert faulted == plain

    def test_a_failed_ingest_still_writes_its_fault_transcript(
        self, tmp_path, capsys
    ):
        """Every archive write faults, so the ingest exits 1; the
        transcript it leaves lists those faults and nothing else."""
        warehouse, batch = tmp_path / "wh", tmp_path / "b.npy"
        transcript = tmp_path / "t.json"
        run(capsys, "init", str(warehouse))
        np.save(batch, np.random.default_rng(1).integers(0, 10**6, 4000))
        code, out, err = run(capsys, "ingest", str(warehouse), str(batch),
                             "--archive", "--fault-plan",
                             '{"seed": 1, "write_error_rate": 1.0}',
                             "--fault-transcript", str(transcript))
        assert code == 1 and "error:" in err and "fault transcript" in out
        events = json.loads(transcript.read_text())["events"]
        assert events
        assert all(e["op"] == "write" and e["fault"] for e in events)


class TestObjectTier:
    def test_each_invocation_tiers_only_its_own_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every CLI call is a process of its own, whose run ids start
        # again at 0: the same ids as the objects the calls before it
        # left in the bucket.
        warehouse = str(tmp_path / "wh")
        run(capsys, "init", warehouse, "--epsilon", "0.01", "--kappa", "2",
            "--block-elems", "64", "--storage-backend", "object",
            "--object-tier-level", "1")
        rng = np.random.default_rng(5)
        for step in range(8):
            source = tmp_path / f"b{step}.npy"
            np.save(source, rng.integers(0, 10**6, 3_000))
            monkeypatch.setattr(runfile, "_run_ids", itertools.count())
            code, *_ = run(capsys, "ingest", warehouse, str(source),
                           "--archive")
            assert code == 0
        monkeypatch.setattr(runfile, "_run_ids", itertools.count())
        code, out, _ = run(capsys, "cache-stats", warehouse)
        assert code == 0
        assert "2 runs cold, 2 hot" in out
        assert "2 PUTs, 2 migrations" in out


class TestRunFiles:
    def ingest_eight(self, capsys, tmp_path, warehouse, *init_flags):
        run(capsys, "init", str(warehouse), "--storage-backend", "mmap",
            "--kappa", "2", "--block-elems", "64", *init_flags)
        rng = np.random.default_rng(9)
        for step in range(8):
            source = tmp_path / f"b{step}.npy"
            np.save(source, rng.integers(0, 10**6, 3_000))
            code, *_ = run(capsys, "ingest", str(warehouse), str(source),
                           "--archive")
            assert code == 0
        code, out, _ = run(capsys, "query", str(warehouse), "--phi",
                           "0.1", "0.5", "0.99", "--mode", "accurate")
        assert code == 0
        return out

    def test_no_storage_dir_leaves_no_run_files(
        self, tmp_path, capsys, monkeypatch
    ):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        warehouse = tmp_path / "wh"
        answers = self.ingest_eight(capsys, tmp_path, warehouse)
        # Each command read its runs from a private directory and
        # removed it on exit: nothing collects beside the checkpoint.
        assert not (tmp_path / "wh.runs").exists()
        assert list(scratch.iterdir()) == []
        # The same answers as with run files kept in a named directory.
        kept = tmp_path / "kept"
        assert answers == self.ingest_eight(
            capsys, tmp_path, kept, "--storage-dir", str(tmp_path / "runs")
        )
        assert any((tmp_path / "runs").iterdir())


class TestDemo:
    def test_demo_runs(self, capsys):
        code, out, _ = run(capsys, "demo", "--steps", "3",
                           "--batch", "2000", "--epsilon", "0.05")
        assert code == 0
        assert "phi=0.5" in out
        assert "memory:" in out

    def test_a_sharded_demo_runs_on_kll_and_refuses_gk(self, capsys):
        args = ("demo", "--shards", "2", "--steps", "2", "--batch", "1000",
                "--epsilon", "0.05")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "2 shards (kll sketches" in out
        code, out, err = run(capsys, *args, "--sketch-backend", "gk")
        assert code == 1 and out == ""
        assert "sketch_backend='kll'" in err

    def test_a_sharded_demo_names_the_shard_that_degraded(self, capsys):
        """Every read on shard 1 is corrupt: its own reliability line
        names it, and the healthy shards print none."""
        code, out, _ = run(capsys, "demo", "--steps", "4", "--batch", "4000",
                           "--shards", "3", "--fault-plan",
                           '{"seed": 3, "corrupt_rate": 1.0, '
                           '"shard_scope": [1]}')
        assert code == 0 and "degraded" in out
        lines = [line for line in out.splitlines() if "reliability:" in line]
        assert len(lines) == 1
        assert lines[0].startswith("shard 1 reliability: ")
        assert lines[0].endswith(" degraded queries")
        assert "disk faults" in lines[0] and "0 degraded" not in lines[0]

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_a_failed_demo_removes_its_storage_directories(
        self, tmp_path, capsys, monkeypatch, shards
    ):
        """Every archive write faults; each engine's private run
        directory goes with it, one per shard."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code, _, err = run(capsys, "demo", "--shards", shards,
                           "--steps", "2", "--batch", "1000",
                           "--storage-backend", "mmap", "--fault-plan",
                           '{"seed": 1, "write_error_rate": 1.0}')
        assert code == 1
        assert "archiving failed" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_failed_demo_still_writes_its_fault_transcript(
        self, tmp_path, capsys, shards
    ):
        """The transcript matters most when the run gives up: one file,
        or with shards one per shard, listing every fault fired."""
        transcript = tmp_path / "transcript"
        code, out, err = run(capsys, "demo", "--shards", str(shards),
                             "--steps", "2", "--batch", "1000",
                             "--fault-plan",
                             '{"seed": 1, "write_error_rate": 1.0}',
                             "--fault-transcript", str(transcript))
        assert code == 1
        assert "archiving failed" in err and "fault transcript" in out
        files = (
            [transcript] if shards == 1
            else sorted(transcript.iterdir())
        )
        assert len(files) == shards
        for path in files:
            payload = json.loads(path.read_text())
            events = payload["events"]
            assert events and len(events) == payload["operations"]
            assert all(e["op"] == "write" and e["fault"] for e in events)

    def test_a_sharded_demo_honours_the_engine_flags(
        self, capsys, monkeypatch
    ):
        """Every shard runs on the storage, ingest and cache flags."""
        from repro.cluster import ClusterEngine
        from repro.storage.backends import ObjectStoreBackend

        seen = []
        close = ClusterEngine.close

        def record_then_close(cluster):
            cluster.check_invariants()
            seen.extend(cluster.shards)
            close(cluster)

        monkeypatch.setattr(ClusterEngine, "close", record_then_close)
        code, _, _ = run(capsys, "demo", "--shards", "2", "--steps", "2",
                         "--batch", "1000", "--epsilon", "0.05",
                         "--storage-backend", "object",
                         "--ingest-mode", "background",
                         "--shared-cache-blocks", "64")
        assert code == 0
        assert len(seen) == 2
        for shard in seen:
            assert shard.config.ingest_mode == "background"
            assert shard.config.shared_cache_blocks == 64
            assert shard.shared_cache is not None
            assert isinstance(shard.disk.backend, ObjectStoreBackend)


class TestMultiPhiQuery:
    @pytest.fixture
    def warehouse(self, tmp_path, capsys):
        path = tmp_path / "wh"
        run(capsys, "init", str(path), "--epsilon", "0.02",
            "--kappa", "3", "--block-elems", "16")
        source = tmp_path / "batch.npy"
        np.save(source, np.arange(1, 2001, dtype=np.int64))
        run(capsys, "ingest", str(path), str(source), "--archive")
        return path

    def test_one_row_per_phi_in_order(self, warehouse, capsys):
        code, out, _ = run(capsys, "query", str(warehouse),
                           "--phi", "0.25", "0.5", "0.75",
                           "--mode", "quick")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        phis = [float(row.split()[0]) for row in rows]
        assert phis == [0.25, 0.5, 0.75]
        values = [int(row.split()[1].replace(",", "")) for row in rows]
        assert values == sorted(values)
        for phi, value in zip(phis, values):
            assert abs(value - phi * 2000) <= 0.02 * 2000 + 2

    def test_multi_phi_accurate_mode(self, warehouse, capsys):
        code, out, _ = run(capsys, "query", str(warehouse),
                           "--phi", "0.5", "0.99")
        assert code == 0
        assert len(out.strip().splitlines()) == 3
