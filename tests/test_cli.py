"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


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


class TestServeBench:
    def test_small_sweep_writes_json(self, tmp_path, capsys):
        output = tmp_path / "serve.json"
        code, out, _ = run(capsys, "serve-bench",
                           "--steps", "2", "--batch", "2000",
                           "--clients", "1", "4",
                           "--requests", "3", "--output", str(output))
        assert code == 0
        assert "serve-bench" in out
        assert "overload[reject]" in out
        assert "overload[degrade]" in out
        assert "MISMATCH" not in out
        import json
        doc = json.loads(output.read_text())
        assert doc["benchmark"] == "serving_ablation"
        assert {row["clients"] for row in doc["closed_loop"]} == {1, 4}
        for row in doc["closed_loop"]:
            assert row["bit_identical"]
            assert row["served"] + row["rejected"] == row["requests"]
