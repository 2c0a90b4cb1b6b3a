"""compare.py: bounds from BENCHMARK.json, ``==`` for exact counts."""

import json

from bench import compare


def result_file(path, seed, blocks, quick_ms=(10.0,), failed=0):
    runs = [
        {"workload": workload, "seed": seed, "failed": failed,
         "end_to_end": {"quick_p50_ms": ms,
                        "accurate_blocks_per_query": blocks}}
        for ms in quick_ms for workload in ("query_heavy", "mixed_serving")
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def rows(capsys, workload="query_heavy"):
    return {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith(workload)
    }


def test_same_seed_compares_block_counts_exactly(tmp_path, capsys):
    a = result_file(tmp_path / "a.json", 7, 14.16)
    b = result_file(tmp_path / "b.json", 7, 14.17)
    assert compare.main([a, b]) == 1
    assert rows(capsys)["accurate_blocks_per_query"] == "worse"
    assert compare.main([b, a]) == 0
    assert rows(capsys)["accurate_blocks_per_query"] == "better"
    assert compare.main([a, a]) == 0
    assert rows(capsys)["accurate_blocks_per_query"] == "same"


def test_other_seed_falls_back_to_the_bound(tmp_path, capsys):
    a = result_file(tmp_path / "a.json", 7, 14.16)
    b = result_file(tmp_path / "b.json", 11, 14.17)
    assert compare.main([a, b]) == 0
    assert rows(capsys)["accurate_blocks_per_query"] == "same"


def test_single_threaded_workloads_get_the_tighter_timing_bound(
    tmp_path, capsys
):
    a = result_file(tmp_path / "a.json", 7, 14.0, quick_ms=(10.0,))
    b = result_file(tmp_path / "b.json", 7, 14.0, quick_ms=(11.2,))
    assert compare.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    verdicts = {
        line.split()[0]: line.split()[-1]
        for line in out if " quick_p50_ms " in line
    }
    assert verdicts == {"query_heavy": "worse", "mixed_serving": "same"}
    # Two clients interleave: the block count is no exact count there.
    assert any(
        line.startswith("mixed_serving") and " bound 0.15 " in line
        for line in out
    )


def test_timing_rows_and_failures(tmp_path, capsys):
    a = result_file(tmp_path / "a.json", 7, 14.0, quick_ms=(10.0, 10.1, 9.9))
    slow = result_file(tmp_path / "b.json", 7, 14.0, quick_ms=(12.0, 12.1, 11.9))
    noisy = result_file(tmp_path / "c.json", 7, 14.0, quick_ms=(8.0, 12.0, 16.0))
    assert compare.main([a, slow]) == 1
    assert rows(capsys)["quick_p50_ms"] == "worse"
    assert compare.main([a, noisy]) == 0
    assert rows(capsys)["quick_p50_ms"] == "unresolved"
    failing = result_file(tmp_path / "d.json", 7, 14.0, failed=1)
    assert compare.main([a, failing]) == 1
    assert rows(capsys)["failed"] == "worse"
