"""The benchmark's one command.

Driver form (one workload, this process, result as the last line)::

    python3 bench/run.py --workload query_heavy --seed 7 --seconds 15 --trace 0

Whole set (each workload in a fresh subprocess, one JSON under --out)::

    python3 bench/run.py --seed 7 [--traced] [--repeat N] --out bench/out/

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Exit status: 0 when every
operation completed and every answer kept its bound, 3 when the run
finished but some did not (the result is still printed); anything else
is a crash and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: exit status of a run that finished with failed operations.
INCORRECT = 3

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# Replace the script directory on the path with the repository root:
# bench/trace.py must not shadow the standard library's ``trace``.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import metrics  # noqa: E402


def _parse(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink inputs; smoke tests only")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: runs per workload")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    args = parser.parse_args(argv)
    args.trace = int(args.trace or args.traced)
    return args


def _report(record: dict) -> dict:
    """Print the metric table; returns the driver's result object."""
    table = record["per_layer"] if record["trace"] else record["end_to_end"]
    name = record["workload"]
    for metric, value in table.items():
        print(f"{name} {metric} {value:.6g} {metrics.UNITS[metric]}")
    print(f"{name} failed_ops_share {record['failed_ops_share']:.6g} ratio")
    for kind, count in record["samples"].items():
        print(f"{name} samples.{kind} {count} count")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": metrics.UNITS[metric]}
            for metric, value in table.items()
        },
    }


def _run_one(args: argparse.Namespace) -> int:
    from bench.harness import run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds,
        traced=bool(args.trace), scale=args.scale, out_dir=args.out,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    detail = args.out / f"result-{args.workload}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1))
    result = _report(record)
    print(json.dumps(result))
    return 0 if record["correct"] else INCORRECT


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; one combined result file."""
    runs = []
    status = 0
    args.out.mkdir(parents=True, exist_ok=True)
    for _ in range(args.repeat):
        for name in metrics.WORKLOADS:
            detail = args.out / f"result-{name}-trace{args.trace}.json"
            # A crashed child must not leave an older run's record to read.
            detail.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--scale", str(args.scale), "--out", str(args.out)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            status = status or done.returncode
            if done.returncode not in (0, INCORRECT) or not detail.exists():
                print(f"{name} CRASHED exit {done.returncode}", file=sys.stderr)
                status = status or 1
                continue
            runs.append(json.loads(detail.read_text()))
    combined = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "runs": runs,
    }
    path = args.out / ("result-traced.json" if args.trace else "result.json")
    path.write_text(json.dumps(combined, indent=1))
    table = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": bool(runs) and all(r["correct"] for r in runs) and not status,
        "attempted": sum(r["attempted"] for r in runs) or 1,
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            f"{r['workload']}.{metric}": {
                "value": value, "unit": metrics.UNITS[metric]}
            for r in runs for metric, value in r[table].items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
