"""Compare two result files of ``bench/run.py --workload all``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric), judged with the bound fixed
in ``BENCHMARK.json`` — on the rates and latencies of the
single-threaded workloads with the tighter
``metrics.STEADY_TIMING_BOUND``, because the schema's one bound per
metric is set by ``mixed_serving``:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles over its median) is wider than the bound and
  the two sides' ranges overlap, so the row says nothing either way;
* ``same`` — otherwise.

``accurate_blocks_per_query`` is a count that repeats exactly for a
given seed on the single-threaded workloads (``metrics.EXACT``): when
both files ran the same one seed those rows are compared with ``==``
and any difference is ``worse`` or ``better``.

With one run per side there is no spread to judge, and rows are decided
on the single values.  Exits non-zero on any ``worse`` row or any rise
in failed operations.  Record files with several runs per workload come
from ``--repeat N``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # As in run.py: bench/trace.py must not shadow the standard library's.
    sys.path[0] = str(ROOT)

from bench import metrics  # noqa: E402


def load(path: str) -> Tuple[
    Dict[Tuple[str, str], List[float]], Dict[str, int], Set[int]
]:
    """``{(workload, metric): values}``, ``{workload: max failed}``, seeds."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, int] = {}
    seeds: Set[int] = set()
    for run in json.loads(Path(path).read_text())["runs"]:
        workload = run["workload"]
        seeds.add(run["seed"])
        failed[workload] = max(failed.get(workload, 0), run["failed"])
        for metric, value in run["end_to_end"].items():
            values.setdefault((workload, metric), []).append(value)
    return values, failed, seeds


def spread(values: List[float]) -> float:
    """Interquartile distance over the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def judge(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Classify one row."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    # Positive = B is worse, as a share of A's median.
    change = (med_b - med_a) / med_a if med_a else 0.0
    if better == "higher":
        change = -change
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap and len(a) > 1:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def judge_exact(a: List[float], b: List[float], better: str) -> str:
    """Classify one row of a count that repeats exactly for one seed."""
    if set(a) == set(b):
        return "same"
    change = statistics.median(b) - statistics.median(a)
    if better == "higher":
        change = -change
    if change == 0:  # the runs of one side disagree among themselves
        return "unresolved"
    return "worse" if change > 0 else "better"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_values, a_failed, a_seeds = load(argv[0])
    b_values, b_failed, b_seeds = load(argv[1])
    same_seed = len(a_seeds) == 1 and a_seeds == b_seeds
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            steady = workload in metrics.SINGLE_THREADED
            if steady and same_seed and metric["name"] in metrics.EXACT:
                verdict = judge_exact(a, b, metric["better"])
                bound = "exact"
            else:
                limit = metric["bound"]
                if steady and metric["name"] in metrics.TIMINGS:
                    limit = metrics.STEADY_TIMING_BOUND
                verdict = judge(a, b, metric["better"], limit)
                bound = f"{limit:g}"
            status |= verdict == "worse"
            print(
                f"{workload:15s} {metric['name']:28s} "
                f"{statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                f"{metric['unit']:11s} bound {bound:<5s} {verdict}"
            )
        rose = b_failed.get(workload, 0) > a_failed.get(workload, 0)
        status |= rose
        print(
            f"{workload:15s} {'failed':28s} {a_failed.get(workload, 0):14d} "
            f"{b_failed.get(workload, 0):14d} {'count':11s} "
            f"{'worse' if rose else 'same'}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
