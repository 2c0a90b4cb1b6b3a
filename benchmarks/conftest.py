"""Benchmark-suite configuration.

Every bench runs its full experiment exactly once inside the
``benchmark`` fixture (rounds=1), so ``pytest benchmarks/
--benchmark-only`` both regenerates each figure's table and reports how
long the simulation took.
"""

import sys
from pathlib import Path

import pytest

# Make `import common` (and the reference implementations under
# `tests/`) work no matter where pytest is invoked from.
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

# Autouse: every HistoricalMemo.check_invariants call sweeps the TS doors.
from tests.core.ts_arrays_reference import sweep_after_check_invariants  # noqa: E402,F401


def pytest_collection_modifyitems(items):
    """Every benchmark is benchmark-adjacent by definition: mark slow.

    Lets one invocation cover both suites while keeping the quick
    signal quick: ``pytest tests/ benchmarks/ -m "not slow"`` runs only
    tier-1, and ``-m slow`` selects the figure/ablation regenerators.
    """
    for item in items:
        item.add_marker(pytest.mark.slow)


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
