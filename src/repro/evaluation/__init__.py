"""Experiment harness: runner, metrics, theory bounds, reporting."""

from .calibration import CalibrationPoint, calibrate_gk, calibrate_qdigest
from .metrics import QueryAccuracy, measure
from .reporting import format_table, print_table
from .runner import (
    DEFAULT_PHIS,
    EngineRun,
    ExperimentResult,
    ExperimentRunner,
)
from .theory import (
    WorkedExample,
    accurate_relative_error_bound,
    memory_words_bound,
    query_disk_accesses_bound,
    quick_relative_error_bound,
    section_2_4_example,
    update_disk_accesses_bound,
)

__all__ = [
    "CalibrationPoint",
    "calibrate_gk",
    "calibrate_qdigest",
    "QueryAccuracy",
    "measure",
    "format_table",
    "print_table",
    "DEFAULT_PHIS",
    "EngineRun",
    "ExperimentResult",
    "ExperimentRunner",
    "WorkedExample",
    "accurate_relative_error_bound",
    "memory_words_bound",
    "query_disk_accesses_bound",
    "quick_relative_error_bound",
    "section_2_4_example",
    "update_disk_accesses_bound",
]
