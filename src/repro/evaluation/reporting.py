"""Fixed-width table rendering for benchmark output.

The benchmark harness prints the same rows the paper's figures plot;
these helpers keep that output aligned and consistent across benches.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_cell(value: object) -> str:
    """Render one cell: compact scientific notation for small floats."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) < 1e-3 or abs(value) >= 1e7:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a fixed-width text table with a header rule."""
    rendered: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Print a titled table (flushes so pytest -s interleaves sanely)."""
    print(f"\n=== {title} ===")
    print(format_table(headers, rows), flush=True)

