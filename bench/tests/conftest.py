"""Path set-up for ``PYTHONPATH=src python -m pytest bench/tests -q``.

These tests belong to the benchmark, not to tier-1 (``testpaths`` in
pyproject.toml names only ``tests/``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
