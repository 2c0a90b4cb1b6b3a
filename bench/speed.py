"""How fast the machine is running right now.

The 2-core sandbox this benchmark was sized on changes speed under the
program, seconds to minutes at a time: a neighbour on the same physical
core slows interpreted Python by up to ~1.75x and numpy kernels by
~1.25x (steal stays near 2 %, CPU time inflates with wall time).
Identical rounds of any workload then differ by 1.3-1.8x, whole ten-run
studies land in one state or the other, and no amount of repetition
inside a 30 s run averages that out: raw wall-clock spread 0.03-0.10
over ten seeds when all ten fell in one state and 0.18-0.36 when they
did not, whatever the estimator.

So the harness measures the machine next to the program: between the
operations of a round it times :func:`probe`, a fixed piece of reference
work, and every duration clocked in the round is multiplied by
:func:`factor` of the round's probes, ``REFERENCE_S / median(probe)``.
A reported time therefore reads "wall-clock at reference speed": equal
to wall-clock on the sandbox when it is uncontended, and scaled by one
constant per machine elsewhere, which cancels in any comparison of two
commits.  The factor is one number per round, applied to whole
durations; raw durations and factors stay in the detail record, and the
traced run reports the factor as ``machine.speed``.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: seconds :func:`probe` takes between a workload's operations on the
#: uncontended sandbox (2.0 ms in a tight loop, 2.1 ms with the
#: program's working set in the caches).
REFERENCE_S = 0.0021

_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 20_000)


def probe() -> float:
    """CPU seconds the reference work takes on this thread right now.

    About 70 % interpreter and 30 % numpy by uncontended time, like the
    program.  Thread CPU time, not wall-clock: an archiver or dispatcher
    thread may take the GIL in the middle of a probe, and the wait for
    it is not the machine's speed.  On a thread that runs alone the two
    clocks agree to within a percent.
    """
    started = time.thread_time()
    table: dict = {}
    acc = 0
    for i in range(8000):
        table[i & 1023] = acc
        acc += i ^ (acc >> 3)
    for _ in range(5):
        np.sort(_KEYS)
    return time.thread_time() - started


def factor(probes: Sequence[float]) -> float:
    """What to multiply a duration by to read it at reference speed."""
    return REFERENCE_S / statistics.median(probes)
