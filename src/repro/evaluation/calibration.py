"""Empirical calibration of the sketch memory models.

The benchmark harness sizes every contender from the same invertible
memory models (``repro.core.memory``); the memory axis is only fair if
those models track what the sketches *actually* use.  This module
measures real usage across an epsilon/size grid and reports the
model-to-measured ratio, so the calibration claim in the memory module
is executable rather than folklore.  The accompanying test pins the
ratios into a band; if an implementation change shifts a sketch's
footprint, the test fails and the model constants must be re-fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.memory import pure_gk_words, qdigest_words
from ..sketches.gk import GKSketch
from ..sketches.qdigest import QDigestSketch


@dataclass(frozen=True)
class CalibrationPoint:
    """Model-versus-measured memory at one configuration."""

    sketch: str
    epsilon: float
    stream_size: int
    measured_words: int
    model_words: float

    @property
    def ratio(self) -> float:
        """model / measured; > 1 means the model is conservative."""
        return self.model_words / max(1, self.measured_words)


def _words_after(sketch, rng, size: int, high: int) -> int:
    """Footprint of ``sketch`` after ``size`` uniform values in
    ``[0, high)``, fed in chunks of 100 000."""
    for fed in range(0, size, 100_000):
        sketch.update_many(rng.integers(0, high, min(100_000, size - fed)))
    return sketch.memory_words()


def calibrate_gk(
    epsilons: Sequence[float] = (0.02, 0.005, 0.001),
    sizes: Sequence[int] = (50_000, 500_000),
    seed: int = 0,
) -> List[CalibrationPoint]:
    """Measure GK footprints across a grid and compare to the model."""
    rng = np.random.default_rng(seed)
    points = []
    for epsilon in epsilons:
        for size in sizes:
            points.append(
                CalibrationPoint(
                    sketch="gk",
                    epsilon=epsilon,
                    stream_size=size,
                    measured_words=_words_after(
                        GKSketch(epsilon), rng, size, 10**9
                    ),
                    model_words=pure_gk_words(epsilon, size),
                )
            )
    return points


def calibrate_qdigest(
    epsilons: Sequence[float] = (0.02, 0.005),
    sizes: Sequence[int] = (50_000, 500_000),
    universe_log2: int = 20,
    seed: int = 1,
) -> List[CalibrationPoint]:
    """Measure Q-Digest footprints across a grid."""
    rng = np.random.default_rng(seed)
    points = []
    for epsilon in epsilons:
        for size in sizes:
            sketch = QDigestSketch(epsilon, universe_log2=universe_log2)
            points.append(
                CalibrationPoint(
                    sketch="qdigest",
                    epsilon=epsilon,
                    stream_size=size,
                    measured_words=_words_after(
                        sketch, rng, size, 2**universe_log2
                    ),
                    model_words=qdigest_words(epsilon, universe_log2),
                )
            )
    return points
