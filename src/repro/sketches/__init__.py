"""Streaming quantile sketches: GK, KLL, Q-Digest, and an exact oracle."""

from .base import QuantileSketch, clamp_rank, rank_for_phi
from .exact import ExactQuantiles
from .gk import GKSketch
from .kll import KLLSketch
from .qdigest import QDigestSketch

__all__ = [
    "QuantileSketch",
    "clamp_rank",
    "rank_for_phi",
    "ExactQuantiles",
    "GKSketch",
    "KLLSketch",
    "QDigestSketch",
]
