"""Admission control: bounded queues and typed overload rejection.

An open-loop arrival process (the world's actual shape — millions of
users do not wait for each other) will, past saturation, grow an
unbounded queue and collapse tail latency.  The admission controller
caps how many requests may wait per mode: past the bound a request is
rejected *immediately* with a typed :class:`Overloaded` carrying the
observed depth, or — when
:attr:`~repro.core.config.ServingConfig.degrade_on_overload` is set —
an accurate request is downgraded to the quick path instead (the
serving-side analogue of the engine's ``degrade_on_fault``: a cheaper,
wider-error answer beats no answer).
"""

from __future__ import annotations

import threading
from typing import Dict

from ..core.config import ServingConfig


class Overloaded(RuntimeError):
    """The service's request queue is full; retry later or back off.

    Attributes
    ----------
    mode:
        The requested query mode (``"quick"`` or ``"accurate"``).
    queue_depth:
        Requests waiting at rejection time.
    bound:
        The admission bound that was hit.
    """

    def __init__(self, mode: str, queue_depth: int, bound: int) -> None:
        super().__init__(
            f"serving queue full ({queue_depth}/{bound} waiting, "
            f"mode={mode})"
        )
        self.mode = mode
        self.queue_depth = queue_depth
        self.bound = bound


class AdmissionController:
    """Per-mode bounded admission in front of the service queues.

    Tracks how many admitted requests are still *waiting* (the service
    releases a slot when some thread takes the request to run it).
    ``admit`` returns the effective mode — equal to the requested mode,
    or ``"quick"`` when an accurate request was degraded under load.
    """

    def __init__(self, config: ServingConfig) -> None:
        self._config = config
        self._lock = threading.Lock()
        self._waiting: Dict[str, int] = {"quick": 0, "accurate": 0}
        self.rejected: Dict[str, int] = {"quick": 0, "accurate": 0}
        #: accurate requests admitted as quick because their queue was
        #: full (only with ``degrade_on_overload``).
        self.degraded_admissions = 0

    @property
    def queue_depth(self) -> int:
        """Total requests currently waiting (both modes)."""
        with self._lock:
            return self._waiting["quick"] + self._waiting["accurate"]

    def waiting(self, mode: str) -> int:
        """Requests of one mode currently waiting."""
        with self._lock:
            return self._waiting[mode]

    def admit(self, mode: str) -> str:
        """Claim a queue slot or raise :class:`Overloaded`.

        Returns the effective mode the request was admitted under.
        """
        config = self._config
        with self._lock:
            total = self._waiting["quick"] + self._waiting["accurate"]
            if mode == "accurate":
                bound = config.accurate_queue_bound
                over = (
                    self._waiting["accurate"] >= bound
                    or total >= config.max_queue
                )
                if over and config.degrade_on_overload:
                    # Quick answers clear the queue orders of magnitude
                    # faster, so the degraded request usually still
                    # fits; if even the quick path is full, reject.
                    if total < config.max_queue:
                        self.degraded_admissions += 1
                        self._waiting["quick"] += 1
                        return "quick"
                    self.rejected["accurate"] += 1
                    raise Overloaded("accurate", total, config.max_queue)
                if over:
                    self.rejected["accurate"] += 1
                    raise Overloaded(
                        "accurate", self._waiting["accurate"], bound
                    )
            else:
                if total >= config.max_queue:
                    self.rejected["quick"] += 1
                    raise Overloaded("quick", total, config.max_queue)
            self._waiting[mode] += 1
            return mode

    def release(self, mode: str) -> None:
        """Free one waiting slot (the request left the queue)."""
        with self._lock:
            self._waiting[mode] -= 1

    def rejections(self) -> Dict[str, int]:
        """Snapshot of the per-mode rejection counters."""
        with self._lock:
            return dict(self.rejected)
