"""Admission control: bounded queues and typed overload rejection.

An open-loop arrival process (the world's actual shape — millions of
users do not wait for each other) will, past saturation, grow an
unbounded queue and collapse tail latency.  Admission caps how many
requests may wait per mode: past the bound a request is
rejected *immediately* with a typed :class:`Overloaded` carrying the
observed depth, or — when
:attr:`~repro.core.config.ServingConfig.degrade_on_overload` is set —
an accurate request is downgraded to the quick path instead (the
serving-side analogue of the engine's ``degrade_on_fault``: a cheaper,
wider-error answer beats no answer).

A slot is membership in one of the service's queues: :func:`admit`
reads their lengths, so a request frees its slot by leaving its queue.
"""

from __future__ import annotations

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


def admit(config: ServingConfig, mode: str, quick: int, accurate: int) -> str:
    """Admit one ``mode`` request beside ``quick`` / ``accurate`` waiting.

    Returns the effective mode: the requested one, or ``"quick"`` when
    an accurate request is degraded under load.  Raises
    :class:`Overloaded` past the bound.
    """
    total = quick + accurate
    if mode == "quick":
        if total >= config.max_queue:
            raise Overloaded("quick", total, config.max_queue)
        return mode
    bound = config.accurate_queue_bound
    if accurate < bound and total < config.max_queue:
        return mode
    if not config.degrade_on_overload:
        raise Overloaded("accurate", accurate, bound)
    # Quick answers clear the queue orders of magnitude faster, so the
    # degraded request usually still fits; if even that is full, reject.
    if total < config.max_queue:
        return "quick"
    raise Overloaded("accurate", total, config.max_queue)
