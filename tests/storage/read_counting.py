"""Count what a query really fetches and what it was charged for.

The accounting says how many blocks a query paid for; these helpers
watch the two places where that turns into work — ``read_blocks`` on a
backend's run handles (real bytes) and ``BlockCache.touch_range`` (the
charges) — so a test can hold one against the other.  All patch at
class level and restore on exit.
"""

from contextlib import contextmanager

from repro.storage.backends import OBJECT_TIER, _FileHandle, _SimulatedHandle
from repro.storage.cache import BlockCache


@contextmanager
def counted_block_reads():
    """Every ``(run_id, block)`` fetched from any backend handle.

    A ranged read contributes one entry per block it spans; the yielded
    object's ``calls`` counts the ``read_blocks`` calls themselves.
    """

    class Reads(list):
        calls = 0

    reads = Reads()
    originals = {
        cls: cls.read_blocks for cls in (_FileHandle, _SimulatedHandle)
    }

    def counting(original):
        def read_blocks(handle, first_block, last_block, charged=0):
            reads.calls += 1
            reads.extend(
                (handle.run_id, block)
                for block in range(first_block, last_block + 1)
            )
            return original(handle, first_block, last_block, charged)

        return read_blocks

    for cls, original in originals.items():
        cls.read_blocks = counting(original)
    try:
        yield reads
    finally:
        for cls, original in originals.items():
            cls.read_blocks = original


@contextmanager
def counted_range_charges():
    """Each non-zero ``charged`` of a ``read_blocks`` on an object-tier run.

    One entry per charged range: the request count (``len``) and block
    volume (``sum``) of a store that serves each charge as its own GET
    of exactly the charged blocks — no registry, no readahead.
    """
    charges = []
    original = _FileHandle.read_blocks

    def read_blocks(handle, first_block, last_block, charged=0):
        if charged and handle.tier == OBJECT_TIER:
            charges.append(charged)
        return original(handle, first_block, last_block, charged)

    _FileHandle.read_blocks = read_blocks
    try:
        yield charges
    finally:
        _FileHandle.read_blocks = original


@contextmanager
def recorded_touches():
    """Every ``(run_id, block)`` some per-query cache touched first.

    Those are the blocks a query paid for on the disk plus the ones a
    shared tier answered; free re-touches of a block the same cache
    already holds are not recorded (with ``enabled=False`` nothing is
    held, so every touch is).
    """
    touches = []
    touch_range = BlockCache.touch_range

    def recording_touch_range(
        cache, run_id, first_block, last_block, prefetch=False
    ):
        seen = cache._seen.get(run_id, ()) if cache._enabled else ()
        new = [
            (run_id, block)
            for block in range(first_block, last_block + 1)
            if block not in seen
        ]
        charged = touch_range(
            cache, run_id, first_block, last_block, prefetch
        )
        touches.extend(new)
        return charged

    BlockCache.touch_range = recording_touch_range
    try:
        yield touches
    finally:
        BlockCache.touch_range = touch_range
