"""Count what a query really fetches and what it was charged for.

The accounting says how many blocks a query paid for; these helpers
watch the two places where that turns into work — ``read_blocks`` on a
backend's run handles (real bytes) and ``BlockCache.touch`` /
``touch_range`` (the charges) — so a test can hold one against the
other.  All patch at class level and restore on exit.
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
        def read_blocks(handle, first_block, last_block):
            reads.calls += 1
            reads.extend(
                (handle.run_id, block)
                for block in range(first_block, last_block + 1)
            )
            return original(handle, first_block, last_block)

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
    """The ``charged`` of every ``note_range_read`` on an object-tier run.

    One entry per charged range: the request count (``len``) and block
    volume (``sum``) of a store that serves each charge as its own GET
    of exactly the charged blocks — no registry, no readahead.
    """
    charges = []
    original = _FileHandle.note_range_read

    def note_range_read(handle, first_block, last_block, charged):
        if handle.tier == OBJECT_TIER:
            charges.append(charged)
        return original(handle, first_block, last_block, charged)

    _FileHandle.note_range_read = note_range_read
    try:
        yield charges
    finally:
        _FileHandle.note_range_read = original


@contextmanager
def recorded_touches():
    """Every ``(run_id, block)`` some per-query cache touched first.

    Those are the blocks a query paid for on the disk plus the ones a
    shared tier answered; free re-touches of a block the same cache
    already holds are not recorded (with ``enabled=False`` nothing is
    held, so every touch is).
    """
    touches = []
    touch, touch_range = BlockCache.touch, BlockCache.touch_range

    def unseen(cache, run_id, blocks):
        seen = cache._seen.get(run_id, ()) if cache._enabled else ()
        return [(run_id, block) for block in blocks if block not in seen]

    def recording_touch(cache, run_id, block):
        new = unseen(cache, run_id, [block])
        charged = touch(cache, run_id, block)
        touches.extend(new)
        return charged

    def recording_touch_range(cache, run_id, first_block, last_block):
        new = unseen(cache, run_id, range(first_block, last_block + 1))
        charged = touch_range(cache, run_id, first_block, last_block)
        touches.extend(new)
        return charged

    BlockCache.touch = recording_touch
    BlockCache.touch_range = recording_touch_range
    try:
        yield touches
    finally:
        BlockCache.touch = touch
        BlockCache.touch_range = touch_range
