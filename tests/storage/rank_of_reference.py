"""Reference for ``SortedRun.rank_of``: one backend read per probe.

``rank_of`` gets a block's bytes from the per-query cache once the
cache has pinned them, and finishes with one ``searchsorted`` as soon
as the search is confined to a single block.  This is the plain
bisection: every step touches the cache *and* reads the probed block
from the handle again, passing the read what the touch charged.  The
two must return the same rank and leave the same accounting behind —
the same first touches with the same results, the same
``charge_random_read`` calls and charged reads in the same order;
``tests/storage/test_rank_of_accounting.py`` checks that and
``benchmarks/test_accurate_probe_reads.py`` counts the reads
``rank_of`` does not make.
"""


def reference_rank_of(run, value, lo, hi, cache):
    """Number of elements ``<= value`` in ``run[lo:hi]``'s bracket."""
    disk = run.disk
    handle = run._handle
    if hi is None:
        hi = len(run)
    lo = max(lo, 0)
    hi = min(hi, len(run))
    block_elems = disk.block_elems
    while lo < hi:
        mid = (lo + hi) // 2
        block = disk.block_of(mid)
        charged = cache.touch_range(run.run_id, block, block)
        payload = handle.read_blocks(block, block, charged)
        if int(payload[mid - block * block_elems]) <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo
