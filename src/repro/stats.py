"""One table of named counters and levels per engine.

The engine builds a :class:`StatsTable` and hands it to every component
that counts something — the epoch registry and the summary memo, the
archiver, the query executor, the storage backend and the shared block
cache.  Each bumps its own keys; a component built alone, and each
service's metrics, make a table of their own.  ``engine.stats()`` reads
the table flat, beside the counts kept elsewhere (the disk's per-phase
I/O, its fired faults) and the levels read off the state holding them
(a backend's runs and bytes, a cache's blocks, the current epoch).

Keys are the names ``bench/layers.py`` reports.  A *counter* only grows;
a *level* (:data:`LEVELS`) is a current value or a high-water mark.  The
older per-surface attribute paths (``engine.epoch_stats.ts_merges``,
``backend.stats().gets``, ...) are :class:`Reading` s of the table
through the field maps below.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional

#: keys holding a current value or a high-water mark: a difference of
#: two readings carries them instead of subtracting.
LEVELS = frozenset({
    "epoch.current_epoch", "core.epoch.live_pins", "core.epoch.peak_pins",
    "storage.backend.hot_runs", "storage.backend.object_runs",
    "storage.backend.hot_bytes", "storage.cache.capacity_blocks",
    "storage.cache.resident_blocks", "ingest.archiver.max_queue_depth",
    "warehouse.partitions_final",
})


def _under(prefix: str, *names: str) -> Dict[str, str]:
    return {name: prefix + name for name in names}


#: ``engine.epoch_stats`` attribute -> key: the registry's bumps and
#: pins, and the memo's TS resolutions (``ts_merges``, of which
#: ``ts_reuses`` handed out the retained TS) and HS folds / grows.
EPOCH_FIELDS = {
    **_under("epoch.", "current_epoch", "seal_bumps", "adopt_bumps",
             "ts_merges", "ts_reuses", "hs_builds", "hs_extends"),
    **_under("core.epoch.", "live_pins", "peak_pins"),
}
#: ``engine.ingest_stats`` attribute -> key.
INGEST_FIELDS = {
    **_under("ingest.archiver.", "batches_enqueued", "batches_archived",
             "max_queue_depth"),
    "stall_seconds": "ingest.archiver.stall_s",
    "archive_wall_seconds": "ingest.archiver.archive_wall_s",
    "fault_retries": "faults.archive_retries",
}
#: ``backend.stats()`` attribute -> key (all zero but ``hot_runs`` off
#: the object backend; ``get_blocks`` counts readahead too).
BACKEND_FIELDS = _under(
    "storage.backend.", "gets", "get_blocks", "puts", "migrations",
    "evicted_runs", "hot_runs", "object_runs", "hot_bytes",
)
#: ``shared_cache.stats()`` attribute -> key.
CACHE_FIELDS = _under(
    "storage.cache.", "capacity_blocks", "resident_blocks", "hits",
    "misses", "evictions", "invalidated_blocks", "invalidated_runs",
    "prefetched_blocks", "coalesced_waits",
)
#: ``engine.reliability`` attribute -> key.
FAULT_FIELDS = _under(
    "faults.", "disk_faults", "archive_retries", "probe_retries",
    "degraded_queries",
)


class StatsTable(dict):
    """Named counters and levels of one engine, key -> value.

    A writer adds to a key (``table[key] += n``, no call frame on the
    query path) or raises it (:meth:`peak`) inside a critical section
    its component already holds for that key (the registry's pin, the
    memo's fuse, the cache's lookup, the backend's GET), so a write
    takes no lock of its own; one with no such section (a probe retry,
    a served request) holds the table's :attr:`lock`.  A reading copies
    the dict in one step.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()

    def declare(self, keys: Iterable[str]) -> None:
        """Enter ``keys`` at zero: a writer adds to them in place
        (``table[key] += n``), and a reading lists them before."""
        for key in keys:
            self.setdefault(key, 0)

    def peak(self, key: str, value: float) -> None:
        """Raise high-water mark ``key`` to ``value`` if it is higher."""
        if value > self.get(key, 0):
            self[key] = value

    def read(
        self, fields: Mapping[str, str], levels: Optional[Mapping] = None
    ) -> "Reading":
        """The keys ``fields`` maps attributes to, at one instant, with
        ``levels`` (read off the state that holds them) over the table's."""
        return Reading(fields, {**self, **(levels or {})})


class Reading:
    """Some keys of a table at one instant, read by attribute through
    a field map (attribute -> key); a key never written reads 0."""

    __slots__ = ("_fields", "_values")

    def __init__(
        self, fields: Mapping[str, str], values: Mapping[str, float]
    ) -> None:
        self._fields = fields
        self._values = {key: values.get(key, 0) for key in fields.values()}

    def __getattr__(self, name: str) -> float:
        if name in Reading.__slots__:
            raise AttributeError(name)
        try:
            return self._values[self._fields[name]]
        except KeyError:
            raise AttributeError(name) from None

    def since(self, earlier: "Reading") -> "Reading":
        """Counters minus ``earlier``'s; levels as read now."""
        return Reading(self._fields, {
            key: value if key in LEVELS else value - earlier._values[key]
            for key, value in self._values.items()
        })

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reading) and self._values == other._values

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={self._values[key]!r}"
            for name, key in self._fields.items()
        )
        return f"Reading({shown})"
