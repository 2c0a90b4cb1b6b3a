"""The ingest pipeline: stream buffering, sealing and archiving.

``end_time_step`` is the write-path hot spot: the paper's warehouse
(Algorithm 3) sorts the sealed batch, writes it as a level-0 partition
and runs cascading level merges.  This package holds the one
implementation of that step, and lets it overlap with stream updates
and queries:

* :class:`AppendBuffer` — the amortized-O(1) growable buffer the
  engine's ``stream_update`` / ``stream_update_many`` append into;
* :class:`PendingBatch` — a sealed batch, queryable from the seal on
  (staged as a pending partition by whoever needs it first);
* :class:`BackgroundArchiver` — the consumer of sealed batches (stage,
  adopt, retry transient faults, keep a failed batch pending), with
  queue-depth / stall / per-phase latency instrumentation
  (:class:`IngestStats`).

``EngineConfig.ingest_mode`` chooses who runs the consumer: ``"sync"``
the thread that called ``end_time_step`` (no thread is ever started),
``"background"`` the archiver's own, which ``engine.flush()`` drains.
Per-step reports, answers, I/O counters and invariants are
bit-identical either way.
"""

from .archiver import BackgroundArchiver, IngestStats
from .buffer import AppendBuffer
from .pending import PendingBatch

__all__ = [
    "AppendBuffer",
    "BackgroundArchiver",
    "IngestStats",
    "PendingBatch",
]
