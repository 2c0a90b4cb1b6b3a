"""Supervised shard recovery: quarantine, restore, rejoin.

:class:`ShardSupervisor` closes the fault-tolerance loop around
:class:`~repro.cluster.engine.ClusterEngine`.  The cluster's side of
the contract is mechanical — :meth:`kill_shard
<repro.cluster.engine.ClusterEngine.kill_shard>` turns a poisoned shard
into a quarantined slot, :meth:`rejoin_shard
<repro.cluster.engine.ClusterEngine.rejoin_shard>` swaps a caught-up
engine back in — and the supervisor drives the middle: health-check
the live shards, restore each quarantined one from its ``shard-NN/``
checkpoint plus WAL roll-forward, and retry with capped (optionally
jittered) backoff from :class:`~repro.faults.retry.RetryPolicy` until
the shard rejoins or the attempt budget is spent.

The state machine per shard::

    HEALTHY --fault--> QUARANTINED --restore ok--> HEALTHY
                           |  ^
          restore failed   |  | backoff elapsed
                           v  |
                        WAITING --budget spent--> FAILED

Everything is deterministic under test: :meth:`tick` takes an explicit
``now``, backoff delays come from the policy's pure schedule, and every
transition is appended to :attr:`events` — the chaos ablation asserts
recovery timing straight off that transcript.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..faults.retry import RetryPolicy
from ..persistence.checkpoint import load_engine, recover_checkpoint
from .engine import ClusterEngine, new_shard_disk, shard_dir
from .persistence import MANIFEST_FILE

#: event action labels, in the order a recovery normally emits them.
QUARANTINED = "quarantined"
RESTORE_ATTEMPT = "restore_attempt"
RESTORED = "restored"
RETRY_SCHEDULED = "retry_scheduled"
FAILED = "failed"


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor state transition, for the recovery transcript."""

    time: float
    shard: int
    action: str
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-ready form for transcript artifacts."""
        return {
            "time": self.time,
            "shard": self.shard,
            "action": self.action,
            "detail": self.detail,
        }


class ShardSupervisor:
    """Health-checks a cluster and restores its quarantined shards.

    Parameters
    ----------
    cluster:
        The cluster to supervise.  The supervisor never constructs
        shards itself; it restores them through
        :func:`~repro.persistence.checkpoint.load_engine` and hands
        them back via ``rejoin_shard``.
    checkpoint_dir:
        Root of a :func:`~repro.cluster.persistence.save_cluster`
        checkpoint — restores read ``shard-NN/`` under it.
    retry:
        Backoff budget and schedule for restore attempts.  Attempt
        ``k``'s delay is ``retry.sleep_before(k)`` — deterministic,
        optionally jittered by the policy's seed.
    health_check:
        Optional ``(index, engine) -> Optional[str]`` probe run over
        live shards each tick; a non-``None`` reason quarantines the
        shard.  The default probe calls ``engine.check_invariants()``
        and reports any exception.
    clock:
        Time source used when :meth:`tick` is called without ``now``
        (defaults to :func:`time.monotonic`).  Tests pass explicit
        ``now`` values and never touch the wall clock.
    """

    def __init__(
        self,
        cluster: ClusterEngine,
        checkpoint_dir: "str | Path",
        retry: Optional[RetryPolicy] = None,
        health_check: Optional[
            Callable[[int, object], Optional[str]]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cluster = cluster
        self.checkpoint_dir = Path(checkpoint_dir)
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=3, backoff_seconds=0.1, backoff_cap_seconds=2.0
        )
        self._health_check = (
            health_check if health_check is not None else self._default_probe
        )
        self._clock = clock
        self.events: List[RecoveryEvent] = []
        self._attempts: Dict[int, int] = {}
        self._next_due: Dict[int, float] = {}
        self._failed: Dict[int, str] = {}

    # -- introspection --------------------------------------------------

    @property
    def failed_shards(self) -> Dict[int, str]:
        """Shards whose restore budget is spent -> last failure reason."""
        return dict(self._failed)

    @property
    def pending_shards(self) -> List[int]:
        """Quarantined shards still inside their restore budget."""
        return sorted(
            index
            for index in self.cluster.quarantined_shards
            if index not in self._failed
        )

    def attempts(self, shard: int) -> int:
        """Restore attempts made for ``shard`` so far."""
        return self._attempts.get(shard, 0)

    def dump_events(self, path: "str | Path") -> Path:
        """Write the recovery transcript as JSON (CI artifact)."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                [event.as_dict() for event in self.events], indent=2
            )
        )
        return path

    # -- the supervision loop -------------------------------------------

    @staticmethod
    def _default_probe(index: int, engine: object) -> Optional[str]:
        del index
        try:
            engine.check_invariants()  # type: ignore[attr-defined]
        except BaseException as exc:  # noqa: BLE001 - any break is a fault
            return f"{type(exc).__name__}: {exc}"
        return None

    def _emit(
        self, now: float, shard: int, action: str, detail: str = ""
    ) -> None:
        self.events.append(RecoveryEvent(now, shard, action, detail))

    def tick(self, now: Optional[float] = None) -> List[RecoveryEvent]:
        """One supervision pass; returns the events it emitted.

        Health-checks every live shard (quarantining failures), then
        attempts one restore for each quarantined shard whose backoff
        has elapsed.  Never sleeps: failed attempts schedule a
        ``next_due`` and return, so callers — a loop thread in a real
        deployment, the chaos harness in tests — control the clock.
        """
        if now is None:
            now = self._clock()
        emitted_from = len(self.events)
        # 1. Probe live shards.
        for index, engine in enumerate(self.cluster.shards):
            if engine is None:
                continue
            reason = self._health_check(index, engine)
            if reason is not None:
                self.cluster.kill_shard(index, reason)
                self._emit(now, index, QUARANTINED, reason)
        # 2. Restore due quarantined shards.
        for index in sorted(self.cluster.quarantined_shards):
            if index in self._failed:
                continue
            if self._next_due.get(index, now) > now:
                continue
            self._restore(index, now)
        return self.events[emitted_from:]

    def _restore(self, shard: int, now: float) -> None:
        attempt = self._attempts.get(shard, 0) + 1
        self._attempts[shard] = attempt
        self._emit(now, shard, RESTORE_ATTEMPT, f"attempt {attempt}")
        wal_root = self.cluster.wal_root
        # The slot's retained writer must close before load_engine
        # opens its own on the same directory (one writer per WAL).
        self.cluster.release_wal(shard)
        engine = None
        try:
            # A cluster save that died mid-commit rolls forward or back
            # as a whole before any one shard is read from it.
            recover_checkpoint(self.checkpoint_dir, MANIFEST_FILE)
            engine = load_engine(
                shard_dir(self.checkpoint_dir, shard),
                disk=new_shard_disk(
                    self.cluster.fault_plan, self.cluster.config, shard
                ),
                wal_dir=(
                    shard_dir(wal_root, shard)
                    if wal_root is not None
                    else None
                ),
            )
            self.cluster.rejoin_shard(shard, engine)
        except BaseException as exc:  # noqa: BLE001 - any break retries
            if engine is not None:
                try:
                    engine.close()
                except BaseException:  # noqa: BLE001 - best effort
                    pass
            self.cluster.reopen_wal(shard)
            reason = f"{type(exc).__name__}: {exc}"
            if attempt > self.retry.max_retries:
                self._failed[shard] = reason
                self._emit(now, shard, FAILED, reason)
                return
            delay = self.retry.sleep_before(attempt)
            self._next_due[shard] = now + delay
            self._emit(
                now, shard, RETRY_SCHEDULED,
                f"attempt {attempt} failed ({reason}); next in {delay:.3f}s",
            )
            return
        self._attempts.pop(shard, None)
        self._next_due.pop(shard, None)
        self._emit(now, shard, RESTORED, f"after {attempt} attempt(s)")

    def run_until_settled(
        self,
        start: float = 0.0,
        max_ticks: int = 64,
    ) -> float:
        """Drive ticks with a simulated clock until nothing is pending.

        Advances a virtual ``now`` straight to each earliest scheduled
        retry (no real sleeping) and returns the final virtual time.
        Raises if shards are still pending after ``max_ticks`` — the
        caller's budget is the backstop against a shard that can never
        restore but never exhausts its (infinite) policy either.
        """
        now = start
        for _ in range(max_ticks):
            self.tick(now)
            if not self.pending_shards:
                return now
            due = [
                self._next_due.get(index, now)
                for index in self.pending_shards
            ]
            now = max(now, min(due))
        if self.pending_shards:
            raise RuntimeError(
                f"shards {self.pending_shards} still pending after "
                f"{max_ticks} ticks"
            )
        return now
