"""Deterministic, seeded fault schedules.

A :class:`FaultPlan` decides, for every disk operation, whether the
operation fails and how.  The decision is a pure function of
``(seed, operation index)`` — no hidden RNG state — so a given plan
produces the same fault at the same operation no matter how many times
the scenario is replayed, and two engines driven through the same
operation sequence hit identical faults.  That is what makes every
failure scenario in the test suite and the crash-recovery harness
reproducible from a single integer seed.

Two scheduling styles compose:

* **rate-based**: each operation kind draws one uniform variate and
  compares it against the plan's rates (transient error, corruption,
  stall).  Rates of zero disable a fault class entirely — a plan with
  all rates zero is the *null plan*, which a
  :class:`~repro.storage.disk.SimulatedDisk` never consults.
* **pinned**: ``fail_at`` names exact ``(kind, index)`` pairs that must
  fault, for tests that need a failure at a precise structural point
  (e.g. "the write that persists step 7's partition").

``max_faults`` caps the total number of faults a disk will fire from
the plan, turning an aggressive rate into a bounded burst.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

#: decision labels a plan can return for one operation.
TRANSIENT = "transient"
CORRUPT = "corrupt"
STALL = "stall"

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired, for the plan transcript."""

    index: int
    op: str
    fault: str

    def as_dict(self) -> dict:
        return {"index": self.index, "op": self.op, "fault": self.fault}


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of disk faults.

    Parameters
    ----------
    seed:
        Seeds every per-operation draw; same seed, same schedule.
    read_error_rate, write_error_rate:
        Probability that a read / write operation raises a transient
        fault (:class:`~repro.faults.TransientReadError` /
        :class:`~repro.faults.TransientWriteError`).
    corrupt_rate:
        Probability that a read raises a persistent
        :class:`~repro.faults.CorruptedBlockError` (drawn after the
        transient band: the two are mutually exclusive per operation).
    stall_rate, stall_seconds:
        Probability that a write stalls, and for how long.  Stalls are
        latency only — the operation still succeeds.
    max_faults:
        Cap on the total number of faults (stalls included) the plan
        fires over a disk's lifetime; ``None`` means unbounded.
    fail_at:
        Exact ``(kind, index)`` pins that fault regardless of rates:
        kind is ``"read"`` or ``"write"``; the fault is transient.
    shard_scope:
        Cluster scoping: shard indices this plan applies to.  ``None``
        (the default) targets every shard.  :meth:`for_shard` derives
        each shard's own plan — out-of-scope shards get the null plan,
        in-scope shards an independently seeded sub-schedule.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.0
    max_faults: Optional[int] = None
    fail_at: FrozenSet[Tuple[str, int]] = field(default_factory=frozenset)
    shard_scope: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for name in (
            "read_error_rate", "write_error_rate",
            "corrupt_rate", "stall_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.read_error_rate + self.corrupt_rate > 1.0:
            raise ValueError("read_error_rate + corrupt_rate must be <= 1")
        if self.stall_seconds < 0.0:
            raise ValueError("stall_seconds must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0")
        # Normalize so plans hash/compare regardless of input container.
        object.__setattr__(
            self, "fail_at",
            frozenset((str(kind), int(index)) for kind, index in self.fail_at),
        )
        if self.shard_scope is not None:
            scope = tuple(sorted({int(s) for s in self.shard_scope}))
            if scope and scope[0] < 0:
                raise ValueError("shard_scope indices must be >= 0")
            object.__setattr__(self, "shard_scope", scope)

    @property
    def null(self) -> bool:
        """Whether this plan can never fire a fault."""
        return (
            self.read_error_rate == 0.0
            and self.write_error_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.stall_rate == 0.0
            and not self.fail_at
        ) or self.max_faults == 0

    def _draw(self, index: int) -> float:
        # One uniform variate per operation, keyed on (seed, index)
        # alone — deterministic, order-independent, and cheap.
        key = ((self.seed << 32) ^ (index * _MIX)) & (2**64 - 1)
        return random.Random(key).random()

    def decide(self, op: str, index: int) -> Optional[str]:
        """The fault (if any) for operation ``index`` of kind ``op``.

        Returns :data:`TRANSIENT`, :data:`CORRUPT`, :data:`STALL`, or
        ``None``.  Pure: callers (the disk) enforce ``max_faults``.
        """
        if (op, index) in self.fail_at:
            return TRANSIENT
        draw = self._draw(index)
        if op == "read":
            if draw < self.read_error_rate:
                return TRANSIENT
            if draw < self.read_error_rate + self.corrupt_rate:
                return CORRUPT
        elif op == "write":
            if draw < self.write_error_rate:
                return TRANSIENT
            if draw < self.write_error_rate + self.stall_rate:
                return STALL
        return None

    def for_shard(self, shard: int) -> "FaultPlan":
        """Derive shard ``shard``'s own plan from a cluster-level one.

        Out-of-scope shards receive the null plan (their disks stay
        operation-for-operation identical to a fault-free device).
        In-scope shards receive this plan reseeded with a per-shard
        mix, so the N shards draw independent schedules rather than
        faulting in lockstep at the same operation indices.
        """
        shard = int(shard)
        if shard < 0:
            raise ValueError("shard must be >= 0")
        if self.shard_scope is not None and shard not in self.shard_scope:
            return FaultPlan(seed=self.seed)
        derived = (self.seed ^ ((shard + 1) * _MIX)) & (2**63 - 1)
        return replace(self, seed=derived, shard_scope=None)

    # -- (de)serialization — the CLI's --fault-plan and CI artifacts --

    def to_json(self) -> str:
        """Serialize to the JSON shape ``from_spec`` accepts."""
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "fail_at"
        }
        payload["fail_at"] = sorted(list(pin) for pin in self.fail_at)
        if payload.get("shard_scope") is not None:
            payload["shard_scope"] = list(payload["shard_scope"])
        return json.dumps(payload, indent=2)

    @classmethod
    def from_spec(cls, spec: "str | dict | Path") -> "FaultPlan":
        """Build a plan from a JSON string, a dict, or a JSON file path.

        The CLI's ``--fault-plan`` accepts either inline JSON
        (``'{"seed": 7, "read_error_rate": 0.05}'``) or the path of a
        file holding the same document.
        """
        if isinstance(spec, Path):
            spec = spec.read_text(encoding="utf-8")
        if isinstance(spec, str):
            text = spec.strip()
            if not text.startswith("{"):
                path = Path(text)
                if not path.exists():
                    raise ValueError(f"fault plan file not found: {text}")
                text = path.read_text(encoding="utf-8")
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"garbled fault plan: {exc}") from exc
        if not isinstance(spec, dict):
            raise ValueError("fault plan spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        kwargs = dict(spec)
        if "fail_at" in kwargs:
            kwargs["fail_at"] = frozenset(
                (str(kind), int(index)) for kind, index in kwargs["fail_at"]
            )
        return cls(**kwargs)
