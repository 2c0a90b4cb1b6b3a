"""Quantile monitors: the real-time alerting use case.

The paper's introduction motivates quantiles with latency monitoring —
"the 0.95-quantile and 0.99-quantile are used to get a detailed
insight on the performance that most users experience" — inside DSMSes
that "provide support for real-time alerting".  A
:class:`QuantileWatcher` holds standing threshold rules and evaluates
them all against one consistent snapshot per call, so a burst of
alerts always describes a single instant of the data.

Quick-mode evaluation costs no disk access at all, making per-arrival
or per-step evaluation essentially free; accurate mode spends a few
block reads for tight values.

Besides value thresholds, a watcher can hold *health* rules
(:meth:`QuantileWatcher.watch_health`) over the engine's reliability
counters — disk faults, fault retries, degraded queries — so an
operator learns when the fault-tolerance machinery is absorbing
trouble (retries climbing) or giving ground (accurate queries
degrading to quick answers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults.health import ReliabilityReport
from .engine import HybridQuantileEngine


@dataclass(frozen=True)
class MonitorRule:
    """One standing threshold on a quantile."""

    name: str
    phi: float
    threshold: int
    direction: str  # "above" or "below"
    mode: str = "quick"

    def __post_init__(self) -> None:
        if not 0 < self.phi <= 1:
            raise ValueError("phi must be in (0, 1]")
        if self.direction not in ("above", "below"):
            raise ValueError("direction must be 'above' or 'below'")
        if self.mode not in ("quick", "accurate"):
            raise ValueError("mode must be 'quick' or 'accurate'")

    def triggered_by(self, value: int) -> bool:
        """Whether an observed value fires this rule."""
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold


@dataclass(frozen=True)
class QuantileAlert:
    """One firing of a monitor rule.

    ``degraded`` marks an observation answered by the quick-response
    fallback after probe retries were exhausted — the alert is genuine
    but its value carries the wider quick error bound.
    """

    rule: MonitorRule
    observed: int
    total_size: int
    at_step: int
    degraded: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.rule.name}] phi={self.rule.phi} observed "
            f"{self.observed} {self.rule.direction} threshold "
            f"{self.rule.threshold} (N={self.total_size}, "
            f"step {self.at_step}"
            + (", degraded" if self.degraded else "")
            + ")"
        )


@dataclass(frozen=True)
class HealthRule:
    """Standing thresholds on the engine's reliability counters.

    Each ``max_*`` bound is inclusive: the rule fires once the
    corresponding lifetime counter *exceeds* it.  At least one bound
    must be set.
    """

    name: str
    max_disk_faults: Optional[int] = None
    max_retries: Optional[int] = None
    max_degraded_queries: Optional[int] = None

    def __post_init__(self) -> None:
        bounds = (
            self.max_disk_faults,
            self.max_retries,
            self.max_degraded_queries,
        )
        if all(bound is None for bound in bounds):
            raise ValueError("set at least one max_* bound")
        for bound in bounds:
            if bound is not None and bound < 0:
                raise ValueError("bounds must be >= 0")

    def breaches(self, report: ReliabilityReport) -> "Tuple[str, ...]":
        """Names of the counters exceeding their bound, if any."""
        breached = []
        if (self.max_disk_faults is not None
                and report.disk_faults > self.max_disk_faults):
            breached.append("disk_faults")
        if (self.max_retries is not None
                and report.total_retries > self.max_retries):
            breached.append("retries")
        if (self.max_degraded_queries is not None
                and report.degraded_queries > self.max_degraded_queries):
            breached.append("degraded_queries")
        return tuple(breached)


@dataclass(frozen=True)
class ReliabilityAlert:
    """One firing of a health rule."""

    rule: HealthRule
    report: ReliabilityReport
    at_step: int
    breaches: "Tuple[str, ...]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.rule.name}] reliability breach "
            f"({', '.join(self.breaches)}): {self.report} "
            f"(step {self.at_step})"
        )


@dataclass(frozen=True)
class ServiceRule:
    """Standing thresholds on a query service's health numbers.

    Evaluated against any object shaped like
    :class:`~repro.serving.metrics.MetricsSnapshot` (duck-typed:
    ``queue_depth``, ``rejections``, ``p99(mode)``), so the monitoring
    layer needs no dependency on :mod:`repro.serving`.  At least one
    bound must be set; every bound is inclusive (the rule fires on
    *exceeding* it).
    """

    name: str
    max_queue_depth: Optional[int] = None
    max_p99_seconds: Optional[float] = None
    max_rejections: Optional[int] = None
    mode: str = "quick"

    def __post_init__(self) -> None:
        bounds = (
            self.max_queue_depth,
            self.max_p99_seconds,
            self.max_rejections,
        )
        if all(bound is None for bound in bounds):
            raise ValueError("set at least one max_* bound")
        for bound in bounds:
            if bound is not None and bound < 0:
                raise ValueError("bounds must be >= 0")
        if self.mode not in ("quick", "accurate"):
            raise ValueError("mode must be 'quick' or 'accurate'")

    def breaches(self, snapshot: Any) -> "Tuple[str, ...]":
        """Names of the service numbers exceeding their bound."""
        breached = []
        if (self.max_queue_depth is not None
                and snapshot.queue_depth > self.max_queue_depth):
            breached.append("queue_depth")
        if (self.max_p99_seconds is not None
                and snapshot.p99(self.mode) > self.max_p99_seconds):
            breached.append("p99")
        if (self.max_rejections is not None
                and snapshot.rejections > self.max_rejections):
            breached.append("rejections")
        return tuple(breached)


@dataclass(frozen=True)
class ServiceAlert:
    """One firing of a service rule."""

    rule: ServiceRule
    queue_depth: int
    p99_seconds: float
    rejections: int
    breaches: "Tuple[str, ...]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.rule.name}] service breach "
            f"({', '.join(self.breaches)}): depth={self.queue_depth}, "
            f"p99={self.p99_seconds * 1e3:.1f}ms, "
            f"rejections={self.rejections}"
        )


class QuantileWatcher:
    """Standing quantile-threshold rules over one engine."""

    def __init__(self, engine: HybridQuantileEngine) -> None:
        self._engine = engine
        self._rules: Dict[str, MonitorRule] = {}
        self._health_rules: Dict[str, HealthRule] = {}
        self._service_rules: Dict[
            str, "Tuple[ServiceRule, Callable[[], Any]]"
        ] = {}

    def add(
        self,
        name: str,
        phi: float,
        above: Optional[int] = None,
        below: Optional[int] = None,
        mode: str = "quick",
    ) -> MonitorRule:
        """Register a rule; exactly one of ``above``/``below`` required."""
        if (above is None) == (below is None):
            raise ValueError("pass exactly one of above/below")
        if name in self._rules:
            raise ValueError(f"duplicate monitor name {name!r}")
        rule = MonitorRule(
            name=name,
            phi=phi,
            threshold=above if above is not None else below,
            direction="above" if above is not None else "below",
            mode=mode,
        )
        self._rules[name] = rule
        return rule

    def remove(self, name: str) -> None:
        """Unregister a rule (quantile, health, or service) by name."""
        if name in self._rules:
            del self._rules[name]
        elif name in self._health_rules:
            del self._health_rules[name]
        elif name in self._service_rules:
            del self._service_rules[name]
        else:
            raise KeyError(name)

    @property
    def rules(self) -> List[MonitorRule]:
        """The currently registered quantile rules."""
        return list(self._rules.values())

    @property
    def health_rules(self) -> List[HealthRule]:
        """The currently registered health rules."""
        return list(self._health_rules.values())

    def watch_health(
        self,
        name: str,
        max_disk_faults: Optional[int] = None,
        max_retries: Optional[int] = None,
        max_degraded_queries: Optional[int] = None,
    ) -> HealthRule:
        """Register a standing rule over the reliability counters."""
        if (name in self._rules or name in self._health_rules
                or name in self._service_rules):
            raise ValueError(f"duplicate monitor name {name!r}")
        rule = HealthRule(
            name=name,
            max_disk_faults=max_disk_faults,
            max_retries=max_retries,
            max_degraded_queries=max_degraded_queries,
        )
        self._health_rules[name] = rule
        return rule

    @property
    def service_rules(self) -> List[ServiceRule]:
        """The currently registered service rules."""
        return [rule for rule, _ in self._service_rules.values()]

    def watch_service(
        self,
        name: str,
        snapshot_source: "Callable[[], Any]",
        max_queue_depth: Optional[int] = None,
        max_p99_seconds: Optional[float] = None,
        max_rejections: Optional[int] = None,
        mode: str = "quick",
    ) -> ServiceRule:
        """Register a standing rule over a query service's metrics.

        ``snapshot_source`` is any zero-argument callable returning an
        object shaped like :class:`~repro.serving.metrics.
        MetricsSnapshot` — typically ``service.metrics_snapshot``.
        """
        if (name in self._rules or name in self._health_rules
                or name in self._service_rules):
            raise ValueError(f"duplicate monitor name {name!r}")
        rule = ServiceRule(
            name=name,
            max_queue_depth=max_queue_depth,
            max_p99_seconds=max_p99_seconds,
            max_rejections=max_rejections,
            mode=mode,
        )
        self._service_rules[name] = (rule, snapshot_source)
        return rule

    def check_service(self) -> List[ServiceAlert]:
        """Evaluate every service rule against its source's snapshot."""
        alerts = []
        for rule, source in self._service_rules.values():
            snapshot = source()
            breached = rule.breaches(snapshot)
            if breached:
                alerts.append(
                    ServiceAlert(
                        rule=rule,
                        queue_depth=snapshot.queue_depth,
                        p99_seconds=snapshot.p99(rule.mode),
                        rejections=snapshot.rejections,
                        breaches=breached,
                    )
                )
        return alerts

    def check_health(self) -> List[ReliabilityAlert]:
        """Evaluate every health rule against the engine's lifetime
        reliability counters (one consistent report for all rules)."""
        if not self._health_rules:
            return []
        report = self._engine.reliability
        step = self._engine.steps_sealed
        alerts = []
        for rule in self._health_rules.values():
            breached = rule.breaches(report)
            if breached:
                alerts.append(
                    ReliabilityAlert(
                        rule=rule,
                        report=report,
                        at_step=step,
                        breaches=breached,
                    )
                )
        return alerts

    def evaluate(self) -> List[QuantileAlert]:
        """Check every rule against one consistent snapshot."""
        if not self._rules or self._engine.n_total == 0:
            return []
        alerts = []
        with self._engine.pin() as view:
            for rule in self._rules.values():
                result = view.quantile(rule.phi, mode=rule.mode)
                if rule.triggered_by(result.value):
                    alerts.append(
                        QuantileAlert(
                            rule=rule,
                            observed=result.value,
                            total_size=result.total_size,
                            at_step=view.created_at_step,
                            degraded=result.degraded,
                        )
                    )
        return alerts
