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
block reads for tight values.  The engine's reliability counters
(``engine.reliability``) and a query service's
(``QueryService.metrics_snapshot()``) are read directly, not through a
watcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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


class QuantileWatcher:
    """Standing quantile-threshold rules over one engine."""

    def __init__(self, engine: HybridQuantileEngine) -> None:
        self._engine = engine
        self._rules: Dict[str, MonitorRule] = {}

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
        """Unregister a rule by name."""
        del self._rules[name]

    @property
    def rules(self) -> List[MonitorRule]:
        """The currently registered rules."""
        return list(self._rules.values())

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
