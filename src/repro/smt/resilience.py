"""Budget-escalating retry policy for UNKNOWN verdicts.

Budget exhaustion is a *normal* outcome of parameterized verification — the
paper's Table II is full of ``T.O`` entries — so the dispatcher treats
``UNKNOWN`` not as final but as "not with *this* budget".  A
:class:`RetryPolicy` describes how to try again: how many extra attempts,
and how the per-attempt budget grows — geometrically (2x, 4x, 8x ...) or
following the Luby sequence (1, 1, 2, 1, 1, 2, 4 ...; reusing
:func:`repro.smt.sat.luby.luby`), the universal restart strategy that is
within a constant factor of optimal when the "right" budget is unknown.

Escalation scales *both* budget axes a :class:`~repro.smt.dispatch.Query`
can carry — the wall-clock timeout and the deterministic conflict budget —
and caps them at ``max_timeout`` / ``max_conflicts`` so a pathological
query cannot escalate forever.  A query with no budget at all cannot
return ``UNKNOWN`` for budget reasons, but is still retried on
*infrastructure* failures (injected or genuine solver exceptions), which
the dispatcher also surfaces as ``UNKNOWN``.

The default policy performs no retries, so a caller opts in through the
``policy`` of its :class:`~repro.smt.dispatch.SolveConfig` (the CLI's and
the server's ``--retries``/``--escalation``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .sat.luby import luby

__all__ = ["ESCALATIONS", "RetryPolicy"]

#: The recognised escalation schedules.
ESCALATIONS = ("geometric", "luby")


@dataclass(frozen=True)
class RetryPolicy:
    """How UNKNOWN verdicts are retried under growing budgets.

    Parameters
    ----------
    retries:
        Extra attempts after the first (0 = solve once, never retry).
    escalation:
        ``"geometric"`` multiplies the budget by ``factor`` each attempt;
        ``"luby"`` follows the Luby sequence (attempt ``i`` gets
        ``luby(i + 1)`` times the base budget).
    factor:
        The geometric growth base.
    max_timeout:
        Cap (seconds) on the escalated per-query wall-clock budget.
    max_conflicts:
        Cap on the escalated conflict budget.
    """
    retries: int = 0
    escalation: str = "geometric"
    factor: float = 2.0
    max_timeout: float | None = None
    max_conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.escalation not in ESCALATIONS:
            raise ValueError(
                f"unknown escalation {self.escalation!r}; "
                f"expected one of {ESCALATIONS}")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    def multiplier(self, attempt: int) -> float:
        """The budget multiplier of 0-based ``attempt``."""
        if attempt <= 0:
            return 1.0
        if self.escalation == "luby":
            return float(luby(attempt + 1))
        return self.factor ** attempt

    def budgets(self, timeout: float | None, conflict_budget: int | None,
                attempt: int) -> tuple[float | None, int | None]:
        """The (timeout, conflict budget) pair for ``attempt``, scaled by
        the schedule and clamped to the policy's caps."""
        m = self.multiplier(attempt)
        scaled_timeout = timeout
        if timeout is not None:
            scaled_timeout = timeout * m
            if self.max_timeout is not None:
                scaled_timeout = min(scaled_timeout, self.max_timeout)
        scaled_conflicts = conflict_budget
        if conflict_budget is not None:
            scaled_conflicts = max(1, int(conflict_budget * m))
            if self.max_conflicts is not None:
                scaled_conflicts = min(scaled_conflicts, self.max_conflicts)
        return scaled_timeout, scaled_conflicts

