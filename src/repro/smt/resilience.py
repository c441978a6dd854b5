"""Budget-escalating retry policy for UNKNOWN verdicts.

Budget exhaustion is a *normal* outcome of parameterized verification — the
paper's Table II is full of ``T.O`` entries — so the dispatcher treats
``UNKNOWN`` not as final but as "not with *this* budget".  A
:class:`RetryPolicy` says how many extra attempts to make; each attempt
doubles the budget of the one before (1x, 2x, 4x ...).

Escalation scales *both* budget axes a :class:`~repro.smt.dispatch.Query`
can carry — the wall-clock timeout and the deterministic conflict budget —
and caps the timeout at ``max_timeout`` so a pathological query cannot
escalate forever.  A query with no budget at all cannot return ``UNKNOWN``
for budget reasons, but is still retried on *infrastructure* failures
(injected or genuine solver exceptions), which the dispatcher also surfaces
as ``UNKNOWN``.

The default policy performs no retries, so a caller opts in through the
``policy`` of its :class:`~repro.smt.dispatch.SolveConfig` (the CLI's and
the server's ``--retries``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How UNKNOWN verdicts are retried under doubling budgets.

    Parameters
    ----------
    retries:
        Extra attempts after the first (0 = solve once, never retry).
    max_timeout:
        Cap (seconds) on the escalated per-query wall-clock budget.
    """
    retries: int = 0
    max_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    def budgets(self, timeout: float | None, conflict_budget: int | None,
                attempt: int) -> tuple[float | None, int | None]:
        """The (timeout, conflict budget) pair for 0-based ``attempt``:
        ``2 ** attempt`` times the first, the timeout clamped to
        ``max_timeout``."""
        m = 2 ** attempt
        scaled_timeout = timeout
        if timeout is not None:
            scaled_timeout = timeout * m
            if self.max_timeout is not None:
                scaled_timeout = min(scaled_timeout, self.max_timeout)
        scaled_conflicts = conflict_budget
        if conflict_budget is not None:
            scaled_conflicts = max(1, conflict_budget * m)
        return scaled_timeout, scaled_conflicts
