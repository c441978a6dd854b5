"""Admission control: per-tenant wall-clock quotas over a sliding window.

A tenant's requests are admitted against the seconds they may spend per
window.  A request is charged its *worst case up front*: the sum of every
escalated timeout the retry policy
(:meth:`repro.smt.resilience.RetryPolicy.budgets`) could spend if the
solver answered UNKNOWN all the way down the retry ladder.  When the check
settles, the reservation is refunded down to the response's ``elapsed``,
so a fast verified answer costs what it used, not what it could have used.

Rejection is honest degradation: an over-quota request surfaces as HTTP
429 (a JSONL ``error``), is never solved, never cached, and never turned
into a verdict — the contract that the server may refuse work but must
not answer wrongly.

The ledger is a plain in-process object guarded by one lock; the clock is
injectable so tests replay window expiry deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..smt.resilience import RetryPolicy

__all__ = ["QuotaExceeded", "Charge", "QuotaLedger", "worst_case_charge"]


class QuotaExceeded(Exception):
    """The tenant's window allowance cannot cover this request."""

    def __init__(self, tenant: str, axis: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} exhausted its {axis} quota; "
            f"retry after {retry_after:.1f}s")
        self.tenant = tenant
        self.axis = axis
        self.retry_after = retry_after


@dataclass
class Charge:
    """One admitted request's reserved budget (a ticket for settlement)."""
    tenant: str
    seconds: float
    window_start: float = 0.0
    settled: bool = False


def worst_case_charge(timeout: float, policy: RetryPolicy) -> float:
    """The seconds a request could spend across every escalated retry
    attempt — the amount reserved at admission."""
    return sum(policy.budgets(timeout, None, attempt)[0]
               for attempt in range(policy.retries + 1))


@dataclass
class _Bucket:
    window_start: float
    seconds_used: float = 0.0
    inflight: int = 0


@dataclass
class QuotaLedger:
    """Per-tenant sliding-window budget accounting.

    ``seconds_per_window`` caps what one tenant may reserve inside any
    ``window``-second span; ``max_inflight`` caps concurrency regardless
    of budget.  ``None`` disables either.
    """
    seconds_per_window: float | None = None
    window: float = 60.0
    max_inflight: int | None = None
    clock: object = time.monotonic
    _mu: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _buckets: dict = field(default_factory=dict, repr=False)

    def _bucket(self, tenant: str, now: float) -> _Bucket:
        bucket = self._buckets.get(tenant)
        if bucket is None or now - bucket.window_start >= self.window:
            inflight = bucket.inflight if bucket is not None else 0
            bucket = _Bucket(window_start=now, inflight=inflight)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, timeout: float,
              policy: RetryPolicy) -> Charge:
        """Reserve the request's worst-case budget or raise
        :class:`QuotaExceeded` — nothing is ever partially admitted."""
        seconds = worst_case_charge(timeout, policy)
        now = float(self.clock())
        with self._mu:
            bucket = self._bucket(tenant, now)
            retry_after = self.window - (now - bucket.window_start)
            if self.max_inflight is not None and \
                    bucket.inflight >= self.max_inflight:
                raise QuotaExceeded(tenant, "concurrency", retry_after)
            if self.seconds_per_window is not None and \
                    bucket.seconds_used + seconds > self.seconds_per_window:
                raise QuotaExceeded(tenant, "wall-clock", retry_after)
            bucket.seconds_used += seconds
            bucket.inflight += 1
            return Charge(tenant=tenant, seconds=seconds,
                          window_start=bucket.window_start)

    def settle(self, charge: Charge, seconds_spent: float = 0.0) -> None:
        """Release the reservation, keeping only what was actually spent.

        Settling is idempotent; the refund never exceeds the reservation
        (an over-budget solve still only costs its charge) and applies
        only while the charge's own admission window is still current — a
        refund into a fresh window would mint negative usage.
        """
        if charge.settled:
            return
        charge.settled = True
        with self._mu:
            bucket = self._buckets.get(charge.tenant)
            if bucket is None:
                return
            bucket.inflight = max(0, bucket.inflight - 1)
            if bucket.window_start != charge.window_start:
                return  # the reservation's window already turned over
            refund = max(0.0, charge.seconds - max(0.0, seconds_spent))
            bucket.seconds_used = max(0.0, bucket.seconds_used - refund)
