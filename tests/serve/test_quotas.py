"""Quota-ledger unit tests with an injectable clock: worst-case
escalated charges, refund-on-settle, window turnover, and the
concurrency gate."""

import pytest

from repro.serve.quotas import (
    QuotaExceeded, QuotaLedger, worst_case_charge,
)
from repro.smt.resilience import RetryPolicy


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestWorstCaseCharge:
    def test_no_retries_charges_the_timeout(self):
        assert worst_case_charge(10.0, RetryPolicy()) == 10.0

    def test_geometric_retries_sum_escalated_budgets(self):
        policy = RetryPolicy(retries=2)
        # attempts at 1x, 2x, 4x the base timeout
        assert worst_case_charge(10.0, policy) == pytest.approx(70.0)

    def test_max_timeout_caps_each_attempt(self):
        policy = RetryPolicy(retries=2, max_timeout=15.0)
        assert worst_case_charge(10.0, policy) == pytest.approx(
            10.0 + 15.0 + 15.0)


class TestAdmission:
    def test_over_budget_rejects_with_retry_after(self):
        clock = Clock()
        ledger = QuotaLedger(seconds_per_window=25.0, window=60.0,
                             clock=clock)
        ledger.admit("t", 20.0, RetryPolicy())
        with pytest.raises(QuotaExceeded) as err:
            ledger.admit("t", 20.0, RetryPolicy())
        assert err.value.axis == "wall-clock"
        assert 0 < err.value.retry_after <= 60.0

    def test_tenants_are_isolated(self):
        ledger = QuotaLedger(seconds_per_window=25.0, clock=Clock())
        ledger.admit("a", 20.0, RetryPolicy())
        ledger.admit("b", 20.0, RetryPolicy())  # no interference

    def test_settle_refunds_unused_budget(self):
        clock = Clock()
        ledger = QuotaLedger(seconds_per_window=25.0, window=60.0,
                             clock=clock)
        charge = ledger.admit("t", 20.0, RetryPolicy())
        ledger.settle(charge, seconds_spent=1.5)
        # 1.5 s of the 25 s window stay used
        with pytest.raises(QuotaExceeded):
            ledger.admit("t", 23.6, RetryPolicy())
        ledger.admit("t", 23.5, RetryPolicy())

    def test_settle_is_idempotent(self):
        clock = Clock()
        ledger = QuotaLedger(seconds_per_window=25.0, clock=clock)
        charge = ledger.admit("t", 20.0, RetryPolicy())
        ledger.settle(charge, seconds_spent=5.0)
        ledger.settle(charge, seconds_spent=0.0)  # no double refund
        with pytest.raises(QuotaExceeded):
            ledger.admit("t", 20.1, RetryPolicy())
        ledger.admit("t", 20.0, RetryPolicy())

    def test_window_turnover_resets_the_budget(self):
        clock = Clock()
        ledger = QuotaLedger(seconds_per_window=25.0, window=60.0,
                             clock=clock)
        charge = ledger.admit("t", 20.0, RetryPolicy())
        with pytest.raises(QuotaExceeded):
            ledger.admit("t", 20.0, RetryPolicy())
        clock.now = 61.0
        ledger.admit("t", 20.0, RetryPolicy())  # fresh window
        # settling the old charge must not mint negative usage
        ledger.settle(charge, seconds_spent=0.0)
        with pytest.raises(QuotaExceeded):
            ledger.admit("t", 5.1, RetryPolicy())

    def test_max_inflight_gates_concurrency(self):
        ledger = QuotaLedger(max_inflight=2, clock=Clock())
        charges = [ledger.admit("t", 5.0, RetryPolicy())
                   for _ in range(2)]
        with pytest.raises(QuotaExceeded) as err:
            ledger.admit("t", 5.0, RetryPolicy())
        assert err.value.axis == "concurrency"
        ledger.settle(charges[0])
        ledger.admit("t", 5.0, RetryPolicy())  # slot freed

    def test_inflight_survives_window_turnover(self):
        clock = Clock()
        ledger = QuotaLedger(max_inflight=1, window=60.0, clock=clock)
        ledger.admit("t", 5.0, RetryPolicy())
        clock.now = 61.0  # budget resets, concurrency does not
        with pytest.raises(QuotaExceeded):
            ledger.admit("t", 5.0, RetryPolicy())

    def test_unlimited_ledger_admits_everything(self):
        ledger = QuotaLedger(clock=Clock())
        for _ in range(50):
            ledger.admit("t", 3600.0, RetryPolicy(retries=3))
