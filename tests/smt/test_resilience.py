"""The resilient solving runtime: retry policies, fault survival, and the
worker-crash degradation ladder.

The dispatcher's contract under faults is one-sided: a faulted run answers
the fault-free verdict or UNKNOWN — never a wrong verdict, never an
unhandled exception.  These tests inject every fault class and check that
contract, plus the ISSUE acceptance case: an UNKNOWN on the default budget
recovered by deterministic conflict-budget escalation.
"""

import pytest

from repro.smt import (
    BVConst, BVVar, CheckResult, Distinct, Eq, FaultPlan, Query, QueryCache,
    RetryPolicy, SolveConfig, ULt, UGt, faults, solve_all, solve_query,
)
from repro.smt import dispatch

# Caching off, so every call really solves.
SERIAL = SolveConfig(cache=False)
PARALLEL = SolveConfig(jobs=2, cache=False)


# --------------------------------------------------------------- queries


def _pigeonhole_query(conflict_budget=None):
    """6 pigeons, 5 holes: UNSAT, and deterministically needs ~370 CDCL
    conflicts — comfortably past the solver's first restart interval, so a
    small conflict budget yields UNKNOWN."""
    vs = [BVVar(f"php.{i}", 3) for i in range(6)]
    return Query([Distinct(*vs)] + [ULt(v, BVConst(5, 3)) for v in vs],
                 conflict_budget=conflict_budget, do_simplify=False)


def _easy_queries():
    """A small mixed batch with known verdicts (solved in milliseconds)."""
    x, y = BVVar("ez.x", 16), BVVar("ez.y", 16)
    return [
        Query([Eq(x * y, BVConst(143, 16)), UGt(x, BVConst(1, 16)),
               UGt(y, BVConst(1, 16))], do_simplify=False),
        Query([Eq(x + y, BVConst(7, 16))], do_simplify=False),
        Query([ULt(x, BVConst(4, 16)), UGt(x, BVConst(9, 16))],
              do_simplify=False),
    ]


_EASY_VERDICTS = [CheckResult.SAT, CheckResult.SAT, CheckResult.UNSAT]


# ----------------------------------------------------------- RetryPolicy


class TestRetryPolicy:
    def test_geometric_schedule(self):
        p = RetryPolicy(retries=3, escalation="geometric", factor=2.0)
        assert [p.multiplier(a) for a in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_luby_schedule(self):
        p = RetryPolicy(retries=6, escalation="luby")
        assert [p.multiplier(a) for a in range(7)] == \
            [1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0]

    def test_budgets_scale_both_axes(self):
        p = RetryPolicy(retries=2)
        assert p.budgets(1.5, 100, 1) == (3.0, 200)
        assert p.budgets(None, 100, 1) == (None, 200)
        assert p.budgets(1.5, None, 2) == (6.0, None)

    def test_budgets_respect_caps(self):
        p = RetryPolicy(retries=8, max_timeout=4.0, max_conflicts=300)
        assert p.budgets(1.0, 100, 5) == (4.0, 300)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RetryPolicy(escalation="frantic")
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)



# ------------------------------------------------- escalation acceptance


class TestEscalationRecovery:
    def test_unknown_on_default_budget_recovered(self):
        """The ISSUE acceptance case, deterministic via conflict budgets:
        budget 50 is exhausted (UNKNOWN), geometric escalation reaches a
        sufficient budget and recovers the real verdict."""
        starved = solve_query(_pigeonhole_query(50), config=SERIAL)
        assert starved.verdict is CheckResult.UNKNOWN

        result = solve_query(_pigeonhole_query(50), SolveConfig(
            cache=False, policy=RetryPolicy(retries=4)))
        assert result.verdict is CheckResult.UNSAT
        res = result.stats["resilience"]
        assert res["recovered"] is True
        attempts = res["attempts"]
        assert len(attempts) >= 2
        assert attempts[0]["verdict"] == "unknown"
        assert attempts[0]["conflict_budget"] == 50
        assert attempts[-1]["verdict"] == "unsat"
        # the schedule actually escalated
        budgets = [a["conflict_budget"] for a in attempts]
        assert budgets == sorted(budgets) and budgets[-1] > budgets[0]

    def test_retries_exhausted_stays_unknown(self):
        result = solve_query(_pigeonhole_query(1), SolveConfig(
            cache=False, policy=RetryPolicy(retries=1)))
        assert result.verdict is CheckResult.UNKNOWN
        assert len(result.stats["resilience"]["attempts"]) == 2

    def test_no_retry_without_policy(self):
        result = solve_query(_pigeonhole_query(50), config=SERIAL)
        assert result.verdict is CheckResult.UNKNOWN
        assert "resilience" not in result.stats

    def test_unknown_never_cached_across_retries(self):
        cache = QueryCache()
        result = solve_query(_pigeonhole_query(1), SolveConfig(
            cache=cache, policy=RetryPolicy(retries=1)))
        assert result.verdict is CheckResult.UNKNOWN
        assert len(cache) == 0
        # and the recovered verdict IS cached
        result = solve_query(_pigeonhole_query(50), SolveConfig(
            cache=cache, policy=RetryPolicy(retries=4)))
        assert result.verdict is CheckResult.UNSAT
        assert len(cache) == 1


# ------------------------------------------------------ fault containment


class TestSolverExceptionFaults:
    def test_exception_becomes_unknown(self):
        with faults.injected(FaultPlan(seed=3, solver_exception=1.0)):
            result = solve_query(_easy_queries()[0], config=SERIAL)
        assert result.verdict is CheckResult.UNKNOWN
        assert "InjectedFault" in result.stats["error"]

    def test_batch_never_wrong_under_exceptions(self):
        baseline = [r.verdict for r in
                    solve_all(_easy_queries(), config=SERIAL)]
        assert baseline == _EASY_VERDICTS
        for seed in range(5):
            with faults.injected(FaultPlan(seed=seed,
                                           solver_exception=0.5)):
                got = [r.verdict for r in
                       solve_all(_easy_queries(), config=SERIAL)]
            for g, b in zip(got, baseline):
                assert g is b or g is CheckResult.UNKNOWN

    def test_transient_exception_recovered_by_retry(self):
        plan = FaultPlan(seed=3, solver_exception=1.0, max_triggers=1)
        with faults.injected(plan):
            result = solve_query(_easy_queries()[0], SolveConfig(
                cache=False, policy=RetryPolicy(retries=2)))
        assert result.verdict is CheckResult.SAT
        res = result.stats["resilience"]
        assert res["recovered"] is True
        assert "error" in res["attempts"][0]


class TestDelayFaults:
    def test_delays_never_change_verdicts(self):
        with faults.injected(FaultPlan(seed=8, delay=1.0,
                                       delay_seconds=0.001)):
            got = [r.verdict for r in
                   solve_all(_easy_queries(), config=SERIAL)]
        assert got == _EASY_VERDICTS


# ------------------------------------------------- worker-crash recovery


@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_dead_worker_run_matches_serial(self, monkeypatch):
        """The ISSUE acceptance case: a jobs=2 run whose workers crash
        produces verdicts identical to the serial fault-free run."""
        monkeypatch.setattr(dispatch, "POOL_BACKOFF", 0.01)
        serial = [r.verdict for r in
                  solve_all(_easy_queries(), config=SERIAL)]
        with faults.injected(FaultPlan(seed=5, worker_crash=0.6)):
            crashed = [r.verdict for r in
                       solve_all(_easy_queries(), config=PARALLEL)]
        assert crashed == serial

    def test_total_crash_degrades_to_serial(self, monkeypatch):
        """Crash probability 1.0 kills every pool; the degradation ladder
        bottoms out at in-process solving and still answers correctly."""
        monkeypatch.setattr(dispatch, "POOL_BACKOFF", 0.01)
        with faults.injected(FaultPlan(seed=5, worker_crash=1.0)):
            results = solve_all(_easy_queries(), config=PARALLEL)
        assert [r.verdict for r in results] == _EASY_VERDICTS
        pool = results[0].stats["resilience"]["pool"]
        assert pool["degraded"] is True
        assert pool["worker_restarts"] >= 1


# ----------------------------------------------------- jobs hardening


class TestWorkerInit:
    def test_sigint_ignored_in_workers(self):
        """The worker initializer makes Ctrl-C parent-only: SIGINT is
        ignored so teardown happens via the pool, not via tracebacks."""
        import signal
        from repro.smt.dispatch import _worker_init
        previous = signal.getsignal(signal.SIGINT)
        try:
            _worker_init(None)
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_rlimit_env_parsing(self, monkeypatch):
        from repro.smt.dispatch import _worker_rlimit_mb
        monkeypatch.delenv("PUGPARA_WORKER_RLIMIT_MB", raising=False)
        assert _worker_rlimit_mb() is None
        monkeypatch.setenv("PUGPARA_WORKER_RLIMIT_MB", "512")
        assert _worker_rlimit_mb() == 512
        monkeypatch.setenv("PUGPARA_WORKER_RLIMIT_MB", "plenty")
        assert _worker_rlimit_mb() is None
        monkeypatch.setenv("PUGPARA_WORKER_RLIMIT_MB", "-1")
        assert _worker_rlimit_mb() is None


class TestDefaultJobsHardening:
    """``PUGPARA_JOBS`` is read by ``SolveConfig.from_env`` alone."""

    def test_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("PUGPARA_JOBS", "lots")
        with pytest.warns(RuntimeWarning, match="'lots'.*falling back to 1"):
            assert SolveConfig.from_env().jobs == 1

    def test_rejects_non_positive(self, monkeypatch):
        for raw in ("0", "-3"):
            monkeypatch.setenv("PUGPARA_JOBS", raw)
            with pytest.warns(RuntimeWarning, match="positive"):
                assert SolveConfig.from_env().jobs == 1

    def test_accepts_valid(self, monkeypatch):
        monkeypatch.setenv("PUGPARA_JOBS", "4")
        assert SolveConfig.from_env().jobs == 4
        # An explicit field wins over the environment without reading it.
        monkeypatch.setenv("PUGPARA_JOBS", "lots")
        assert SolveConfig.from_env(jobs=2).jobs == 2

    def test_explicit_jobs_must_be_positive(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                SolveConfig(jobs=jobs)
