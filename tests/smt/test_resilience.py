"""The resilient solving runtime: one solve per query under its own
budget, fault survival, and the worker-crash degradation ladder.

The dispatcher's contract under faults is one-sided: a faulted run answers
the fault-free verdict or UNKNOWN — never a wrong verdict, never an
unhandled exception.  These tests inject every fault class and check that
contract.
"""

import concurrent.futures
import multiprocessing

import pytest

from repro.check.request import CheckRequest, run_check
from repro.check.result import Verdict
from repro.kernels import KERNELS
from repro.smt import (
    BVConst, BVVar, CheckResult, Distinct, Eq, FaultPlan, Query, QueryCache,
    SolveConfig, ULt, UGt, faults, solve_all, solve_query,
    solve_stream,
)
from repro.smt import dispatch
from repro.smt.dispatch import worker_init

# Caching off, so every call really solves.
SERIAL = SolveConfig(cache=False)
PARALLEL = SolveConfig(jobs=2, cache=False)


# --------------------------------------------------------------- queries


def _pigeonhole_query(conflict_budget=None, pigeons=6):
    """6 pigeons, 5 holes: UNSAT, and deterministically needs ~370 CDCL
    conflicts — comfortably past the solver's first restart interval, so a
    small conflict budget yields UNKNOWN."""
    vs = [BVVar(f"php.{i}", 3) for i in range(pigeons)]
    holes = BVConst(pigeons - 1, 3)
    return Query([Distinct(*vs)] + [ULt(v, holes) for v in vs],
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


# ------------------------------------------------------ budget starvation


class TestBudgetStarvation:
    def test_starved_query_is_unknown_and_solved_once(self, monkeypatch):
        """A conflict budget too small for the query leaves it UNKNOWN
        after one solve at that budget: the dispatcher never raises it."""
        calls = []
        real = dispatch._solve

        def recording(work, key, timeout, conflict_budget, *args, **kw):
            calls.append(conflict_budget)
            return real(work, key, timeout, conflict_budget, *args, **kw)
        monkeypatch.setattr(dispatch, "_solve", recording)
        result = solve_query(_pigeonhole_query(50), config=SERIAL)
        assert result.verdict is CheckResult.UNKNOWN
        assert result.error is None
        assert "resilience" not in result.stats
        assert result.stats["solver"]["budget_conflicts"] == 1
        assert calls == [50]

    def test_unknown_never_cached(self):
        cache = QueryCache()
        result = solve_query(_pigeonhole_query(1), SolveConfig(cache=cache))
        assert result.verdict is CheckResult.UNKNOWN
        assert len(cache) == 0
        # and a decided verdict IS cached
        result = solve_query(_pigeonhole_query(None), SolveConfig(
            cache=cache))
        assert result.verdict is CheckResult.UNSAT
        assert len(cache) == 1


# ------------------------------------------------------ fault containment


class TestSolverExceptionFaults:
    def test_exception_becomes_unknown(self):
        with faults.injected(FaultPlan(seed=3, solver_exception=1.0)):
            result = solve_query(_easy_queries()[0], config=SERIAL)
        assert result.verdict is CheckResult.UNKNOWN
        assert "InjectedFault" in result.error
        assert result.stats["resilience"] == {"errors": 1}

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
        pool = results[0].stats["resilience"]
        assert pool["degraded"] == 1
        assert pool["worker_restarts"] >= 1


@pytest.fixture
def pools_built(monkeypatch):
    """Counts the worker pools the dispatcher constructs."""
    built = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(dispatch, "ProcessPoolExecutor", Counting)
    return built


@pytest.mark.slow
class TestOnePoolPerCall:
    def test_solver_error_is_unknown_at_any_job_count(self):
        """A solver exception, in-process or on a pool worker, ends the
        race check UNKNOWN with the error as its reason."""
        req = CheckRequest(command="races",
                           source=KERNELS["optimizedTranspose"].source,
                           width=4, pair="Transpose", cbdim=(2, 2, 1),
                           cgdim=(2, 2), timeout=120)
        for jobs in (1, 2):
            with faults.injected(FaultPlan(seed=4, solver_exception=1.0,
                                           max_triggers=1)):
                out = run_check(req, SolveConfig(jobs=jobs, cache=False))
            assert out.verdict is Verdict.UNKNOWN, jobs
            assert out.reason.startswith("solver error: InjectedFault")
            assert out.stats["resilience"]["errors"] >= 1

    def test_stream_chunks_share_one_pool(self, pools_built):
        x = BVVar("pc.x", 16)
        queries = [Query([ULt(x, BVConst(k, 16))], do_simplify=False)
                   for k in range(1, 7)]
        latency: dict = {}
        results = list(solve_stream(queries, config=SolveConfig(
            jobs=2, cache=False), chunk=2, latency=latency))
        assert [r.verdict for r in results] == [CheckResult.SAT] * 6
        assert latency["chunks"] == 3
        assert len(pools_built) == 1

    def test_single_leader_waves_build_no_pool(self, pools_built):
        result = solve_query(_pigeonhole_query(1), SolveConfig(
            jobs=2, cache=False))
        assert result.verdict is CheckResult.UNKNOWN
        assert pools_built == []

    def test_no_worker_outlives_a_check_stopped_by_a_bug(self, pools_built):
        src = ("void f(int *o) { o[tid.x] = 1; o[0] = tid.x; "
               "o[1] = tid.x; o[2] = tid.x; }")
        out = run_check(CheckRequest(command="races", source=src, width=8,
                                     timeout=60),
                        SolveConfig(jobs=2, cache=False))
        assert out.verdict is Verdict.BUG
        assert len(pools_built) == 1
        assert multiprocessing.active_children() == []


# ----------------------------------------------------- jobs hardening


class TestWorkerInit:
    def test_sigint_ignored_in_workers(self):
        """The worker initializer makes Ctrl-C parent-only: SIGINT is
        ignored so teardown happens via the pool, not via tracebacks."""
        import signal
        previous = signal.getsignal(signal.SIGINT)
        try:
            worker_init(None)
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_sigterm_kills_workers(self):
        """A worker forked from an asyncio server must not run the
        server's SIGTERM handler: it would write the signal into the
        server's wakeup fd and shut the server down."""
        import signal
        import socket
        sigint, sigterm = (signal.getsignal(signal.SIGINT),
                           signal.getsignal(signal.SIGTERM))
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        wakeup = signal.set_wakeup_fd(ours.fileno())
        try:
            signal.signal(signal.SIGTERM, lambda *_: None)
            worker_init(None)
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            assert signal.set_wakeup_fd(-1) == -1
        finally:
            signal.set_wakeup_fd(wakeup)
            signal.signal(signal.SIGINT, sigint)
            signal.signal(signal.SIGTERM, sigterm)
            ours.close()
            theirs.close()

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
