"""End-to-end resilience: every fault class, through the real checkers.

The contract under injected faults is one-sided — a faulted checker run
terminates with the fault-free verdict or an honest inconclusive
(UNKNOWN/TIMEOUT), never a wrong verdict and never an unhandled exception.
"""

import pytest

from repro.check.equivalence import check_equivalence_nonparam
from repro.check.races import check_races
from repro.check.replay import ReplayResult
from repro.check.result import Verdict, format_solver_stats
from repro.lang import LaunchConfig, check_kernel, parse_kernel
from repro.smt import (
    FaultPlan, QueryCache, SolveConfig, faults,
)


def one_d(geo, inputs):
    return [geo.one_dimensional(), geo.single_block()]


def _racefree_info():
    return check_kernel(parse_kernel("""
        void f(int *o) {
            o[tid.x] = 1;
            o[tid.x] += 1;
        }"""))


def _racy_info():
    return check_kernel(parse_kernel("void f(int *o) { o[0] = tid.x; }"))


def _pair():
    src = check_kernel(parse_kernel("void f(int *o) { o[tid.x] = 1; }"))
    tgt = check_kernel(parse_kernel("void f(int *o) { o[tid.x] = 2; }"))
    return src, tgt


CONFIG = LaunchConfig(bdim=(2, 1, 1), gdim=(1, 1), width=8)

#: One inconclusive-or-correct check: the faulted verdict must be the
#: baseline verdict or an honest "don't know".
INCONCLUSIVE = (Verdict.UNKNOWN, Verdict.TIMEOUT)


def _uncached() -> SolveConfig:
    """The environment's solve settings with the query cache off."""
    return SolveConfig.from_env(cache=False)


class TestFaultClassesNeverWrong:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_races_under_solver_exceptions(self, seed):
        baseline = check_races(_racefree_info(), 8,
                               assumption_builder=one_d, timeout=60,
                               solve=_uncached())
        assert baseline.verdict is Verdict.VERIFIED
        with faults.injected(FaultPlan(seed=seed, solver_exception=0.5)):
            out = check_races(_racefree_info(), 8, assumption_builder=one_d,
                              timeout=60, solve=_uncached())
        assert out.verdict in (baseline.verdict, *INCONCLUSIVE), out.reason

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_racy_kernel_under_solver_exceptions(self, seed):
        with faults.injected(FaultPlan(seed=seed, solver_exception=0.5)):
            out = check_races(_racy_info(), 8, timeout=60, solve=_uncached())
        assert out.verdict in (Verdict.BUG, *INCONCLUSIVE)
        if out.verdict is Verdict.BUG:
            # a reported bug is still replay-confirmed under faults
            assert out.counterexample is not None

    def test_equivalence_under_delays(self):
        src, tgt = _pair()
        with faults.injected(FaultPlan(seed=4, delay=1.0,
                                       delay_seconds=0.001)):
            out = check_equivalence_nonparam(src, tgt, CONFIG, timeout=60,
                                             solve=_uncached())
        assert out.verdict is Verdict.BUG
        assert out.counterexample is not None

    def test_total_exception_rate_is_honest_unknown(self):
        """A solver error is not budget exhaustion: the check ends UNKNOWN
        with the error text, not TIMEOUT."""
        src, tgt = _pair()
        with faults.injected(FaultPlan(seed=4, solver_exception=1.0)):
            out = check_equivalence_nonparam(src, tgt, CONFIG, timeout=60,
                                             solve=_uncached())
        assert out.verdict is Verdict.UNKNOWN
        assert out.reason.startswith(
            "solver error: InjectedFault: injected solver exception")
        assert out.stats["resilience"]["errors"] == 1
        assert "errors       1 (contained as UNKNOWN)" in \
            format_solver_stats(out)


class TestCorruptCacheSurvival:
    def test_checker_correct_despite_corrupted_disk_cache(self, tmp_path):
        """Every disk write is garbled; the in-memory layer keeps the run
        correct and a fresh reader quarantines instead of trusting."""
        with faults.injected(FaultPlan(seed=7, corrupt_cache=1.0)):
            cache = QueryCache(disk_dir=tmp_path)
            out = check_races(_racefree_info(), 8, assumption_builder=one_d,
                              timeout=60,
                              solve=SolveConfig.from_env(cache=cache))
        assert out.verdict is Verdict.VERIFIED
        # a fresh process (new cache over the same dir) must re-solve, not
        # trust the garbled files
        reader = QueryCache(disk_dir=tmp_path)
        out2 = check_races(_racefree_info(), 8, assumption_builder=one_d,
                           timeout=60,
                           solve=SolveConfig.from_env(cache=reader))
        assert out2.verdict is Verdict.VERIFIED
        assert reader.stats["quarantined"] >= 1


class TestReplayValidationGate:
    def test_unconfirmed_candidate_downgraded(self, monkeypatch):
        """A SAT model that fails concrete replay must surface as UNKNOWN
        with a diagnostic — never as a BUG report."""
        import repro.check.equivalence as eq_mod
        monkeypatch.setattr(
            eq_mod, "replay_equivalence",
            lambda *a, **k: ReplayResult(False, "forced replay mismatch"))
        src, tgt = _pair()
        out = check_equivalence_nonparam(src, tgt, CONFIG, timeout=60,
                                         solve=_uncached())
        assert out.verdict is Verdict.UNKNOWN
        assert "did not replay" in out.reason
        assert out.counterexample is None

