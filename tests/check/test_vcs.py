"""The refutation loop every checker shares: accounting, the bounded first
round, replay before BUG, and the mapping to a verdict."""

import pytest

from repro.check.replay import ReplayResult
from repro.check.result import Counterexample, Verdict
from repro.check.vcs import VC, Refutation
from repro.errors import EncodingError
from repro.smt import BVVar, CheckResult, Eq, SolveConfig, UGe, dispatch

X = BVVar("vcs.x", 8)
SAT = [Eq(X, 3)]
UNSAT = [Eq(X, 3), Eq(X, 4)]


def _check(**kw) -> Refutation:
    return Refutation(60, SolveConfig(cache=False), **kw)


def _confirm_if(*confirmed_tags):
    """A confirm function that replays the tags listed, and records every
    call."""
    calls = []

    def confirm(tag, model):
        calls.append(tag)
        return (Counterexample(bdim=(1, 1, 1), gdim=(1, 1), detail=tag),
                ReplayResult(tag in confirmed_tags, f"replay of {tag}"))
    return confirm, calls


@pytest.fixture
def solved(monkeypatch):
    """Every query that reaches the dispatcher, in order."""
    seen = []
    real = dispatch.solve_all

    def recording(queries, **kw):
        seen.extend(queries)
        return real(queries, **kw)
    monkeypatch.setattr(dispatch, "solve_all", recording)
    return seen


def test_all_refuted_is_verified():
    confirm, calls = _confirm_if()
    with _check() as check:
        check.refute([VC(UNSAT, "a"), VC(UNSAT, "b")], confirm)
    out = check.outcome
    assert out.verdict is Verdict.VERIFIED and out.complete
    assert out.vcs_checked == 2 and out.stats["solver"]["queries"] == 2
    assert out.elapsed > 0 and not calls


def test_bounded_round_sends_unbounded_query_only_when_not_sat(solved):
    """A VC gets its unbounded query only when its bounded one is not
    SAT; the bounded model is the one replayed."""
    confirm, calls = _confirm_if("small")
    with _check() as check:
        check.bounds = [X.ule(2)]
        check.refute([VC([UGe(X, 5)], "big"), VC(UNSAT, "none"),
                      VC([Eq(X, 1)], "small")], confirm)
    assert check.outcome.verdict is Verdict.BUG
    # bounded: big, none, small (SAT, ends the round); unbounded: big, none
    assert [len(q.assertions) for q in solved] == [2, 3, 2, 1, 2]
    assert check.outcome.vcs_checked == 5
    assert calls == ["big", "small"]   # "big" only has a large model


def test_unconfirmed_candidate_is_recorded_and_the_check_goes_on():
    confirm, calls = _confirm_if("second")
    with _check() as check:
        check.refute([VC(SAT, "first"), VC(UNSAT, "proved"),
                      VC(SAT, "second")], confirm)
    out = check.outcome
    assert out.verdict is Verdict.BUG
    assert out.counterexample.detail == "second; replay of second"
    assert calls == ["first", "second"]
    assert check.unconfirmed == [
        "first: candidate did not replay (replay of first)"]


def test_only_unconfirmed_candidates_is_unknown():
    confirm, _ = _confirm_if()
    with _check() as check:
        check.refute([VC(SAT, "a"), VC(SAT, "b")], confirm)
    out = check.outcome
    assert out.verdict is Verdict.UNKNOWN and out.counterexample is None
    assert out.reason == ("a: candidate did not replay (replay of a); "
                          "b: candidate did not replay (replay of b)")


def test_no_vc_after_the_first_confirmed_bug_is_solved(solved):
    confirm, calls = _confirm_if(0)
    with _check() as check:
        check.refute([VC(SAT, i) for i in range(20)], confirm)
        check.refute([VC(SAT, "never")], confirm)
    assert check.outcome.verdict is Verdict.BUG
    assert calls == [0]
    # one stream chunk (max(4, 2 * jobs) queries) at most, never the tail
    assert len(solved) <= 4 and check.outcome.vcs_checked == 1


def test_unknown_ends_the_check_as_timeout(monkeypatch):
    def unknown(queries, **kw):
        return [dispatch.QueryResult(verdict=CheckResult.UNKNOWN)
                for _ in queries]
    monkeypatch.setattr(dispatch, "solve_all", unknown)
    confirm, calls = _confirm_if()
    with _check() as check:
        check.refute([VC(UNSAT, "a"), VC(SAT, "b")], confirm)
    assert check.outcome.verdict is Verdict.TIMEOUT
    assert "T.O" in check.outcome.reason and not calls


def test_encoding_error_is_unsupported():
    with _check() as check:
        raise EncodingError("no model for this kernel")
    assert check.outcome.verdict is Verdict.UNSUPPORTED
    assert check.outcome.reason == "no model for this kernel"


def test_other_errors_propagate():
    with pytest.raises(ZeroDivisionError):
        with _check():
            1 / 0


def test_skipped_obligations_never_verify():
    confirm, _ = _confirm_if()
    with _check() as check:
        check.refute([VC(UNSAT, "a")], confirm)
        check.incomplete += ["frame x", "frame x", "frame y"]
    out = check.outcome
    assert out.verdict is Verdict.UNKNOWN and not out.complete
    assert out.reason == "no bug found; obligations skipped: frame x; frame y"
    assert out.stats["incomplete"] == ["frame x", "frame x", "frame y"]


def test_prove_adds_the_assumptions_and_counts_the_query(solved):
    with _check() as check:
        check.assumptions = [Eq(X, 3)]
        assert check.prove([], [Eq(X, 3)])
        assert not check.prove([], [Eq(X, 4)])
    assert check.outcome.vcs_checked == 2
    assert all(q.assertions[0] is check.assumptions[0] for q in solved)

