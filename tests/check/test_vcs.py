"""The refutation loop every checker shares: accounting, the
launch-bounded re-solve, replay before BUG, and the mapping to a
verdict."""

import pytest

from repro.check.configs import transpose_assumptions
from repro.check.replay import ReplayResult
from repro.check.result import Counterexample, Verdict
from repro.check.vcs import VC, Refutation, launch_bounds
from repro.errors import EncodingError
from repro.kernels import KERNELS, address_mutants, load_pair
from repro.lang import check_kernel, parse_kernel
from repro.lang.pretty import pretty_kernel
from repro.param.equivalence import ParamOptions, check_equivalence_param
from repro.param.geometry import Geometry
from repro.smt import (
    BVVar, CheckResult, Distinct, Eq, Model, SolveConfig, UGe, ULt,
    dispatch,
)

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


def _record_x(confirmed: bool):
    """A confirm function that records the model's value of X."""
    xs = []

    def confirm(tag, model):
        xs.append(model[X])
        return (Counterexample(bdim=(1, 1, 1), gdim=(1, 1), detail=tag),
                ReplayResult(confirmed, "replay"))
    return confirm, xs


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


def test_a_vc_that_holds_or_fits_the_bounds_sends_one_query(solved):
    confirm, calls = _confirm_if("fits")
    with _check() as check:
        check.bounds = [X.ule(2)]
        check.refute([VC(UNSAT, "holds"), VC([Eq(X, 1)], "fits")], confirm)
    assert check.outcome.verdict is Verdict.BUG
    assert [len(q.assertions) for q in solved] == [2, 1]
    assert check.outcome.vcs_checked == 2 and calls == ["fits"]


def test_a_model_outside_the_bounds_is_resolved_and_the_small_one_replayed(
        monkeypatch):
    """The unbounded query's model has x = 9; the bounded re-solve's
    model (x = 1) is the one that reaches ``confirm``."""
    sent = []

    def fake(queries, **kw):
        sent.extend(len(q.assertions) for q in queries)
        return [dispatch.QueryResult(
            verdict=CheckResult.SAT,
            _model=Model({X: 1 if len(q.assertions) > 1 else 9}))
            for q in queries]
    monkeypatch.setattr(dispatch, "solve_all", fake)
    confirm, xs = _record_x(True)
    with _check() as check:
        check.bounds = [X.ule(2)]
        check.refute([VC([UGe(X, 1)], "tag")], confirm)
    assert check.outcome.verdict is Verdict.BUG
    assert sent == [1, 2] and xs == [1]
    assert check.outcome.stats["solver"]["queries"] == 2
    assert check.outcome.vcs_checked == 1


def test_a_large_model_stands_when_the_bounded_query_is_not_sat(solved):
    confirm, xs = _record_x(False)
    with _check() as check:
        check.bounds = [X.ule(2)]
        check.refute([VC([UGe(X, 5)], "big")], confirm)
    assert check.outcome.verdict is Verdict.UNKNOWN
    assert [len(q.assertions) for q in solved] == [1, 2]
    assert len(xs) == 1 and xs[0] >= 5


def test_bug_hunting_sends_the_bounded_query_first(solved):
    """A VC gets its unbounded query only when its bounded one is not
    SAT; the bounded model is the one replayed."""
    confirm, calls = _confirm_if("small")
    with _check() as check:
        check.bounds = [X.ule(2)]
        check.bounded_first = True
        check.refute([VC([UGe(X, 5)], "big"), VC(UNSAT, "none"),
                      VC([Eq(X, 1)], "small")], confirm)
    assert check.outcome.verdict is Verdict.BUG
    # bounded: big, none, small (one stream chunk); unbounded: big, none
    assert [len(q.assertions) for q in solved] == [2, 3, 2, 1, 2]
    assert check.outcome.vcs_checked == 3
    assert check.outcome.stats["solver"]["queries"] == 5
    assert calls == ["big", "small"]   # "big" only has a large model


ASSUMED = [UGe(X, 1)]
BOUNDS = [X.ule(2)]
NEGATED = [UGe(X, 5)]


def _sent(monkeypatch, verdict, model=None):
    """Stub the dispatcher: every query answers ``verdict`` (with
    ``model``); returns the term list of each query sent, in order."""
    sent = []

    def answer(query, *args, **kw):
        sent.append(list(query.assertions))
        return dispatch.QueryResult(verdict=verdict,
                                    _model=Model(model or {}))
    monkeypatch.setattr(dispatch, "solve_stream",
                        lambda queries, **kw: (answer(q) for q in queries))
    monkeypatch.setattr(dispatch, "solve_query", answer)
    return sent


def _refute_one(bounded_first: bool) -> Refutation:
    confirm, _ = _record_x(False)
    with _check() as check:
        check.assumptions = ASSUMED
        check.bounds = BOUNDS
        check.bounded_first = bounded_first
        check.refute([VC(NEGATED, "vc")], confirm)
    return check


def test_the_bounded_resolve_lists_bounds_then_assumptions_then_the_vc(
        monkeypatch):
    sent = _sent(monkeypatch, CheckResult.SAT, {X: 9})
    _refute_one(bounded_first=False)
    assert sent == [[*ASSUMED, *NEGATED], [*BOUNDS, *ASSUMED, *NEGATED]]


def test_bug_hunting_lists_bounds_then_assumptions_then_the_vc(
        monkeypatch):
    sent = _sent(monkeypatch, CheckResult.UNSAT)
    _refute_one(bounded_first=True)
    assert sent == [[*BOUNDS, *ASSUMED, *NEGATED], [*ASSUMED, *NEGATED]]


def _transpose_mutant(label: str) -> tuple:
    """The Transpose pair with its target's address mutant ``label``, as
    the benchmark builds it: pretty-printed, then parsed again."""
    source = check_kernel(parse_kernel(KERNELS["naiveTranspose"].source))
    for mutant in address_mutants(
            parse_kernel(KERNELS["optimizedTranspose"].source)):
        if mutant.label == label:
            return source, check_kernel(parse_kernel(
                pretty_kernel(mutant.kernel)))
    raise KeyError(label)


@pytest.mark.parametrize("label, width, clauses", [
    ("addr0", 32, 10_000), ("addr1", 32, 10_000), ("addr2", 32, 10_000),
    ("addr3", 32, 10_000), ("addr2", 16, 8_000)])
def test_launch_bounds_fold_the_geometry_products(label, width, clauses):
    """Bounds first make the free launch axes' high bits root-level
    constants, so the assumptions' double-width products blast to a few
    rows: every 32-bit Transpose address mutant is a replayed BUG in
    under 10,000 clauses (over 70,000 with the bounds last)."""
    source, target = _transpose_mutant(label)
    out = check_equivalence_param(
        source, target, width, assumption_builder=transpose_assumptions,
        options=ParamOptions(timeout=120, bughunt=True,
                             solve=SolveConfig(cache=False)))
    assert out.verdict is Verdict.BUG
    assert out.stats["solver"]["clauses"] < clauses


def test_a_second_query_counts_as_a_query_not_a_vc():
    """Bug hunting on the Transpose pair sends two queries for its one
    match VC: the launch-bounded one, which is not SAT, then the
    unbounded one."""
    (_, src), (_, tgt) = load_pair("Transpose")
    out = check_equivalence_param(
        src, tgt, 8, assumption_builder=transpose_assumptions,
        options=ParamOptions(timeout=120, bughunt=True,
                             solve=SolveConfig(cache=False)))
    assert out.vcs_checked == 1 and out.stats["solver"]["queries"] == 2


def test_launch_bounds_leave_out_the_pinned_axes():
    geo = Geometry.create(8)
    assert len(launch_bounds(geo, None)) == 5
    assert launch_bounds(geo, {"bdim": (8, 1, 1), "gdim": (1, 1)}) == []
    assert launch_bounds(geo, {"bdim": (2, 2), "scalars": {"n": 4}}) == [
        v.ule(4) for v in (geo.bdim["z"], *geo.gdim.values())]


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


def test_a_solver_error_ends_the_check_as_unknown(monkeypatch):
    def failed(queries, **kw):
        return [dispatch.QueryResult(verdict=CheckResult.UNKNOWN,
                                     error="memory exhausted")
                for _ in queries]
    monkeypatch.setattr(dispatch, "solve_all", failed)
    confirm, calls = _confirm_if()
    with _check() as check:
        check.refute([VC(SAT, "a")], confirm)
    assert check.outcome.verdict is Verdict.UNKNOWN
    assert check.outcome.reason == "solver error: memory exhausted"
    assert not calls


def _pigeonhole(pigeons: int) -> list:
    """``pigeons`` values in ``pigeons - 1`` holes: UNSAT, and far more
    CDCL conflicts than a fraction of a second allows."""
    vs = [BVVar(f"vcs.php{i}", 4) for i in range(pigeons)]
    return [Distinct(*vs), *(ULt(v, pigeons - 1) for v in vs)]


def test_a_starved_check_solves_each_query_once_within_its_timeout(
        monkeypatch):
    """The check's timeout is its only budget: a VC that outlasts it is
    solved once, under no more than the time the check has, and the check
    ends TIMEOUT."""
    solves = []
    real = dispatch._solve

    def recording(work, key, timeout, *args, **kw):
        solves.append((key, timeout))
        return real(work, key, timeout, *args, **kw)
    monkeypatch.setattr(dispatch, "_solve", recording)
    confirm, calls = _confirm_if()
    with Refutation(0.2, SolveConfig(cache=False)) as check:
        check.refute([VC(_pigeonhole(9), "php")], confirm)
    assert check.outcome.verdict is Verdict.TIMEOUT and not calls
    assert len(solves) == 1
    assert 0 < solves[0][1] <= 0.2


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

