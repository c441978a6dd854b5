"""End-to-end proof certification: facade and dispatch,
plus the lying-solver fault and the cache gating rules.

The contract under test: with ``certify`` on, every UNSAT verdict that
survives to the caller carries a checked (or trivially certified) DRAT
proof; a rejected proof degrades to UNKNOWN — never a false VERIFIED —
and never reaches the cache; cached uncertified UNSAT entries are
re-proved rather than trusted.
"""

from repro.smt import (
    BVAnd, BVConst, BVOr, BVVar, CheckResult, Eq, Not, Query, SolveConfig,
    Solver, UGt, ULt, solve_all,
)
from repro.smt import faults
from repro.smt.faults import FaultPlan
from repro.smt.qcache import QueryCache, canonical_key
from repro.smt.terms import BoolConst


def _unsat_terms(prefix: str, width: int = 8):
    x = BVVar(f"{prefix}.x", width)
    return [ULt(x, BVConst(3, width)), UGt(x, BVConst(5, width))]


def _opaque_unsat(prefix: str, width: int = 8):
    """Negated ring identity ``(x & y) + (x | y) == x + y`` — UNSAT, and
    opaque to the word-level rewriter, so the full SAT path runs."""
    x = BVVar(f"{prefix}.x", width)
    y = BVVar(f"{prefix}.y", width)
    return [Not(Eq(BVAnd(x, y) + BVOr(x, y), x + y))]


def _sat_terms(prefix: str, width: int = 8):
    x = BVVar(f"{prefix}.x", width)
    return [UGt(x, BVConst(3, width)), ULt(x, BVConst(9, width))]


FLIP_ALL = FaultPlan(seed=1, flip_unsat=1.0)

# Caching off, so every call really solves.
PLAIN = SolveConfig(cache=False)
CERTIFIED = SolveConfig(cache=False, certify=True)


class TestFacade:
    def test_unsat_carries_checked_proof(self):
        for preprocess in (False, True):
            solver = Solver(certify=True, preprocess=preprocess)
            solver.add(*_opaque_unsat("fc"))
            assert solver.check() is CheckResult.UNSAT
            cert = solver.stats["certify"]
            assert cert["checked"] == 1 and cert["rejected"] == 0
            assert cert["steps"] >= 0 and cert["time"] >= 0

    def test_term_level_false_is_trivially_certified(self):
        solver = Solver(certify=True)
        solver.add(BoolConst(False))
        assert solver.check() is CheckResult.UNSAT
        assert solver.stats["certify"]["trivial"] == 1

    def test_sat_verdict_unaffected(self):
        solver = Solver(certify=True)
        solver.add(*_sat_terms("fs"))
        assert solver.check() is CheckResult.SAT
        assert "certify" not in solver.stats or \
            solver.stats["certify"]["rejected"] == 0

    def test_flip_unsat_rejected_only_under_certify(self):
        with faults.injected(FLIP_ALL):
            lying = Solver(certify=False)
            lying.add(*_sat_terms("ff"))
            assert lying.check() is CheckResult.UNSAT  # the lie lands
        with faults.injected(FaultPlan(seed=1, flip_unsat=1.0)):
            honest = Solver(certify=True)
            honest.add(*_sat_terms("fg"))
            assert honest.check() is CheckResult.UNKNOWN  # caught
            cert = honest.stats["certify"]
            assert cert["rejected"] == 1 and honest.rejection


class TestDispatch:
    def test_solve_all_certifies_unsat(self):
        results = solve_all([Query(_opaque_unsat("da"))], config=CERTIFIED)
        assert results[0].verdict is CheckResult.UNSAT
        assert results[0].stats["certify"]["rejected"] == 0

    def test_rejected_proof_is_unknown_and_never_cached(self):
        cache = QueryCache()
        query = Query(_sat_terms("dr"))
        with faults.injected(FaultPlan(seed=7, flip_unsat=1.0)):
            results = solve_all([query], config=SolveConfig(
                cache=cache, certify=True))
        assert results[0].verdict is CheckResult.UNKNOWN
        assert results[0].stats["certify"]["rejected"] == 1
        key = canonical_key(list(query.assertions))
        assert cache.lookup(key) is None  # the lie never poisons the cache

    def test_uncertified_cache_hits_are_reproved(self):
        cache = QueryCache()
        # Warm the cache without certification...
        plain = SolveConfig(cache=cache)
        certified = SolveConfig(cache=cache, certify=True)
        first = solve_all([Query(_unsat_terms("dc"))], config=plain)
        assert first[0].verdict is CheckResult.UNSAT
        key = canonical_key(list(_unsat_terms("dc")))
        entry = cache.lookup(key)
        assert entry is not None and not entry.get("certified")
        # ...a certified run must not trust the uncertified entry.
        second = solve_all([Query(_unsat_terms("dc"))], config=certified)
        assert second[0].verdict is CheckResult.UNSAT
        assert not second[0].cached
        assert second[0].stats["certify"]["checked"] >= 1
        assert cache.lookup(key).get("certified") is True
        # ...and a later certified run may then hit, marked as certified.
        third = solve_all([Query(_unsat_terms("dc"))], config=certified)
        assert third[0].cached
        assert third[0].stats["certify"] == {"cached": 1}

    def test_certify_env_default(self, monkeypatch):
        monkeypatch.delenv("PUGPARA_CERTIFY", raising=False)
        assert SolveConfig.from_env().certify is False
        monkeypatch.setenv("PUGPARA_CERTIFY", "1")
        assert SolveConfig.from_env().certify is True
        assert SolveConfig.from_env(certify=False).certify is False
        monkeypatch.setenv("PUGPARA_CERTIFY", "0")
        assert SolveConfig.from_env().certify is False

    def test_certified_and_plain_verdicts_agree(self):
        batch = [Query(_unsat_terms("dv.a")), Query(_sat_terms("dv.b")),
                 Query(_opaque_unsat("dv.c"))]
        plain = solve_all(batch, config=PLAIN)
        again = [Query(_unsat_terms("dv.a")), Query(_sat_terms("dv.b")),
                 Query(_opaque_unsat("dv.c"))]
        certified = solve_all(again, config=CERTIFIED)
        assert [r.verdict for r in plain] == [r.verdict for r in certified]
