"""Tests for the SatELite-style CNF preprocessor.

The load-bearing property is differential: for random CNFs the reduced
instance has the same satisfiability as the original (also with a
frozen variable pinned afterwards), and models of the reduced instance
reconstruct to models of the *original* clauses.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.preprocess import Preprocessor, preprocess
from repro.smt.sat import SATResult, SATSolver


def lit(v: int, positive: bool) -> int:
    return (v << 1) | (0 if positive else 1)


def brute_force_sat(n: int, clauses, fixed=()) -> bool:
    fixed = dict(fixed)
    for bits in itertools.product([False, True], repeat=n):
        if any(bits[v] != want for v, want in fixed.items()):
            continue
        if all(any(bits[l >> 1] != bool(l & 1) for l in c) for c in clauses):
            return True
    return False


def random_cnf(rng: random.Random, n: int, m: int):
    clauses = []
    for _ in range(m):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        vs = rng.sample(range(n), min(width, n))
        clauses.append([lit(v, rng.random() < 0.5) for v in vs])
    return clauses


def solve_clauses(n: int, clauses):
    s = SATSolver()
    for _ in range(n):
        s.new_var()
    for c in clauses:
        if not s.add_clause(list(c)):
            break
    return s


class TestBasicPasses:
    def test_unit_propagation_to_fixpoint(self):
        # 0; ~0|1; ~1|2  => all three become units, no clauses remain
        clauses = [[lit(0, True)], [lit(0, False), lit(1, True)],
                   [lit(1, False), lit(2, True)]]
        pre = preprocess(3, clauses)
        assert pre.ok
        assert pre.stats["pp_units"] == 3
        assert pre.output_clauses() == []
        values = pre.reconstruct(lambda v: False)
        assert values[0] and values[1] and values[2]

    def test_root_conflict_detected(self):
        clauses = [[lit(0, True)], [lit(0, False)]]
        assert not preprocess(1, clauses).ok

    def test_pure_literal_elimination(self):
        # var 1 occurs only positively: both clauses drop
        clauses = [[lit(0, True), lit(1, True)],
                   [lit(0, False), lit(1, True)]]
        pre = preprocess(2, clauses)
        assert pre.ok
        assert pre.stats["pp_pures"] >= 1
        assert pre.output_clauses() == []
        assert pre.reconstruct(lambda v: False)[1] is True

    def test_subsumption_removes_superset(self):
        sub = [lit(0, True), lit(1, True)]
        sup = [lit(0, True), lit(1, True), lit(2, True)]
        anchor = [[lit(v, False), lit(3, True)] for v in range(3)]
        pre = preprocess(4, [sub, sup] + anchor, frozen=range(4))
        assert pre.stats["pp_subsumed"] >= 1

    def test_self_subsuming_resolution_strengthens(self):
        # (0 | 1) and (~0 | 1 | 2): resolving on 0 gives (1 | 2) which
        # self-subsumes the second clause to (1 | 2).
        c1 = [lit(0, True), lit(1, True)]
        c2 = [lit(0, False), lit(1, True), lit(2, True)]
        pre = preprocess(3, [c1, c2], frozen=range(3))
        assert pre.stats["pp_strengthened"] >= 1

    def test_bve_eliminates_definition(self):
        # v2 <-> (v0 & v1) via three clauses; v2 unused elsewhere: BVE (or
        # the pure pass) should remove it entirely.
        clauses = [[lit(2, False), lit(0, True)],
                   [lit(2, False), lit(1, True)],
                   [lit(0, False), lit(1, False), lit(2, True)],
                   [lit(0, True)], [lit(1, True)]]
        pre = preprocess(3, clauses)
        assert pre.ok
        values = pre.reconstruct(lambda v: False)
        assert values[0] and values[1] and values[2]

    def test_frozen_vars_survive_with_units_reemitted(self):
        # var 0 frozen and forced true: the unit must be in the output so
        # a later assumption solve still observes it.
        clauses = [[lit(0, True)], [lit(0, False), lit(1, True)]]
        pre = preprocess(2, clauses, frozen=[0])
        assert [lit(0, True)] in pre.output_clauses()

    def test_frozen_vars_never_eliminated(self):
        clauses = [[lit(0, True), lit(1, True)]]
        pre = preprocess(2, clauses, frozen=[0, 1])
        assert pre.eliminated[0] == 0 and pre.eliminated[1] == 0


class TestDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_equisatisfiable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        clauses = random_cnf(rng, n, rng.randint(2, 28))
        pre = preprocess(n, [list(c) for c in clauses])
        want = brute_force_sat(n, clauses)
        if not pre.ok:
            assert want is False
            return
        reduced = pre.output_clauses()
        s = solve_clauses(n, reduced)
        got = s.solve()
        assert (got is SATResult.SAT) == want
        if got is SATResult.SAT:
            values = pre.reconstruct(s.model_value)
            for c in clauses:
                assert any(values[l >> 1] != bool(l & 1) for l in c), \
                    f"reconstructed model falsifies {c}"

    @pytest.mark.parametrize("seed", range(25))
    def test_equisatisfiable_under_frozen_assumptions(self, seed):
        """Preprocess with var 0 frozen, then pin each polarity of var 0
        with a unit clause on the reduced instance: verdicts match brute
        force with the value pinned."""
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 8)
        clauses = random_cnf(rng, n, rng.randint(2, 24))
        pre = preprocess(n, [list(c) for c in clauses], frozen=[0])
        if not pre.ok:
            assert not brute_force_sat(n, clauses)
            return
        for positive in (True, False):
            s = solve_clauses(n, pre.output_clauses() + [[lit(0, positive)]])
            got = s.solve()
            want = brute_force_sat(n, clauses, fixed={0: positive})
            assert (got is SATResult.SAT) == want
            if got is SATResult.SAT:
                values = pre.reconstruct(s.model_value)
                assert values[0] == positive
                for c in clauses:
                    assert any(values[l >> 1] != bool(l & 1) for l in c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_property_random_cnf(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        clauses = random_cnf(rng, n, rng.randint(1, 20))
        pre = preprocess(n, [list(c) for c in clauses])
        want = brute_force_sat(n, clauses)
        if not pre.ok:
            assert want is False
            return
        s = solve_clauses(n, pre.output_clauses())
        assert (s.solve() is SATResult.SAT) == want


class TestStats:
    def test_clause_accounting(self):
        rng = random.Random(7)
        clauses = random_cnf(rng, 8, 30)
        pre = preprocess(8, clauses)
        assert pre.stats["pp_clauses_in"] == 30
        assert pre.stats["pp_clauses_out"] == sum(
            1 for c in pre.clauses if c is not None)

    def test_max_rounds_zero_still_propagates(self):
        clauses = [[lit(0, True)], [lit(0, False), lit(1, True)]]
        pre = Preprocessor(2, clauses).run(max_rounds=0)
        assert pre.ok
        assert pre.stats["pp_units"] == 2
