"""Unit and property tests for the CDCL SAT core."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat import SATSolver, SATResult, luby


def lit(v: int, positive: bool) -> int:
    return (v << 1) | (0 if positive else 1)


class TestBasics:
    def test_empty_instance_is_sat(self):
        assert SATSolver().solve() is SATResult.SAT

    def test_unit_clause(self):
        s = SATSolver()
        v = s.new_var()
        s.add_clause([lit(v, True)])
        assert s.solve() is SATResult.SAT
        assert s.model_value(v) is True

    def test_contradicting_units(self):
        s = SATSolver()
        v = s.new_var()
        s.add_clause([lit(v, True)])
        assert not s.add_clause([lit(v, False)])
        assert s.solve() is SATResult.UNSAT

    def test_empty_clause_is_unsat(self):
        s = SATSolver()
        s.new_var()
        assert not s.add_clause([])
        assert s.solve() is SATResult.UNSAT

    def test_tautological_clause_ignored(self):
        s = SATSolver()
        v = s.new_var()
        assert s.add_clause([lit(v, True), lit(v, False)])
        assert s.solve() is SATResult.SAT

    def test_duplicate_literals_deduped(self):
        s = SATSolver()
        v, w = s.new_var(), s.new_var()
        s.add_clause([lit(v, True), lit(v, True), lit(w, False)])
        assert s.solve() is SATResult.SAT

    def test_implication_chain(self):
        s = SATSolver()
        vs = [s.new_var() for _ in range(50)]
        for i in range(49):
            s.add_clause([lit(vs[i], False), lit(vs[i + 1], True)])  # v_i -> v_{i+1}
        s.add_clause([lit(vs[0], True)])
        assert s.solve() is SATResult.SAT
        assert all(s.model_value(v) for v in vs)

    def test_xor_chain_unsat(self):
        # x1 xor x2, x2 xor x3, x1 xor x3 with odd parity constraint is unsat
        s = SATSolver()
        a, b, c = (s.new_var() for _ in range(3))
        def xor_true(u, v):
            s.add_clause([lit(u, True), lit(v, True)])
            s.add_clause([lit(u, False), lit(v, False)])
        xor_true(a, b)
        xor_true(b, c)
        xor_true(a, c)
        assert s.solve() is SATResult.UNSAT

    def test_undeclared_literal_raises(self):
        s = SATSolver()
        with pytest.raises(Exception):
            s.add_clause([2])


class TestPigeonhole:
    def _php(self, holes: int) -> SATSolver:
        """holes+1 pigeons into `holes` holes: classic UNSAT family."""
        s = SATSolver()
        pigeons = holes + 1
        var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            s.add_clause([lit(var[p][h], True) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([lit(var[p1][h], False), lit(var[p2][h], False)])
        return s

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_php_unsat(self, holes):
        assert self._php(holes).solve() is SATResult.UNSAT

    def test_php_sat_when_enough_holes(self):
        # n pigeons, n holes is satisfiable
        s = SATSolver()
        n = 4
        var = [[s.new_var() for _ in range(n)] for _ in range(n)]
        for p in range(n):
            s.add_clause([lit(var[p][h], True) for h in range(n)])
        for h in range(n):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause([lit(var[p1][h], False), lit(var[p2][h], False)])
        assert s.solve() is SATResult.SAT


class TestBudgets:
    def test_conflict_budget_returns_unknown(self):
        # A hard UNSAT instance with a tiny conflict budget must give UNKNOWN.
        s = SATSolver()
        holes = 7
        pigeons = holes + 1
        var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            s.add_clause([lit(var[p][h], True) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([lit(var[p1][h], False), lit(var[p2][h], False)])
        assert s.solve(conflict_budget=20) is SATResult.UNKNOWN

    def test_expired_deadline_returns_unknown(self):
        import time
        s = SATSolver()
        holes = 7
        pigeons = holes + 1
        var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            s.add_clause([lit(var[p][h], True) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([lit(var[p1][h], False), lit(var[p2][h], False)])
        assert s.solve(deadline=time.monotonic() + 0.05) in \
            (SATResult.UNKNOWN, SATResult.UNSAT)

    def test_budget_axis_recorded(self):
        s = SATSolver()
        vs = [s.new_var() for _ in range(8)]
        # PHP 8 pigeons / 7 holes is hard enough to hit a 1-conflict budget
        for p in range(8):
            s.add_clause([lit(vs[p], True)])
        s2 = SATSolver()
        n_p, n_h = 7, 6
        grid = [[s2.new_var() for _ in range(n_h)] for _ in range(n_p)]
        for p in range(n_p):
            s2.add_clause([lit(grid[p][h], True) for h in range(n_h)])
        for h in range(n_h):
            for p1 in range(n_p):
                for p2 in range(p1 + 1, n_p):
                    s2.add_clause([lit(grid[p1][h], False),
                                   lit(grid[p2][h], False)])
        assert s2.solve(conflict_budget=1) is SATResult.UNKNOWN
        assert s2.stats["budget_axis"] == "conflicts"
        assert s2.solve(deadline=0.0) is SATResult.UNKNOWN
        assert s2.stats["budget_axis"] == "time"
        # a successful solve clears the marker
        s3 = SATSolver()
        v = s3.new_var()
        s3.add_clause([lit(v, True)])
        assert s3.solve() is SATResult.SAT
        assert "budget_axis" not in s3.stats


def _random_instance(rng: random.Random, n_vars: int, n_clauses: int):
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        vs = rng.sample(range(n_vars), min(width, n_vars))
        clauses.append([lit(v, rng.random() < 0.5) for v in vs])
    return clauses


def _brute_force_sat(n_vars: int, clauses) -> bool:
    for bits in range(1 << n_vars):
        ok = True
        for clause in clauses:
            if not any(((bits >> (l >> 1)) & 1) == (1 - (l & 1)) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_3sat_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    n_vars = rng.randint(1, 9)
    n_clauses = rng.randint(1, 40)
    clauses = _random_instance(rng, n_vars, n_clauses)
    s = SATSolver()
    for _ in range(n_vars):
        s.new_var()
    ok = True
    for c in clauses:
        ok = s.add_clause(list(c)) and ok
    result = s.solve() if ok else SATResult.UNSAT
    expected = _brute_force_sat(n_vars, clauses)
    assert (result is SATResult.SAT) == expected
    if result is SATResult.SAT:
        # model must satisfy every clause
        for clause in clauses:
            assert any(s.model_value(l >> 1) == (l & 1 == 0) for l in clause)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)

