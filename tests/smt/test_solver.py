"""End-to-end tests of the SMT solver facade, including the hypothesis
differential test that drives random terms through simplifier + arrays +
bit-blaster + CDCL and cross-checks against the concrete evaluator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt import (
    And, ArrayVar, BVAdd, BVAnd, BVAshr, BVConst, BVLshr, BVMul, BVNot, BVOr,
    BVShl, BVSub, BVUDiv, BVURem, BVVar, BVXor, BoolVar, CheckResult, Concat,
    Eq, Extract, FALSE, Implies, Ite, Ne, Not, Or, Select, SignExt, SLt, SLe,
    Solver, Store, TRUE, ULe, ULt, Xor, ZeroExt, check_valid, evaluate,
    is_satisfiable,
)

x = BVVar("vx", 8)
y = BVVar("vy", 8)
z = BVVar("vz", 8)
p = BoolVar("vp")


class TestFacadeBasics:
    def test_empty_query_is_sat(self):
        s = Solver()
        assert s.check() is CheckResult.SAT
        assert s.model() is not None

    def test_true_assertion_sat(self):
        s = Solver()
        s.add(TRUE)
        assert s.check() is CheckResult.SAT

    def test_false_assertion_unsat(self):
        s = Solver()
        s.add(FALSE)
        assert s.check() is CheckResult.UNSAT

    def test_non_bool_assertion_rejected(self):
        s = Solver()
        with pytest.raises(SolverError):
            s.add(x)

    def test_model_before_check_raises(self):
        with pytest.raises(SolverError):
            Solver().model()

    def test_model_values_satisfy_query(self):
        s = Solver(validate_models=True)
        s.add(Eq(BVAdd(x, y), BVConst(10, 8)), ULt(x, y))
        assert s.check() is CheckResult.SAT
        m = s.model()
        assert (m[x] + m[y]) % 256 == 10 and m[x] < m[y]

    def test_unsat_linear_system(self):
        s = Solver()
        s.add(Eq(BVAdd(x, y), BVConst(1, 8)))
        s.add(Eq(BVAdd(x, y), BVConst(2, 8)))
        assert s.check() is CheckResult.UNSAT

    def test_bool_model(self):
        s = Solver(validate_models=True)
        q = BoolVar("vq")
        s.add(Xor(p, q), p)
        assert s.check() is CheckResult.SAT
        m = s.model()
        assert m[p] is True and m[q] is False

    def test_stats_populated(self):
        s = Solver()
        s.add(Eq(BVMul(x, y), BVConst(143, 8)))
        s.check()
        assert "time" in s.stats["solver"] and "clauses" in s.stats["solver"]


class TestArithmeticTheorems:
    """Known-valid formulas must come back UNSAT (negation unsatisfiable)."""

    @pytest.mark.parametrize("formula", [
        Eq(BVAdd(x, y), BVAdd(y, x)),
        Eq(BVMul(x, y), BVMul(y, x)),
        Eq(BVMul(x, BVAdd(y, z)), BVAdd(BVMul(x, y), BVMul(x, z))),
        Eq(BVSub(x, y), BVAdd(x, BVMul(BVConst(255, 8), y))),
        Eq(BVShl(x, BVConst(1, 8)), BVMul(x, BVConst(2, 8))),
        Eq(BVAnd(x, x), x),
        Eq(BVNot(BVNot(x)), x),
        Eq(BVXor(BVXor(x, y), y), x),
        Implies(ULt(x, y), ULe(x, y)),
        Implies(And(ULt(x, y), ULt(y, z)), ULt(x, z)),
        Eq(Concat(Extract(x, 7, 4), Extract(x, 3, 0)), x),
        Eq(ZeroExt(x, 8), Concat(BVConst(0, 8), x)),
        Implies(SLt(x, y), SLe(x, y)),
    ])
    def test_valid(self, formula):
        res, cex = check_valid(formula)
        assert res is CheckResult.UNSAT, f"not proved valid: {formula!r} cex={cex!r}"

    @pytest.mark.parametrize("formula", [
        Eq(BVAdd(x, BVConst(1, 8)), x),           # no fixpoint of +1
        ULt(x, BVAdd(x, BVConst(1, 8))),          # fails at x = 255 (wrap)
        Eq(BVUDiv(BVMul(x, y), y), x),            # fails on overflow / y=0
        Eq(BVLshr(BVShl(x, y), y), x),            # fails when bits shifted out
    ])
    def test_invalid_with_validated_cex(self, formula):
        res, cex = check_valid(formula, validate_models=True)
        assert res is CheckResult.SAT
        assert cex is not None
        assert cex.eval(formula) is False

    def test_division_theorem(self):
        # y != 0 -> x == (x/y)*y + x%y  and  x%y < y
        f = Implies(Ne(y, 0),
                    And(Eq(x, BVAdd(BVMul(BVUDiv(x, y), y), BVURem(x, y))),
                        ULt(BVURem(x, y), y)))
        res, cex = check_valid(f)
        assert res is CheckResult.UNSAT, f"cex: {cex!r}"


class TestArrayTheory:
    a = ArrayVar("va", 8, 8)
    b = ArrayVar("vb", 8, 8)
    i = BVVar("vi", 8)
    j = BVVar("vj", 8)

    def test_read_over_write_hit(self):
        f = Eq(Select(Store(self.a, self.i, BVConst(1, 8)), self.i), BVConst(1, 8))
        res, _ = check_valid(f)
        assert res is CheckResult.UNSAT

    def test_read_over_write_symbolic_alias(self):
        # i == j -> read of store hits
        f = Implies(Eq(self.i, self.j),
                    Eq(Select(Store(self.a, self.i, BVConst(1, 8)), self.j),
                       BVConst(1, 8)))
        res, _ = check_valid(f)
        assert res is CheckResult.UNSAT

    def test_functional_consistency(self):
        f = Implies(Eq(self.i, self.j),
                    Eq(Select(self.a, self.i), Select(self.a, self.j)))
        res, _ = check_valid(f)
        assert res is CheckResult.UNSAT

    def test_distinct_cells_independent(self):
        # a[i] = 1 does not constrain a[j] when i != j is possible
        f = Eq(Select(self.a, self.i), Select(self.a, self.j))
        assert is_satisfiable(Not(f))
        assert is_satisfiable(f)

    def test_array_model_reconstruction(self):
        s = Solver(validate_models=True)
        s.add(Eq(Select(self.a, BVConst(3, 8)), BVConst(10, 8)))
        s.add(Eq(Select(self.a, self.i), BVConst(20, 8)))
        assert s.check() is CheckResult.SAT
        m = s.model()
        contents = m[self.a]
        assert contents[3] == 10
        assert contents[m[self.i]] == 20
        assert m[self.i] != 3

    def test_two_arrays_do_not_interfere(self):
        f = And(Eq(Select(self.a, self.i), BVConst(1, 8)),
                Eq(Select(self.b, self.i), BVConst(2, 8)))
        assert is_satisfiable(f)

    def test_array_extensionality_rejected(self):
        s = Solver()
        s.add(Eq(self.a, self.b))
        with pytest.raises(SolverError):
            s.check()


class TestBudgets:
    def test_timeout_yields_unknown(self):
        # 24-bit factoring-ish instance: way beyond a 1 ms budget.
        w = 24
        u, v = BVVar("bu", w), BVVar("bv", w)
        s = Solver(timeout=0.001)
        s.add(Eq(BVMul(u, v), BVConst(0xBEEF37, w)),
              Ne(u, 1), Ne(v, 1), ULt(u, v))
        assert s.check() is CheckResult.UNKNOWN

    def test_conflict_budget_yields_unknown(self):
        w = 20
        u, v = BVVar("cu", w), BVVar("cv", w)
        s = Solver(conflict_budget=5)
        s.add(Eq(BVMul(u, v), BVConst(0x7FFFF, w)), Ne(u, 1), Ne(v, 1))
        res = s.check()
        assert res in (CheckResult.UNKNOWN, CheckResult.SAT)


# ---------------------------------------------------------------- hypothesis

_WIDTH = 6


def _exprs(depth: int):
    leaf = st.one_of(
        st.integers(0, (1 << _WIDTH) - 1).map(lambda v: BVConst(v, _WIDTH)),
        st.sampled_from([BVVar(n, _WIDTH) for n in ("ha", "hb", "hc")]),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    binops = st.sampled_from([BVAdd, BVSub, BVMul, BVAnd, BVOr, BVXor,
                              BVShl, BVLshr, BVAshr, BVUDiv, BVURem])
    return st.one_of(
        leaf,
        st.tuples(binops, sub, sub).map(lambda t: t[0](t[1], t[2])),
        st.tuples(sub, sub, sub).map(lambda t: Ite(ULt(t[0], t[1]), t[1], t[2])),
    )


@given(expr=_exprs(3),
       env_vals=st.tuples(*[st.integers(0, (1 << _WIDTH) - 1)] * 3))
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_evaluator(expr, env_vals):
    """For random expressions e and inputs v: asserting inputs pins e to its
    concrete value (SAT), and pinning e to anything else is UNSAT."""
    names = [BVVar(n, _WIDTH) for n in ("ha", "hb", "hc")]
    env = dict(zip(names, env_vals))
    expected = evaluate(expr, env)
    pin_inputs = [Eq(v, BVConst(val, _WIDTH)) for v, val in env.items()]

    s = Solver(validate_models=True)
    s.add(*pin_inputs, Eq(expr, BVConst(expected, _WIDTH)))
    assert s.check() is CheckResult.SAT

    s2 = Solver()
    s2.add(*pin_inputs, Ne(expr, BVConst(expected, _WIDTH)))
    assert s2.check() is CheckResult.UNSAT


@given(expr=_exprs(3),
       env_vals=st.tuples(*[st.integers(0, (1 << _WIDTH) - 1)] * 3))
@settings(max_examples=80, deadline=None)
def test_simplify_preserves_semantics(expr, env_vals):
    from repro.smt import simplify
    names = [BVVar(n, _WIDTH) for n in ("ha", "hb", "hc")]
    env = dict(zip(names, env_vals))
    assert evaluate(simplify(expr), env) == evaluate(expr, env)
