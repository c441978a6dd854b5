"""Unit tests for the polynomial normalizer (repro.smt.poly)."""

from hypothesis import given, settings, strategies as st

from repro.smt import BVAdd, BVConst, BVMul, BVNeg, BVShl, BVSub, BVVar, Select, ArrayVar
from repro.smt.poly import (
    PolyMemo, normalize_arith, normalize_eq, poly_of, poly_to_term,
    split_linear,
)
from repro.smt.sorts import BV

x = BVVar("px", 8)
y = BVVar("py", 8)
z = BVVar("pz", 8)


def test_distribution():
    # x * (y + 3)  ==  x*y + 3*x
    lhs = normalize_arith(BVMul(x, BVAdd(y, BVConst(3, 8))))
    rhs = normalize_arith(BVAdd(BVMul(x, y), BVMul(BVConst(3, 8), x)))
    assert lhs is rhs


def test_cancellation():
    # (x + y) - y == x
    t = normalize_arith(BVSub(BVAdd(x, y), y))
    assert t is x


def test_negation_cancels():
    t = normalize_arith(BVAdd(x, BVNeg(x)))
    assert t.value == 0


def test_coefficient_collection():
    # x + x + x == 3x  and  3x == 2x + x
    three_x = normalize_arith(BVAdd(BVAdd(x, x), x))
    assert three_x is normalize_arith(BVAdd(BVMul(BVConst(2, 8), x), x))


def test_modular_coefficients_wrap():
    # 255x + x == 0 (mod 256)
    t = normalize_arith(BVAdd(BVMul(BVConst(255, 8), x), x))
    assert t.value == 0


def test_shl_by_const_is_multiplication():
    assert normalize_arith(BVShl(x, BVConst(3, 8))) is \
        normalize_arith(BVMul(x, BVConst(8, 8)))


def test_nonlinear_monomials():
    # x*y*2 + x*y == 3*x*y
    t = normalize_arith(BVAdd(BVMul(BVMul(x, y), BVConst(2, 8)), BVMul(x, y)))
    assert t is normalize_arith(BVMul(BVConst(3, 8), BVMul(x, y)))


def test_atoms_are_opaque():
    a = ArrayVar("pa", 8, 8)
    s = Select(a, x)
    # select terms are atoms; sums over them still collect
    t = normalize_arith(BVAdd(s, s))
    assert t is normalize_arith(BVMul(BVConst(2, 8), s))


def test_normalize_eq_moves_negatives_across():
    # x - y == 0  normalizes to  x == y
    lhs, rhs = normalize_eq(BVSub(x, y), BVConst(0, 8))
    assert {lhs, rhs} == {x, y}


def test_normalize_eq_trivial_equality():
    lhs, rhs = normalize_eq(BVAdd(x, y), BVAdd(y, x))
    assert lhs is rhs


def test_poly_roundtrip_empty():
    t = poly_to_term({}, BV(8))
    assert t.value == 0


def test_poly_of_constant():
    p = poly_of(BVConst(7, 8))
    assert p == {(): 7}


class TestSplitLinear:
    def test_simple_affine(self):
        # 2*x + y  is  (2, y)  in x
        res = split_linear(BVAdd(BVMul(BVConst(2, 8), x), y), x)
        assert res is not None
        a, b = res
        assert a.value == 2
        assert b is y

    def test_var_absent(self):
        res = split_linear(y, x)
        assert res is not None
        a, b = res
        assert a.value == 0 and b is y

    def test_symbolic_coefficient(self):
        # y*x + 3: coefficient y, offset 3
        res = split_linear(BVAdd(BVMul(y, x), BVConst(3, 8)), x)
        assert res is not None
        a, b = res
        assert a is y and b.value == 3

    def test_quadratic_rejected(self):
        assert split_linear(BVMul(x, x), x) is None

    def test_var_inside_atom_rejected(self):
        a = ArrayVar("pa2", 8, 8)
        assert split_linear(Select(a, x), x) is None


def test_shared_sums_are_weighted_not_rewalked():
    """``x_{k+1} = x_k + x_k``: the sum DAG has 2**k paths; the weights
    make it one visit per node."""
    w = BVVar("pw", 64)
    t = w
    for _ in range(40):
        t = BVAdd(t, t)
    assert poly_of(BVSub(t, w)) == {(w,): (1 << 40) - 1}


def test_poly_to_term_appends_to_a_canonical_prefix():
    memo = PolyMemo()
    a, b, c = BVVar("pa", 8), BVVar("pb", 8), BVVar("pc", 8)
    ab = normalize_arith(BVAdd(a, b), memo)
    abc = normalize_arith(BVAdd(ab, c), memo)
    assert abc is normalize_arith(BVAdd(BVAdd(a, b), c))  # a fresh rebuild
    assert poly_of(abc, memo) == poly_of(abc)


_pv = [BVVar(f"pv{k}", 8) for k in range(3)]
_pleaf = st.one_of(st.sampled_from(_pv), st.integers(0, 255).map(
    lambda c: BVConst(c, 8)))
_pterm = st.recursive(_pleaf, lambda s: st.one_of(
    st.builds(BVAdd, s, s), st.builds(BVSub, s, s), st.builds(BVNeg, s),
    st.builds(BVMul, s, s)), max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(st.lists(_pterm, min_size=1, max_size=4))
def test_one_memo_twice_gives_the_same_terms(terms):
    """Normalizing a query twice with one memo returns the same terms,
    and every polynomial in the memo — the seeded ones of the normalized
    outputs included — equals a fresh walk of its term."""
    memo = PolyMemo()
    first = [normalize_arith(t, memo) for t in terms]
    eqs = [normalize_eq(t, u, memo) for t, u in zip(terms, first)]
    assert [normalize_arith(t, memo) for t in terms] == first
    assert [normalize_eq(t, u, memo) for t, u in zip(terms, first)] == eqs
    assert [normalize_arith(t) for t in terms] == first
    for t in first:
        assert normalize_arith(t, memo) is t
    for t, p in memo.polys.items():
        assert p == poly_of(t), t
