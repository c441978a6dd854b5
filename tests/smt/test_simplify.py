"""Unit tests for the simplifier, including read-over-write resolution with
polynomially-decided index (dis)equality."""

from hypothesis import given, settings, strategies as st

from repro.smt import (
    And, ArrayVar, BVAdd, BVAnd, BVConst, BVMul, BVSub, BVVar, BoolVar,
    CheckResult, BVUDiv, BVURem, Eq, FALSE, Implies, Ite, Kind, Not, Or,
    Select, Solver, Store, TRUE, UGe, ULe, ULt, ZeroExt,
)
from repro.smt.poly import PolyMemo, poly_of
from repro.smt.rewrite import harvest_units
from repro.smt.simplify import index_difference, simplify, simplify_all
from repro.smt.substitute import evaluate
from repro.smt.terms import iter_dag

x = BVVar("sx", 8)
y = BVVar("sy", 8)
a = ArrayVar("sa", 8, 8)


def test_arith_equality_discharges():
    # (x + y) * 2 == 2x + 2y  ->  true
    lhs = BVMul(BVAdd(x, y), BVConst(2, 8))
    rhs = BVAdd(BVMul(BVConst(2, 8), x), BVMul(BVConst(2, 8), y))
    assert simplify(Eq(lhs, rhs)) is TRUE


def test_arith_disequality_discharges():
    # x + 1 == x + 2  ->  false
    assert simplify(Eq(BVAdd(x, BVConst(1, 8)), BVAdd(x, BVConst(2, 8)))) is FALSE


def test_index_difference():
    assert index_difference(x, x) == 0
    assert index_difference(BVAdd(x, BVConst(1, 8)), x) == 1
    assert index_difference(x, y) is None
    assert index_difference(BVAdd(x, y), BVAdd(y, x)) == 0


def test_read_over_write_hit():
    v = BVVar("sv", 8)
    # select(store(a, x+1, v), 1+x) -> v
    t = Select(Store(a, BVAdd(x, BVConst(1, 8)), v), BVAdd(BVConst(1, 8), x))
    assert simplify(t) is v


def test_read_over_write_miss():
    v = BVVar("sv", 8)
    # indices differ by the constant 1: skip the store
    t = Select(Store(a, BVAdd(x, BVConst(1, 8)), v), x)
    s = simplify(t)
    assert s.kind == Kind.SELECT
    assert s.args[0] is a


def test_read_over_write_unknown_stays():
    v = BVVar("sv", 8)
    t = Select(Store(a, y, v), x)
    s = simplify(t)
    assert s.kind == Kind.SELECT  # cannot decide aliasing
    assert s.args[0].kind == Kind.STORE


def test_select_through_array_ite():
    p = Eq(x, BVConst(0, 8))
    v = BVVar("sv", 8)
    arr = Ite(p, Store(a, x, v), a)
    t = simplify(Select(arr, x))
    # Both branches resolve: ite(p, v, a[x])
    assert t.kind == Kind.ITE


def test_deep_store_chain_resolves_constant_reads():
    arr = a
    for i in range(20):
        arr = Store(arr, BVConst(i, 8), BVConst(i + 100, 8))
    assert simplify(Select(arr, BVConst(5, 8))).value == 105


def test_simplify_is_idempotent_on_examples():
    examples = [
        Eq(BVMul(BVAdd(x, y), BVConst(2, 8)), x),
        Select(Store(a, y, x), BVAdd(y, BVConst(1, 8))),
        And(ULt(x, y), Or(Eq(x, y), Not(Eq(x, y)))),
        Implies(ULt(x, y), ULt(x, BVAdd(y, BVConst(0, 8)))),
        # A coefficient 128 is its own negation at 8 bits: its side of the
        # normalized equality must not depend on the argument order.
        Eq(BVMul(x, BVConst(128, 8)), BVAdd(x, BVConst(128, 8))),
    ]
    for e in examples:
        once = simplify(e)
        assert simplify(once) is once


def test_simplify_all_shares_cache():
    ts = [Eq(BVAdd(x, y), BVAdd(y, x)), Eq(BVSub(x, x), BVConst(0, 8))]
    assert simplify_all(ts) == [TRUE, TRUE]


def test_tautology_or_with_negation():
    assert simplify(Or(Eq(x, y), Not(Eq(y, x)))) is TRUE


# ------------------------------------------------------------ unit propagation

u = BVVar("su", 8)
b = BoolVar("sb")
c = BoolVar("sc")


def _const(v: int):
    return BVConst(v, 8)


def test_unit_substituted_everywhere_and_definition_kept():
    pin = Eq(u, _const(4))
    out = simplify_all([pin, ULt(x, BVMul(u, _const(3))),
                        Eq(BVAdd(y, u), _const(9))])
    assert out[0] is pin                          # the definition stays
    assert out[1] is ULt(x, _const(12))           # u folded into 3*u
    assert out[2] is Eq(y, _const(5))


def test_unit_in_either_orientation_and_inside_top_level_and():
    pin = Eq(_const(4), u)
    out = simplify_all([And(pin, ULt(x, y)), ULt(x, u)])
    assert out[1] is ULt(x, _const(4))
    assert pin in out                             # nested definition kept


def test_conflicting_units_fold_to_false():
    out = simplify_all([Eq(u, _const(2)), Eq(u, _const(3))])
    assert FALSE in out
    s = Solver()
    s.add(Eq(u, _const(2)), Eq(u, _const(3)))
    assert s.check() is CheckResult.UNSAT


def test_bool_literal_units():
    out = simplify_all([b, Not(c), Or(Not(b), c, ULt(x, y)),
                        Ite(c, Eq(x, _const(1)), ULt(y, x))])
    assert out[:2] == [b, Not(c)]                 # definitions stay
    assert out[2] is ULt(x, y)                    # ~b and c folded away
    assert out[3] is ULt(y, x)                    # the ite chose else


def test_unit_exposed_by_normalization():
    # u + y == y + 2 only becomes the unit u == 2 after normalization;
    # a second pass then substitutes it.
    out = simplify_all([Eq(BVAdd(u, y), BVAdd(y, _const(2))),
                        ULt(x, BVMul(u, u))])
    assert out == [Eq(u, _const(2)), ULt(x, _const(4))]


def test_upper_half_unit_spelled_as_offset():
    # The normalizer spells u == 200 at 8 bits as u + 56 == 0; the unit is
    # still found and its value is 0 - 56 mod 2^8.
    pin = Eq(BVAdd(u, _const(56)), _const(0))
    out = simplify_all([pin, ULt(x, u)])
    assert out == [pin, ULt(x, _const(200))]


def test_units_under_or_not_ite_are_not_used():
    guarded = [Or(Eq(u, _const(2)), b), Not(Eq(u, _const(3))),
               Ite(b, Eq(u, _const(5)), c)]
    other = ULt(x, BVMul(u, _const(3)))
    out = simplify_all(guarded + [other])
    assert out[-1] is simplify(other)             # nothing substituted


def test_variable_chain_ending_in_constant_folds_to_it():
    # a == b & b == 3: both fold to 3, whichever order they come in.
    for chain in ([Eq(x, y), Eq(y, _const(3))],
                  [Eq(y, _const(3)), Eq(x, y)]):
        units = harvest_units(chain)
        assert units.subst == {x: _const(3), y: _const(3)}
        out = simplify_all(chain + [ULt(u, BVAdd(x, y))])
        assert out[-1] is ULt(u, _const(6))
        assert all(d in out for d in chain)       # definitions stay


def test_variable_equalities_map_to_lowest_tid():
    units = harvest_units([Eq(u, y), Eq(y, x)])
    rep = min((x, y, u), key=lambda t: t.tid)
    assert all(units.subst.get(v, v) is rep for v in (x, y, u))
    # A second, conflicting constant leaves its class through FALSE.
    out = simplify_all([Eq(x, y), Eq(x, _const(1)), Eq(y, _const(2))])
    assert FALSE in out


def test_facts_reharvested_in_substituted_space():
    """r < w licenses a radix of v only once v == w is propagated: the
    udiv and urem of the row-major index disappear."""
    v, w, n, q, r = (BVVar(f"sr.{s}", 8) for s in "vwnqr")
    terms = [Eq(v, w), ULe(BVMul(ZeroExt(n, 8), ZeroExt(v, 8)),
                           BVConst(256, 16)),
             ULt(q, n), ULt(r, w),
             Eq(BVUDiv(BVAdd(BVMul(q, v), r), v), y),
             Eq(BVURem(BVAdd(BVMul(q, w), r), w), x)]
    out = simplify_all(terms)
    kinds = {t.kind for f in out for t in iter_dag(f)}
    assert Kind.BVUDIV not in kinds and Kind.BVUREM not in kinds


def test_double_width_geometry_product_folds():
    """The +C shape that motivated the layer: a covering constraint over
    pinned dimensions folds to a comparison with a constant."""
    gx, bx, n = BVVar("sgx", 8), BVVar("sbx", 8), BVVar("sn", 8)
    cover = Eq(ZeroExt(n, 8), BVMul(ZeroExt(gx, 8), ZeroExt(bx, 8)))
    out = simplify_all([cover, Eq(gx, _const(2)), Eq(bx, _const(16))])
    assert not any(n.kind == Kind.BVMUL for t in out for n in iter_dag(t))
    assert out[0] is simplify(Eq(ZeroExt(n, 8), BVConst(32, 16)))


# ------------------------------------------------- term definitions (v == t)

da, db, dc, dd = (BVVar(f"sd.{s}", 8) for s in "abcd")


def _mentions(t, v):
    return any(n is v for n in iter_dag(t))


def test_occurs_check_keeps_self_reference():
    f = Eq(x, BVAdd(x, _const(1)))
    assert harvest_units([f]).subst == {}
    assert simplify_all([f]) == [FALSE]


def test_definition_cycle_eliminates_one_variable():
    # a == b*c, then b == a + 1 reads b == b*c + 1: the occurs check
    # refuses the second definition.
    terms = [Eq(da, BVMul(db, dc)), Eq(db, BVAdd(da, _const(1)))]
    units = harvest_units(terms)
    assert list(units.terms.values()) == [da]
    out = simplify_all(terms)
    assert not any(_mentions(t, da) for t in out[1:])


def test_definitions_compose():
    terms = [Eq(da, BVAdd(db, dc)), Eq(db, BVMul(_const(2), dd)),
             ULt(x, BVAdd(da, db))]
    units = harvest_units(terms)
    assert units.subst.keys() == {da, db}
    assert not any(_mentions(t, v) for t in units.subst.values()
                   for v in (da, db))
    out = simplify_all(terms)
    assert out[0] is Eq(da, simplify(BVAdd(BVMul(_const(2), dd), dc)))
    assert not any(_mentions(t, db) for t in out if t is not out[1])


def test_duplicate_definition_becomes_equation_of_values():
    t1, t2 = BVAdd(db, dc), BVMul(dd, _const(3))
    out = simplify_all([Eq(da, t1), Eq(da, t2)])
    assert out == [Eq(da, simplify(t1)), simplify(Eq(t1, t2))]


def test_kept_definition_is_simplified():
    # The definition is asserted as v == value simplified under the
    # query's units and facts: here b's constant and the zpow2 fact on
    # c turn b * (x urem c) + b into 3 * (x & (c - 1)) + 3.
    zpow2 = Eq(BVAnd(dc, BVSub(dc, _const(1))), _const(0))
    terms = [Eq(db, _const(3)), zpow2,
             Eq(da, BVAdd(BVMul(db, BVURem(x, dc)), db)), ULt(y, da)]
    out = simplify_all(terms)
    kinds = {n.kind for t in out for n in iter_dag(t)}
    assert Kind.BVUREM not in kinds
    value = simplify(BVAdd(BVMul(_const(3), BVAnd(x, BVSub(dc, _const(1)))),
                           _const(3)))
    assert Eq(da, value) in out
    assert ULt(y, value) in out


_leaf = st.sampled_from([x, y, u, _const(0), _const(1), _const(3),
                         _const(200)])
_bv = st.recursive(_leaf, lambda s: st.one_of(
    st.builds(BVAdd, s, s), st.builds(BVMul, s, s)), max_leaves=4)
_atom = st.one_of(st.builds(Eq, _bv, _bv), st.builds(ULt, _bv, _bv),
                  st.builds(Eq, st.sampled_from([x, y, u]), _leaf),
                  st.sampled_from([b, Not(b), c]))
_formula = st.recursive(_atom, lambda s: st.one_of(
    st.builds(Not, s), st.builds(Or, s, s), st.builds(And, s, s)),
    max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(_formula, min_size=1, max_size=4))
def test_simplify_all_idempotent_and_model_preserving(terms):
    once = simplify_all(terms)
    assert simplify_all(once) == once
    s = Solver(validate_models=True)
    s.add(*terms)
    r = s.check()
    ref = Solver(do_simplify=False)
    ref.add(*terms)
    assert r is ref.check()


@settings(max_examples=100, deadline=None)
@given(st.lists(_formula, min_size=1, max_size=4))
def test_one_polynomial_memo_twice_gives_identical_terms(terms):
    """Simplifying a query twice with one polynomial memo gives the same
    terms, and every polynomial in the memo equals a fresh walk."""
    polys = PolyMemo()
    first = simplify_all(terms, polys)
    assert simplify_all(terms, polys) == first
    for t, p in polys.polys.items():
        assert p == poly_of(t), t


_definition = st.builds(Eq, st.sampled_from([x, y, u]), _bv)
_env = st.fixed_dictionaries({x: st.integers(0, 255), y: st.integers(0, 255),
                              u: st.integers(0, 255), b: st.booleans(),
                              c: st.booleans()})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_definition, _formula), min_size=1, max_size=5),
       st.lists(_env, min_size=1, max_size=8))
def test_definitions_preserve_truth_and_stay_idempotent(terms, envs):
    """With ``v == t`` conjuncts among them, the simplified conjunction
    has the input's truth value under every total assignment, and
    simplifying it again changes nothing."""
    out = simplify_all(terms)
    assert simplify_all(out) == out
    for env in envs:
        assert evaluate(And(*out), env) == evaluate(And(*terms), env)


def test_validated_models_bind_pinned_variables():
    s = Solver(validate_models=True)
    s.add(Eq(u, _const(7)), b, ULt(x, BVAdd(u, _const(1))),
          UGe(x, _const(7)))
    assert s.check() is CheckResult.SAT
    m = s.model()
    assert m.eval(u) == 7 and m.eval(b) is True and m.eval(x) == 7


def test_pinned_unsat_under_certify_passes_proof_checker():
    # After substitution t < 2*4 and t >= 8 remain: a real SAT-level
    # refutation, not a term-level FALSE.
    t = BVVar("st", 8)
    s = Solver(certify=True)
    s.add(Eq(u, _const(4)), ULt(t, BVMul(u, _const(2))), UGe(t, _const(8)))
    assert s.check() is CheckResult.UNSAT
    cert = s.stats["certify"]
    assert cert["rejected"] == 0 and cert["trivial"] == 0


def test_concretized_check_certifies():
    from repro.check.configs import transpose_assumptions
    from repro.check.result import Verdict
    from repro.kernels import load_pair
    from repro.param.equivalence import ParamOptions, check_equivalence_param
    from repro.smt import SolveConfig
    (_, si), (_, ti) = load_pair("Transpose")
    out = check_equivalence_param(
        si, ti, 8, assumption_builder=transpose_assumptions,
        concretize={"bdim": (2, 2, 1), "gdim": (2, 2),
                    "scalars": {"width": 4, "height": 4}},
        options=ParamOptions(timeout=120, solve=SolveConfig.from_env(
            cache=False, certify=True)))
    assert out.verdict is Verdict.VERIFIED
    cert = out.stats["certify"]
    assert cert["checked"] > 0 and cert["rejected"] == 0


def test_bit_vector_variable_is_not_a_unit():
    """A top-level bit-vector variable pins nothing (only a Bool one is a
    unit), so simplifying bit-vector terms as a list does not raise."""
    assert harvest_units([x]).subst == {}
    assert simplify_all([x, BVAdd(x, y)]) == [x, BVAdd(x, y)]


def _module():
    import importlib
    return importlib.import_module("repro.smt.simplify")


def test_select_through_array_ites_resolves_each_node_once(monkeypatch):
    """The serialized bitonic sort (n=8) reads its output through a DAG of
    array ites; resolving each ``(array, index)`` once keeps the
    ``_resolve_select`` calls to hundreds (expanded as a tree: millions)."""
    from repro.encode.nonparam import encode_kernel
    from repro.kernels import load
    from repro.lang import LaunchConfig

    _, info = load("bitonicSort")
    arrays = {g: ArrayVar(f"bt.{g}", 8, 8) for g in info.global_arrays}
    model = encode_kernel(info, LaunchConfig(bdim=(8, 1, 1), width=8), {},
                          arrays)
    cell = BVVar("bt.cell", 8)
    outputs = [Select(arr, cell) for arr in model.final_globals.values()]
    mod = _module()
    calls = []
    real = mod._resolve_select

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mod, "_resolve_select", counting)
    cache, memo = {}, mod.QueryMemo()
    for t in outputs:
        simplify(t, cache, memo=memo)
    assert 0 < len(calls) <= 2000


def _reduction_front_end_adds(n: int, monkeypatch) -> int:
    """``BVAdd`` calls the normalizer makes on the serialized Reduction
    pair at 16 bits: simplify, eliminate arrays, simplify again — the
    solver's front end.  The two kernels read different input arrays, so
    the query does not fold before the front end sees it."""
    from repro.encode.nonparam import encode_kernel
    from repro.kernels import load
    from repro.lang import LaunchConfig
    from repro.smt import Ne
    from repro.smt import poly as poly_mod
    from repro.smt.arrays import eliminate_arrays
    from repro.smt.poly import PolyMemo

    outputs = []
    for name, tag in (("naiveReduce", "ra"), ("optimizedReduce", "rb")):
        _, info = load(name)
        arrays = {g: ArrayVar(f"{tag}.{g}", 16, 16)
                  for g in info.global_arrays}
        model = encode_kernel(info, LaunchConfig(bdim=(n, 1, 1), width=16),
                              {}, arrays)
        outputs.append(Select(model.final_globals["g_odata"],
                              BVVar("rcell", 16)))
    adds = []
    real = poly_mod.BVAdd

    def counting(p, q):
        adds.append(1)
        return real(p, q)

    monkeypatch.setattr(poly_mod, "BVAdd", counting)
    polys = PolyMemo()
    work = simplify_all([Ne(*outputs)], polys)
    flat, _ = eliminate_arrays(work, polys)
    simplify_all(flat, polys)
    monkeypatch.undo()
    return len(adds)


def test_reduction_front_end_is_linear_in_n(monkeypatch):
    """Each doubling of n costs the normalizer at most 2.5x the sum
    constructions (a quadratic front end costs 4x)."""
    counts = [_reduction_front_end_adds(n, monkeypatch)
              for n in (64, 128, 256, 512)]
    assert counts[0] > 0
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.5 * small, counts
