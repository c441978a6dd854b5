"""Word-level rewriter: unit rules, differential equisatisfiability over
the example kernels' race VCs, and property tests on random terms.

The rewriter (:mod:`repro.smt.rewrite`, driven by
:mod:`repro.smt.simplify`) must be *verdict-invisible*: every rewritten
query is equisatisfiable with the original — the differential suite here
proves that on the real VCs the race checker emits for the ``examples/``
kernels and on the Reduction pair's fully symbolic equivalence VCs, and
the hypothesis properties prove semantic equivalence of the
simplifier (ITE/adder/shift recognition included) on random terms by
exhaustive evaluation at small width.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.races import _interval_queries
from repro.check.result import Verdict
from repro.check.vcs import Refutation
from repro.kernels import load, load_pair
from repro.param.ca import LoopModel, PlainModel, extract_model
from repro.param.equivalence import ParamOptions, check_equivalence_param
from repro.param.geometry import Geometry
from repro.smt import (
    And, BVAnd, BVConst, BVVar, BoolVar, CheckResult, Eq, Ite, Not, Or,
    SolveConfig, Solver, ZeroExt, fresh_scope,
)
from repro.smt.rewrite import Facts, harvest_facts, rewrite_node
from repro.smt.simplify import simplify, simplify_all
from repro.smt.substitute import evaluate
from repro.smt.terms import (
    BVAdd, BVLshr, BVMul, BVShl, BVSub, BVUDiv, BVURem, Kind, Term, ULe, ULt,
    iter_dag,
)

W = 4  # property-test width: exhaustive over 2 vars is 256 assignments
X = BVVar("rw.x", W)
Y = BVVar("rw.y", W)


def _zpow2_fact(t: Term) -> Term:
    """The power-of-two test the loop abstraction emits: t & (t-1) == 0."""
    return Eq(BVAnd(t, BVSub(t, BVConst(1, t.sort.width))),
              BVConst(0, t.sort.width))


# ------------------------------------------------------------ unit rules


class TestFactHarvest:
    def test_harvests_zpow2_from_conjunct(self):
        k = BVVar("rwk", 8)
        facts = harvest_facts([_zpow2_fact(k), ULt(k, BVConst(9, 8))])
        assert facts.is_zpow2(k)
        assert not facts.is_zpow2(BVVar("rwother", 8))

    def test_closure_over_products_shifts_and_doubling(self):
        k = BVVar("rwc", 8)
        facts = harvest_facts([_zpow2_fact(k)])
        assert facts.is_zpow2(BVConst(8, 8))
        assert facts.is_zpow2(BVMul(k, BVConst(2, 8)))
        assert facts.is_zpow2(BVShl(k, BVConst(3, 8)))
        assert facts.is_zpow2(BVAdd(k, k))
        assert not facts.is_zpow2(BVAdd(k, BVConst(1, 8)))

    def test_no_facts_without_the_pattern(self):
        k = BVVar("rwn", 8)
        assert not harvest_facts([ULt(k, BVConst(9, 8))])


class TestRewriteRules:
    def test_urem_by_zpow2_becomes_mask(self):
        k = BVVar("rwm", 8)
        facts = harvest_facts([_zpow2_fact(k)])
        out = rewrite_node(BVURem(BVVar("rwu", 8), k), facts)
        assert out.kind == Kind.BVAND

    def test_urem_untouched_without_fact(self):
        k, x = BVVar("rwm2", 8), BVVar("rwu2", 8)
        t = BVURem(x, k)
        assert rewrite_node(t, Facts()) is t

    def test_eq_over_ite_collapses_matching_branch(self):
        c = BVVar("rwc2", 8)
        cond = ULt(c, BVConst(4, 8))
        a, b = BVVar("rwa", 8), BVVar("rwb", 8)
        out = rewrite_node(Eq(Ite(cond, a, b), a), Facts())
        assert out.kind == Kind.OR
        out2 = rewrite_node(Eq(Ite(cond, a, b), b), Facts())
        assert out2.kind in (Kind.OR, Kind.NOT)


# ------------------------------------------------------------ mixed radix
#
# At W bits: ``u * v <= 2^W`` (extent_fits) or ``s == u * v`` (covering)
# makes (u, v) a radix pair; with ``q < u`` and ``r < v``, ``q*v + r`` has
# the unique digits (q, r).

RU, RV, RS = BVVar("mr.u", W), BVVar("mr.v", W), BVVar("mr.s", W)
RQ, RR = BVVar("mr.q", W), BVVar("mr.r", W)
RQ2, RR2 = BVVar("mr.q2", W), BVVar("mr.r2", W)
RX = BVAdd(BVMul(RQ, RV), RR)
RX2 = BVAdd(BVMul(RQ2, RV), RR2)
EXTENT = ULe(BVMul(ZeroExt(RU, W), ZeroExt(RV, W)), BVConst(1 << W, 2 * W))
COVERING = Eq(ZeroExt(RS, W), BVMul(ZeroExt(RU, W), ZeroExt(RV, W)))
DIGITS = [ULt(RQ, RU), ULt(RR, RV), ULt(RQ2, RU), ULt(RR2, RV)]


def _radix_models(pair: Term):
    """Every assignment satisfying ``pair`` and DIGITS (enumerated by
    construction, each checked against the facts by evaluation)."""
    for u in range(1 << W):
        for v in range(1 << W):
            s = u * v
            if s > 1 << W or (pair is COVERING and s == 1 << W):
                continue
            for q in range(u):
                for r in range(v):
                    for q2 in range(u):
                        for r2 in range(v):
                            env = {RU: u, RV: v, RS: s, RQ: q, RR: r,
                                   RQ2: q2, RR2: r2}
                            assert all(evaluate(f, env)
                                       for f in (pair, *DIGITS))
                            yield env


@pytest.mark.parametrize("pair", [EXTENT, COVERING],
                         ids=["extent_fits", "covering"])
def test_mixed_radix_rules_valid_on_fact_models(pair):
    """Brute force at 4 bits: on every model of the facts, each rewritten
    ==, udiv and urem evaluates like the original."""
    facts = harvest_facts([pair, *DIGITS])
    x, x2 = simplify(RX), simplify(RX2)
    cases = [Eq(x, x2), Eq(RR, x2), BVUDiv(x, RV), BVURem(x, RV),
             BVUDiv(RR, RV)]
    rewritten = [rewrite_node(t, facts) for t in cases]
    assert rewritten[0].kind == Kind.AND
    assert rewritten[1].kind == Kind.AND
    assert rewritten[2] is RQ and rewritten[3] is RR
    assert rewritten[4] is BVConst(0, W)
    n = 0
    for env in _radix_models(pair):
        n += 1
        for t, r in zip(cases, rewritten):
            assert evaluate(t, env) == evaluate(r, env), (t, r, env)
    assert n > 1000


class TestMixedRadixGuards:
    """The rule must not fire without every fact it rests on."""

    @staticmethod
    def _fires(conjuncts) -> bool:
        facts = harvest_facts(conjuncts)
        x = simplify(RX)
        return rewrite_node(BVUDiv(x, RV), facts) is not BVUDiv(x, RV)

    def test_fires_with_all_facts(self):
        assert self._fires([EXTENT, *DIGITS])

    def test_fact_under_or_is_ignored(self):
        flag = BoolVar("mr.flag")
        assert not self._fires([Or(EXTENT, flag), *DIGITS])
        assert not self._fires([EXTENT, Or(ULt(RR, RV), flag),
                                ULt(RQ, RU)])

    def test_fact_under_not_is_ignored(self):
        # not (v <= r) means r < v, but only positive conjuncts count.
        assert not self._fires([EXTENT, Not(ULe(RV, RR)), ULt(RQ, RU)])
        prod = BVMul(ZeroExt(RU, W), ZeroExt(RV, W))
        assert not self._fires([Not(ULt(BVConst(1 << W, 2 * W), prod)),
                                *DIGITS])

    def test_no_radix_pair_without_extent_or_covering(self):
        assert not self._fires(DIGITS)
        # A product that may wrap at double width is no radix pair.
        narrow = ULe(BVMul(ZeroExt(RU, 2), ZeroExt(RV, 2)),
                     BVConst(1 << W, W + 2))
        assert not self._fires([narrow, *DIGITS])

    def test_missing_low_digit_bound(self):
        assert not self._fires([EXTENT, ULt(RQ, RU)])

    def test_missing_high_digit_bound(self):
        assert not self._fires([EXTENT, ULt(RR, RV)])


# ----------------------------------------- differential: example kernels


def _race_vcs(kernel: str, width: int, builder, conc: dict):
    """The exact VC term lists the race checker would solve (bounded
    round), reproduced via its own extraction pipeline."""
    _, info = load(kernel)
    geometry = Geometry.create(width)
    inputs = {n: BVVar(f"in.{n}", width) for n in info.scalar_params}
    model = extract_model(info, geometry, inputs, hint="rc")
    assumptions = geometry.base_assumptions() + model.assumes
    assumptions += list(builder(geometry, inputs))
    if "bdim" in conc:
        assumptions += [Eq(geometry.bdim[a], v) for a, v in
                        zip(("x", "y", "z"), conc["bdim"])]
    if "gdim" in conc:
        assumptions += [Eq(geometry.gdim[a], v) for a, v in
                        zip(("x", "y"), conc["gdim"])]
    for name, value in (conc.get("scalars") or {}).items():
        assumptions.append(Eq(inputs[name], value))
    queries = []

    def walk(segments):
        for seg in segments:
            if isinstance(seg, PlainModel):
                queries.extend(
                    _interval_queries(model, seg, geometry, info, []))
            else:
                assert isinstance(seg, LoopModel)
                constraint = seg.space.constraint(seg.loop_var)
                for body_seg in seg.body:
                    queries.extend(_interval_queries(
                        model, body_seg, geometry, info, [constraint]))

    walk(model.segments)
    small = min(4, (1 << width) - 1)
    bounds = [v.ule(small) for v in (*geometry.bdim.values(),
                                     *geometry.gdim.values())]
    return [[*assumptions, *q.terms, *bounds] for q in queries]


KERNEL_CASES = [
    ("naiveReduce", reduction_assumptions, {"bdim": (8, 1, 1),
                                            "gdim": (1, 1)}),
    ("optimizedReduce", reduction_assumptions, {"bdim": (8, 1, 1),
                                                "gdim": (1, 1)}),
    ("naiveTranspose", transpose_assumptions,
     {"bdim": (2, 2, 1), "gdim": (2, 2),
      "scalars": {"width": 4, "height": 4}}),
    ("optimizedTranspose", transpose_assumptions,
     {"bdim": (2, 2, 1), "gdim": (2, 2),
      "scalars": {"width": 4, "height": 4}}),
]


@pytest.mark.parametrize("kernel,builder,conc",
                         KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_rewritten_vcs_equisatisfiable_with_raw(kernel, builder, conc):
    """Every race VC of the example kernels answers identically with the
    word-level rewriter on and off (do_simplify gates the whole rewrite
    pipeline; verdicts must be bit-identical)."""
    with fresh_scope():
        vc_lists = _race_vcs(kernel, 8, builder, conc)
        assert vc_lists, f"no VCs extracted for {kernel}"
        for terms in vc_lists:
            rewritten = Solver(timeout=60.0, do_simplify=True,
                               validate_models=True)
            rewritten.add(*terms)
            raw = Solver(timeout=60.0, do_simplify=False)
            raw.add(*terms)
            got, want = rewritten.check(), raw.check()
            assert got is not CheckResult.UNKNOWN
            assert got is want


def test_reduction_equivalence_vcs_equisatisfiable_with_raw(monkeypatch):
    """Every query Reduction param -C sends at 8 bits — the coverage VCs,
    where the quotient identity and the udiv bound fire, among them —
    answers identically with the word-level rewriter on and off."""
    verdicts = []
    simplified = []
    query = Refutation._query

    def compare(self, terms):
        rewritten = Solver(timeout=60.0, do_simplify=True,
                           validate_models=True)
        rewritten.add(*terms)
        raw = Solver(timeout=60.0, do_simplify=False)
        raw.add(*terms)
        verdicts.append((rewritten.check(), raw.check()))
        simplified.append(simplify_all(list(terms)))
        return query(self, terms)

    monkeypatch.setattr(Refutation, "_query", compare)
    (_, si), (_, ti) = load_pair("Reduction")
    out = check_equivalence_param(
        si, ti, 8, assumption_builder=reduction_assumptions,
        options=ParamOptions(timeout=120,
                             solve=SolveConfig(jobs=1, cache=False)))
    assert out.verdict is Verdict.VERIFIED
    assert len(verdicts) == out.vcs_checked > 0
    for got, want in verdicts:
        assert got is not CheckResult.UNKNOWN
        assert got is want
    # No divider is left for the blaster.
    assert not any(n.kind == Kind.BVUDIV
                   for terms in simplified for n in iter_dag(*terms))


# -------------------------------------------------- hypothesis properties


def _quotient_multiple(j: int, x: Term, m: Term) -> Term:
    """``j * m * (x udiv m)``: the shape the quotient identity matches."""
    return BVMul(BVConst(j, W), BVMul(m, BVUDiv(x, m)))


def _terms(depth: int):
    """Random width-W bit-vector terms over X, Y with the operator mix the
    rewriter targets (adders, shifts, multiplies, udiv, urem, ITE chains),
    biased towards the quotient identity's ``j*m*(x udiv m)``."""
    leaf = st.one_of(
        st.sampled_from([X, Y]),
        st.integers(0, (1 << W) - 1).map(lambda v: BVConst(v, W)))
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    binop = st.sampled_from(
        [BVAdd, BVSub, BVMul, BVAnd, BVShl, BVLshr, BVUDiv, BVURem])
    return st.one_of(
        leaf,
        st.tuples(binop, sub, sub).map(lambda t: t[0](t[1], t[2])),
        st.builds(_quotient_multiple, st.integers(1, (1 << W) - 1), sub,
                  sub),
        st.tuples(sub, sub, sub).map(
            lambda t: Ite(ULt(t[0], t[1]), t[1], t[2])))


def _envs():
    return st.tuples(st.integers(0, (1 << W) - 1),
                     st.integers(0, (1 << W) - 1)).map(
        lambda xy: {X: xy[0], Y: xy[1]})


@settings(max_examples=300, deadline=None)
@given(t=_terms(3))
def test_simplify_preserves_semantics_everywhere(t):
    """simplify(t) evaluates identically to t under *every* assignment
    (exhaustive at width 4 over both variables)."""
    s = simplify(t)
    for x in range(1 << W):
        for y in range(1 << W):
            env = {X: x, Y: y}
            assert evaluate(t, env) == evaluate(s, env), (t, s, env)


@settings(max_examples=200, deadline=None)
@given(t=_terms(2), env=_envs())
def test_boolean_contexts_preserved(t, env):
    """Comparisons and equalities over simplified operands keep their
    truth value (the shapes the ITE-equality rules fire on)."""
    for prop in (Eq(t, X), ULt(t, Y), Eq(Ite(ULt(X, Y), t, X), t)):
        assert evaluate(prop, env) == evaluate(simplify(prop), env)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(0, (1 << W) - 1), m=st.integers(0, (1 << W) - 1))
def test_urem_mask_rule_valid_on_fact_models(x, m):
    """On every model satisfying the harvested zpow2 fact, the rewritten
    urem agrees with the original (the rule's model-preservation claim)."""
    mv = BVVar("rw.m", W)
    facts = harvest_facts([_zpow2_fact(mv)])
    rewritten = rewrite_node(BVURem(X, mv), facts)
    assert rewritten.kind != Kind.BVUREM  # the rule fired
    env = {X: x, mv: m}
    if evaluate(_zpow2_fact(mv), env):
        assert evaluate(rewritten, env) == evaluate(BVURem(X, mv), env)


@pytest.mark.parametrize("j", range(1, 1 << W))
def test_quotient_identity_valid_everywhere(j):
    """``j*m*(x udiv m)`` becomes ``j*(x - x urem m)`` with no facts, and
    agrees with the original on every assignment — ``m = 0`` included,
    where SMT-LIB's ``x udiv 0`` is all ones and ``x urem 0`` is ``x``."""
    mv = BVVar("rw.qm", W)
    t = _quotient_multiple(j, X, mv)
    s = simplify(t)
    assert not any(n.kind in (Kind.BVUDIV, Kind.BVMUL) and mv in n.args
                   for n in iter_dag(s)), s  # the rule fired
    for x in range(1 << W):
        for m in range(1 << W):
            env = {X: x, mv: m}
            assert evaluate(t, env) == evaluate(s, env), (t, s, env)


_QK = BVVar("rw.qk", W)
_QUOTIENT_TERM = BVMul(_QK, BVUDiv(X, BVMul(_QK, BVConst(2, W))))


@pytest.mark.parametrize("t", [
    BVAdd(_QUOTIENT_TERM, _QUOTIENT_TERM),
    BVAdd(BVAdd(_QUOTIENT_TERM, _QUOTIENT_TERM), Y),
], ids=["merged", "merged-plus-y"])
def test_quotient_identity_after_merge_is_idempotent(t):
    """A sum whose monomials only merge into ``m*(x udiv m)`` (here
    ``m = k*2``, from ``k*(x udiv m)`` twice) gets the quotient identity
    in the same pass: a second ``simplify`` changes nothing, and the
    result agrees with ``t`` on every assignment."""
    s = simplify(t)
    assert simplify(s) is s, (s, simplify(s))
    assert not any(n.kind == Kind.BVUDIV for n in iter_dag(s)), s
    for x in range(1 << W):
        for k in range(1 << W):
            for y in range(1 << W):
                env = {X: x, _QK: k, Y: y}
                assert evaluate(t, env) == evaluate(s, env), (t, s, env)


def test_quotient_remainder_folds_under_zero_fact():
    """With ``x urem m == 0`` and a zpow2 ``m`` asserted (the Reduction
    coverage VC's facts), ``m*(x udiv m)`` is ``x`` on every model."""
    mv = BVVar("rw.qz", W)
    zero = Eq(BVURem(X, mv), BVConst(0, W))
    product = BVMul(mv, BVUDiv(X, mv))
    facts = harvest_facts([simplify(zero)])
    assert simplify(product, facts=facts) is X
    facts = harvest_facts([_zpow2_fact(mv)])
    facts |= harvest_facts([simplify(zero, facts=facts)])
    assert simplify(product, facts=facts) is X
    for x in range(1 << W):
        for m in range(1 << W):
            env = {X: x, mv: m}
            if evaluate(zero, env):
                assert evaluate(product, env) == x


RM = BVVar("rw.rm", W)
_operand = _terms(1)
_quotient_conjunct = st.one_of(
    st.builds(lambda x: Eq(BVURem(x, RM), BVConst(0, W)), _operand),
    st.builds(ULt, _operand, _operand),
    st.builds(lambda x, b: ULt(BVUDiv(x, RM), b), _operand, _operand),
    st.builds(lambda x, y: Eq(x, _quotient_multiple(1, y, RM)), _operand,
              _operand),
    st.just(_zpow2_fact(RM)))


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(st.recursive(
    _quotient_conjunct,
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s)),
    max_leaves=3), min_size=1, max_size=5),
    y=st.integers(0, (1 << W) - 1))
def test_quotient_facts_preserve_truth(terms, y):
    """Conjunctions of ``x urem m == 0``, bounds, ``(x udiv m) < b`` and
    quotient products — the zero facts and bounds the two rules read,
    top-level or nested — keep their truth value under
    ``simplify_all`` for every ``x`` and ``m``."""
    out = simplify_all(terms)
    before, after = And(*terms), And(*out)
    for x in range(1 << W):
        for m in range(1 << W):
            env = {X: x, Y: y, RM: m}
            assert evaluate(before, env) == evaluate(after, env), (out, env)


def test_udiv_bound_rule_valid_on_fact_models():
    """Exhaustive at 4 bits: on every model of the harvested bound
    ``x < b``, ``(x udiv m) < b`` agrees with its rewrite ``m != 0``."""
    mv, bv = BVVar("rw.bm", W), BVVar("rw.bb", W)
    bound = ULt(X, bv)
    facts = harvest_facts([bound])
    t = ULt(BVUDiv(X, mv), bv)
    rewritten = rewrite_node(t, facts)
    assert rewritten is Not(Eq(mv, BVConst(0, W)))  # the rule fired
    assert rewrite_node(t, harvest_facts([ULt(Y, bv)])) is t
    n = 0
    for x in range(1 << W):
        for m in range(1 << W):
            for b in range(1 << W):
                env = {X: x, mv: m, bv: b}
                if evaluate(bound, env):
                    n += 1
                    assert evaluate(t, env) == evaluate(rewritten, env), env
    assert n == 16 * 120  # 120 pairs x < b, for each of the 16 m


# ------------------------------------------------- switch normal form
#
# An ite chain whose guards pin one selector to distinct constants is a
# switch: its cases are pairwise exclusive, so the simplifier sorts them.

SEL, SEL2 = BVVar("sw.x", W), BVVar("sw.y", W)
SW_VALS = [BVVar(f"sw.v{i}", W) for i in range(4)]
SW_REST = BVVar("sw.rest", W)
SW_BOOLS = [BoolVar(f"sw.b{i}") for i in range(4)]
#: Lower- and upper-half constants: the normalizer spells ``x == 12`` at
#: 4 bits as ``x + 4 == 0``.
SW_CONSTS = [0, 1, 5, 8, 12, 15]
FOREIGN = [ULt(SEL, SEL2), Eq(SEL2, BVConst(3, W)),
           Eq(BVAdd(SEL, SEL2), BVConst(1, W))]


def _chain(cases, rest=SW_REST):
    """``ite(g_1, v_1, ite(g_2, v_2, ... rest))`` from ``(guard, value)``
    pairs, outermost first."""
    out = rest
    for guard, value in reversed(cases):
        out = Ite(guard, value, out)
    return out


def _switch(consts, values, sel=SEL):
    return [(Eq(sel, BVConst(c, W)), v) for c, v in zip(consts, values)]


def _links(t: Term):
    while t.kind == Kind.ITE:
        yield t
        t = t.args[2]


_cases = st.lists(st.tuples(st.sampled_from(SW_CONSTS),
                            st.sampled_from(SW_VALS)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(top=_cases, foreign=st.sampled_from([None, *FOREIGN]),
       bottom=_cases,
       values=st.lists(st.integers(0, (1 << W) - 1), min_size=6,
                       max_size=6))
def test_switch_form_preserves_semantics_and_is_idempotent(
        top, foreign, bottom, values):
    """Duplicate constants (the first case wins) and a foreign guard in
    the middle: the sorted chain agrees with the input on every selector
    value, and simplifying it again changes nothing."""
    cases = [(Eq(SEL, BVConst(c, W)), v) for c, v in top]
    if foreign is not None:
        cases.append((foreign, SW_REST))
    cases += [(Eq(SEL, BVConst(c, W)), v) for c, v in bottom]
    t = _chain(cases, rest=BVConst(values[-1], W))
    s = simplify(t)
    env = dict(zip([SEL2, *SW_VALS, SW_REST], values))
    for x in range(1 << W):
        env[SEL] = x
        assert evaluate(t, env) == evaluate(s, env), (t, s, env)
    assert simplify(s) is s


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_switch_form_is_order_independent(data):
    """Two serializations of one cell->value map — the same disjoint
    cases in different orders — simplify to one interned term."""
    consts = data.draw(st.lists(st.sampled_from(range(1 << W)), min_size=2,
                                max_size=8, unique=True))
    values = data.draw(st.lists(st.sampled_from(SW_VALS),
                                min_size=len(consts), max_size=len(consts)))
    cases = _switch(consts, values)
    shuffled = data.draw(st.permutations(cases))
    assert simplify(_chain(cases)) is simplify(_chain(shuffled))


@settings(max_examples=100, deadline=None)
@given(consts=st.lists(st.sampled_from(SW_CONSTS), min_size=2, max_size=6))
def test_switch_rule_leaves_bool_ites_and_mixed_selectors_alone(consts):
    bools = _chain(_switch(consts, SW_BOOLS * 2), rest=SW_BOOLS[-1])
    sels = [SEL, SEL2] * len(consts)
    mixed = _chain([(Eq(s, BVConst(c, W)), v) for s, c, v in
                    zip(sels, consts, SW_VALS * 2)])
    for t in (bools, mixed):
        assert t.kind == Kind.ITE
        for link in _links(t):
            assert rewrite_node(link, Facts()) is link


def test_switch_duplicate_constant_keeps_the_first_case():
    a, b = SW_VALS[:2]
    t = _chain(_switch([4, 9, 4], [a, SW_VALS[2], b]))
    s = simplify(t)
    assert [link.args[1] for link in _links(s)] == [SW_VALS[2], a]
