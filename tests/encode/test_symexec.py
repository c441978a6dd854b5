"""Unit tests for the shared symbolic expression evaluator."""

from hypothesis import given, settings, strategies as st

from repro.lang import LaunchConfig, check_kernel, parse_expr, parse_kernel
from repro.smt import (
    FALSE, TRUE, And, ArrayVar, BVAdd, BVConst, BVMul, BVNeg, BVNot, BVVar,
    Ite, Kind, Ne, Not, Select, ULt, evaluate, intern_stats,
)
from repro.encode.nonparam import _Encoder, _Thread
from repro.encode.symexec import (
    _ARITH, _CMP, eval_bool, eval_expr, peval, peval_bool,
)
from repro.kernels import KERNELS


class Scope:
    """A minimal SymScope over fixed locals and one array."""

    width = 8

    def __init__(self):
        self.vars = {n: BVVar(f"se.{n}", 8) for n in "abcn"}
        self.buf = ArrayVar("se.buf", 8, 8)

    def local(self, name, line):
        return self.vars[name]

    def builtin(self, base, axis, line):
        return BVConst({"x": 3, "y": 5, "z": 0}[axis], 8)

    def read_array(self, name, indices, line):
        assert name == "buf"
        return Select(self.buf, indices[0])


S = Scope()


def ev(src):
    return eval_expr(parse_expr(src), S)


def evb(src):
    return eval_bool(parse_expr(src), S)


def concrete(term, env=None):
    base = {v: i + 1 for i, v in enumerate(S.vars.values())}
    base.update(env or {})
    return evaluate(term, base)


class TestValues:
    def test_literals_and_locals(self):
        assert ev("42").value == 42
        assert ev("a") is S.vars["a"]

    def test_builtins(self):
        assert ev("tid.x").value == 3
        assert ev("bdim.y").value == 5

    def test_arith_matches_python(self):
        t = ev("(a + b) * 3 - c")
        assert concrete(t) == ((1 + 2) * 3 - 3) % 256

    def test_division_operators(self):
        assert concrete(ev("a / b")) == 0  # 1 // 2
        assert concrete(ev("b % a")) == 0  # 2 % 1

    def test_shifts_and_bitwise(self):
        assert concrete(ev("a << 3")) == 8
        assert concrete(ev("b >> 1")) == 1
        assert concrete(ev("a & b")) == 0
        assert concrete(ev("a | b")) == 3
        assert concrete(ev("a ^ b")) == 3
        assert concrete(ev("~a")) == 254

    def test_comparison_as_value_is_01(self):
        assert concrete(ev("a < b")) == 1
        assert concrete(ev("b < a")) == 0

    def test_bool_ops_as_value(self):
        assert concrete(ev("a < b && b < c")) == 1
        assert concrete(ev("!(a < b)")) == 0

    def test_ternary(self):
        assert concrete(ev("a < b ? a : b")) == 1
        assert concrete(ev("b < a ? a : b")) == 2

    def test_min_max(self):
        assert concrete(ev("min(a, b)")) == 1
        assert concrete(ev("max(a, b)")) == 2

    def test_unary_minus(self):
        assert concrete(ev("-a")) == 255

    def test_array_read(self):
        t = ev("buf[a + 1]")
        assert t.kind == Kind.SELECT


class TestConditions:
    def test_comparisons_are_bool(self):
        assert evb("a < b").sort.is_bool()
        assert evb("a == b").sort.is_bool()

    def test_connectives(self):
        t = evb("a < b && (b == c || a != c)")
        assert t.sort.is_bool()
        assert concrete(t) == (1 < 2 and (2 == 3 or 1 != 3))

    def test_implication(self):
        t = evb("a == 1 ==> b == 2")
        assert concrete(t) is True

    def test_value_as_condition_means_nonzero(self):
        t = evb("a")
        assert concrete(t) is True
        assert concrete(t, {S.vars["a"]: 0}) is False

    def test_not(self):
        assert concrete(evb("!(a == 1)")) is False


# ------------------------------------------------ folds vs. constructors


class IntScope:
    """Binds ``a`` and ``b`` to ints, so every expression folds."""

    def __init__(self, width, a, b):
        self.width = width
        self.vals = {"a": a, "b": b}

    def local(self, name, line):
        return self.vals[name]

    def builtin(self, base, axis, line):  # pragma: no cover
        raise AssertionError("no builtins here")

    def read_array(self, name, indices, line):  # pragma: no cover
        raise AssertionError("no arrays here")


@st.composite
def operands(draw):
    """A width and two operands, biased to the folds' edge cases: 0, 1, the
    mask, powers of two and shift amounts at or beyond the width."""
    width = draw(st.sampled_from([1, 8, 16, 32]))
    mask = (1 << width) - 1
    edge = st.sampled_from(sorted(
        {0, 1, mask, width, width + 1, width - 1, mask - 1}
        | {1 << k for k in range(width)}))
    value = st.one_of(edge, st.integers(0, mask))
    return width, draw(value) & mask, draw(value) & mask


@given(operands())
@settings(max_examples=300, deadline=None)
def test_folds_match_constructors(ops):
    """The int an operator folds to is the payload of the constant its term
    constructor builds from the same operands, at every width."""
    width, a, b = ops
    scope = IntScope(width, a, b)
    A, B = BVConst(a, width), BVConst(b, width)
    for op, (_, ctor) in _ARITH.items():
        folded = peval(parse_expr(f"a {op} b"), scope)
        assert type(folded) is int
        assert folded == ctor(A, B).payload, op
    for op, (_, ctor) in _CMP.items():
        folded = peval_bool(parse_expr(f"a {op} b"), scope)
        assert type(folded) is bool
        assert folded is (ctor(A, B) is TRUE), op
        assert peval(parse_expr(f"a {op} b"), scope) == int(folded), op
    assert peval(parse_expr("-a"), scope) == BVNeg(A).payload
    assert peval(parse_expr("~a"), scope) == BVNot(A).payload
    assert peval(parse_expr("!a"), scope) == \
        Ite(Not(Ne(A, 0)), BVConst(1, width), BVConst(0, width)).payload
    assert peval(parse_expr("min(a, b)"), scope) == \
        Ite(ULt(A, B), A, B).payload
    assert peval(parse_expr("max(a, b)"), scope) == \
        Ite(ULt(A, B), B, A).payload


# ------------------------------------- serialized threads: ints, not terms


def _serialized_thread():
    """Thread (2, 3) of block (1, 0) of optimizedTranspose at a 4x4 block,
    with ``width``/``height`` left symbolic."""
    info = check_kernel(parse_kernel(KERNELS["optimizedTranspose"].source))
    cfg = LaunchConfig(bdim=(4, 4, 1), gdim=(2, 2), width=8)
    inputs = {p: BVVar(f"pe.{p}", 8) for p in info.scalar_params}
    arrays = {a: ArrayVar(f"pe.{a}", 8, 8) for a in info.global_arrays}
    return _Thread(_Encoder(info, cfg, inputs, arrays), (1, 0), (2, 3, 0)), \
        inputs


class TestSerializedThread:
    def test_concrete_work_allocates_no_term(self):
        th, _ = _serialized_thread()
        misses = intern_stats()["misses"]
        assert peval(parse_expr("tid.x * 2 + bdim.x"), th) == 2 * 2 + 4
        assert peval_bool(parse_expr(
            "bid.x * bdim.x + tid.x < 8 && tid.y != 0"), th) is True
        assert peval_bool(parse_expr("tid.x % 2 == 1"), th) is False
        # the 2-D shared tile block[bdim.x][bdim.x + 1]: row-major, padded
        indices = (peval(parse_expr("tid.y"), th),
                   peval(parse_expr("tid.x"), th))
        assert th._flat_index("block", indices, 0) == ("block@(1, 0)",
                                                       3 * 5 + 2)
        assert intern_stats()["misses"] == misses

    def test_symbolic_operand_builds_the_term(self):
        th, inputs = _serialized_thread()
        t = peval(parse_expr("tid.y * width + (bid.x * bdim.x + tid.x)"), th)
        assert t is BVAdd(BVMul(BVConst(3, 8), inputs["width"]),
                          BVConst(6, 8))
        assert peval_bool(parse_expr("tid.x < width"), th) is \
            ULt(BVConst(2, 8), inputs["width"])


class TermScope:
    """The parameterized encoder's shape: symbolic ``tid``/``bdim`` terms."""

    width = 8

    def __init__(self):
        self.tid = BVVar("ts.tid", 8)
        self.bdim = BVVar("ts.bdim", 8)
        self.a = BVVar("ts.a", 8)

    def local(self, name, line):
        return self.a

    def builtin(self, base, axis, line):
        return self.tid if base == "tid" else self.bdim

    def read_array(self, name, indices, line):  # pragma: no cover
        raise AssertionError("no arrays here")


class TestTermScopes:
    """Scopes that return terms get, node for node, the terms the
    constructors build from the lifted operands."""

    def test_symbolic_builtins(self):
        sc = TermScope()
        T, B, a = sc.tid, sc.bdim, sc.a
        one, zero = BVConst(1, 8), BVConst(0, 8)
        assert eval_expr(parse_expr("tid.x * 2 + bdim.x"), sc) is \
            BVAdd(BVMul(T, BVConst(2, 8)), B)
        assert eval_bool(parse_expr("tid.x < bdim.x && a != 0"), sc) is \
            And(ULt(T, B), Ne(a, 0))
        assert eval_expr(parse_expr("tid.x < bdim.x"), sc) is \
            Ite(ULt(T, B), one, zero)
        assert eval_expr(parse_expr("!(tid.x < bdim.x)"), sc) is \
            Ite(ULt(T, B), zero, one)
        assert eval_expr(parse_expr("min(tid.x, 3)"), sc) is \
            Ite(ULt(T, BVConst(3, 8)), T, BVConst(3, 8))
        assert eval_expr(parse_expr("tid.x < 2 * 2 ? a : 7 - 7"), sc) is \
            Ite(ULt(T, BVConst(4, 8)), a, zero)
        # constants fold before they meet a term, as the constructors did
        assert eval_expr(parse_expr("(3 + 5) * tid.x"), sc) is \
            BVMul(BVConst(8, 8), T)
        assert eval_expr(parse_expr("tid.x * 0 + 1"), sc) is one

    def test_constant_builtins(self):
        # the module's Scope returns BVConst terms for tid.x = 3, tid.y = 5
        a = S.vars["a"]
        assert ev("tid.x * 2 + a") is BVAdd(BVConst(6, 8), a)
        assert ev("buf[tid.y - 5 + a]") is Select(S.buf, a)
        assert evb("tid.x < 4") is TRUE
        assert evb("tid.x > 4 && a < b") is FALSE
        assert ev("tid.x < tid.y ? a : b") is a
