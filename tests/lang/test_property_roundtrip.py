"""Property-based round-trip tests: hypothesis-generated expression ASTs
survive pretty-printing + re-parsing, and the interpreter's evaluator agrees
with the symbolic evaluator on them."""

from hypothesis import given, settings, strategies as st

from repro.lang import parse_expr, pretty_expr
from repro.lang.ast import Binary, Builtin, Call, Ident, IntLit, Ternary, Unary
from repro.smt import BVConst, evaluate
from repro.encode.symexec import eval_expr

_NAMES = ("alpha", "beta", "gamma")
_BUILTINS = (("tid", "x"), ("bid", "y"), ("bdim", "x"))


def exprs(depth: int):
    leaf = st.one_of(
        st.integers(0, 255).map(lambda v: IntLit(value=v)),
        st.sampled_from(_NAMES).map(lambda n: Ident(name=n)),
        st.sampled_from(_BUILTINS).map(
            lambda ba: Builtin(base=ba[0], axis=ba[1])),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    ops = st.sampled_from(["+", "-", "*", "/", "%", "<<", ">>", "&", "|",
                           "^", "==", "!=", "<", "<=", ">", ">="])
    return st.one_of(
        leaf,
        st.tuples(ops, sub, sub).map(
            lambda t: Binary(op=t[0], left=t[1], right=t[2])),
        st.tuples(sub, sub, sub).map(
            lambda t: Ternary(cond=t[0], then=t[1], els=t[2])),
        sub.map(lambda e: Unary(op="-", operand=e)),
        st.tuples(sub, sub).map(
            lambda t: Call(func="min", args=(t[0], t[1]))),
    )


def _strip(e):
    """Structural normal form ignoring line numbers."""
    return pretty_expr(e)


@given(expr=exprs(3))
@settings(max_examples=120, deadline=None)
def test_pretty_parse_roundtrip(expr):
    printed = pretty_expr(expr)
    reparsed = parse_expr(printed)
    assert pretty_expr(reparsed) == printed


class _Scope:
    width = 8

    def __init__(self, env):
        self.env = env

    def local(self, name, line):
        return BVConst(self.env[name], 8)

    def builtin(self, base, axis, line):
        return BVConst(self.env[f"{base}.{axis}"], 8)

    def read_array(self, name, indices, line):  # pragma: no cover
        raise AssertionError("no arrays in generated expressions")


def _interp_eval(expr, env):
    """Evaluate with the reference interpreter's scalar semantics."""
    from repro.lang.interp import CompiledKernel, LaunchConfig, _Interp
    from repro.lang import check_kernel, parse_kernel
    kernel = parse_kernel("void f(int alpha, int beta, int gamma) { }")
    program = CompiledKernel(check_kernel(kernel), LaunchConfig(
        bdim=(env["bdim.x"], 1, 1), gdim=(1, env["bid.y"] + 1), width=8))
    state = program.run({"alpha": env["alpha"], "beta": env["beta"],
                         "gamma": env["gamma"]}, loop_limit=10)
    th = _Interp(program, state, loop_limit=10).thread(
        (0, env["bid.y"]), (env["tid.x"], 0, 0))
    return program.expression(expr)(th)


@given(expr=exprs(3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_interpreter_agrees_with_symbolic_evaluator(expr, data):
    env = {
        "alpha": data.draw(st.integers(0, 255)),
        "beta": data.draw(st.integers(0, 255)),
        "gamma": data.draw(st.integers(0, 255)),
        "tid.x": data.draw(st.integers(0, 3)),
        "bid.y": data.draw(st.integers(0, 3)),
        "bdim.x": data.draw(st.integers(1, 8)),
    }
    symbolic = eval_expr(expr, _Scope(env))
    concrete = evaluate(symbolic, {})
    assert concrete == _interp_eval(expr, env)
