"""The compact gates (``MAJ``, ``XOR3``) and the circuits built on them.

Gate tests brute-force the emitted clauses: for every input pattern the
clauses must admit exactly one value of the output, the right one.
Circuit tests solve, with the simplifier off, ``op(x, y) != table(x, y)``
where ``table`` is an ite chain over every input of the concrete
evaluator's answer; UNSAT means the circuit agrees on every input.
"""

import itertools

import pytest

from repro.smt import (
    And, BoolConst, BVConst, BVAdd, BVMul, BVNeg, BVSub, BVUDiv, BVURem, BVVar,
    CheckResult, Eq, Ite, Ne, Query, SLe, SLt, SolveConfig, ULe, ULt, Xor,
    ZeroExt, evaluate, solve_query,
)
from repro.smt.cnf import ClauseDB, GateBuilder
from repro.smt.sat import SATSolver

# --------------------------------------------------------------- gates


#: The gate tests run on both backends: the preprocessor's clause sink and
#: the solver that direct solving loads gates into.
BACKENDS = (ClauseDB, SATSolver)


def _builder(backend) -> tuple[GateBuilder, list[int]]:
    gb = GateBuilder(backend())
    return gb, [gb.new_lit() for _ in range(3)]


def _pool(gb: GateBuilder, xs: list[int]) -> list[int]:
    """Every input a gate can see: both constants, and each variable in
    both signs (so triples cover duplicates and complements)."""
    return [gb.true_lit, gb.false_lit, *(l ^ s for l in xs for s in (0, 1))]


def _lit_value(assign: int, lit: int) -> bool:
    return bool((assign >> (lit >> 1)) & 1) ^ bool(lit & 1)


def _projection(gb: GateBuilder, xs: list[int], out: int) -> dict:
    """Map each input assignment to the set of output values the clauses
    admit (over every value of the auxiliary variables)."""
    db = gb.sat
    # A SATSolver keeps level-0 units (the constant) on its trail.
    clauses = [*db.clauses, *([l] for l in getattr(db, "trail", ()))]
    seen: dict[tuple, set] = {}
    for assign in range(1 << db.num_vars):
        if all(any(_lit_value(assign, l) for l in c) for c in clauses):
            inputs = tuple(_lit_value(assign, x) for x in xs)
            seen.setdefault(inputs, set()).add(_lit_value(assign, out))
    return seen


def _maj(a: bool, b: bool, c: bool) -> bool:
    return a + b + c >= 2


def _xor3(a: bool, b: bool, c: bool) -> bool:
    return a ^ b ^ c


@pytest.mark.parametrize("name,spec", [("MAJ", _maj), ("XOR3", _xor3)])
def test_gate_truth_table_over_every_input_pattern(name, spec):
    for backend, triple in itertools.product(
            BACKENDS, itertools.product(range(8), repeat=3)):
        gb, xs = _builder(backend)
        a, b, c = (_pool(gb, xs)[i] for i in triple)
        out = getattr(gb, name)(a, b, c)
        seen = _projection(gb, xs, out)
        where = (name, backend.__name__, triple)
        assert len(seen) == 8, where  # no input is excluded
        for inputs, outs in seen.items():
            env = dict(zip(xs, inputs))

            def val(lit):
                const = gb.is_const(lit)
                if const is not None:
                    return const
                return env[lit & ~1] ^ bool(lit & 1)
            assert outs == {spec(val(a), val(b), val(c))}, where


@pytest.mark.parametrize("name,clauses", [("MAJ", 6), ("XOR3", 8)])
def test_gate_cost_on_distinct_inputs(name, clauses):
    for backend in BACKENDS:
        gb, (a, b, c) = _builder(backend)
        before = (gb.sat.num_vars, len(gb.sat.clauses))
        getattr(gb, name)(a, b ^ 1, c)
        assert gb.sat.num_vars - before[0] == 1
        assert len(gb.sat.clauses) - before[1] == clauses


def test_maj_is_self_dual_in_the_cache():
    for backend in BACKENDS:
        gb, (a, b, c) = _builder(backend)
        for signs in itertools.product((0, 1), repeat=3):
            sa, sb, sc = (l ^ s for l, s in zip((a, b, c), signs))
            g = gb.MAJ(sa, sb, sc)
            nvars = gb.sat.num_vars
            assert gb.MAJ(sa ^ 1, sb ^ 1, sc ^ 1) == g ^ 1
            assert gb.MAJ(sc, sa, sb) == g  # input order does not matter
            assert gb.sat.num_vars == nvars
        # Four sign classes up to complement: four variables in all.
        assert gb.sat.num_vars == 4 + 4


def test_xor3_strips_input_signs_into_the_output():
    for backend in BACKENDS:
        gb, (a, b, c) = _builder(backend)
        g = gb.XOR3(a, b, c)
        for signs in itertools.product((0, 1), repeat=3):
            sa, sb, sc = (l ^ s for l, s in zip((a, b, c), signs))
            assert gb.XOR3(sb, sc, sa) == g ^ (sum(signs) & 1)
        assert gb.sat.num_vars == 4 + 1


def test_full_adder_is_one_xor3_and_one_maj():
    for backend in BACKENDS:
        gb, (a, b, c) = _builder(backend)
        before = len(gb.sat.clauses)
        s, carry = gb.full_adder(a, b, c)
        assert (s, carry) == (gb.XOR3(a, b, c), gb.MAJ(a, b, c))
        assert gb.sat.num_vars == 4 + 2
        assert len(gb.sat.clauses) - before == 8 + 6


# ------------------------------------------------------------ circuits

BINARY = {
    "bvadd": BVAdd, "bvsub": BVSub, "bvmul": BVMul, "bvudiv": BVUDiv,
    "bvurem": BVURem, "bvult": ULt, "bvule": ULe, "bvslt": SLt, "bvsle": SLe,
}


def _operand_mixes(w: int):
    """(label, a, b): symbolic pairs, every constant on either side, a
    repeated operand, and a partly constant operand."""
    x, y = BVVar(f"bb{w}.x", w), BVVar(f"bb{w}.y", w)
    yield "x,y", x, y
    yield "x,x", x, x
    for v in range(1 << w):
        yield f"x,{v}", x, BVConst(v, w)
        yield f"{v},y", BVConst(v, w), y
    if w > 1:
        yield "zext(x'),y", ZeroExt(BVVar(f"bb{w}.xn", w - 1), 1), y


def _variables(t):
    out, stack, seen = [], [t], set()
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if u.is_var():
            out.append(u)
        stack.extend(u.args)
    return sorted(out, key=lambda v: v.payload)


def _table(t, flip=None):
    """An ite chain giving ``evaluate(t)`` on every input of ``t``'s
    variables; ``flip`` names one input whose entry is made wrong."""
    vs = _variables(t)
    rows = []
    for values in itertools.product(*(range(1 << v.sort.width) for v in vs)):
        env = dict(zip(vs, values))
        value = evaluate(t, env)
        if values == flip:
            value = (not value) if isinstance(value, bool) else \
                (value + 1) % (1 << t.sort.width)
        guard = And(*(Eq(v, BVConst(val, v.sort.width))
                      for v, val in env.items()))
        const = BoolConst(value) if isinstance(value, bool) else \
            BVConst(value, t.sort.width)
        rows.append((guard, const))
    out = rows[-1][1]
    for guard, const in reversed(rows[:-1]):
        out = Ite(guard, const, out)
    return out


def _check(t, flip=None):
    table = _table(t, flip)
    differs = Xor(t, table) if t.sort.is_bool() else Ne(t, table)
    return solve_query(Query([differs], do_simplify=False),
                       SolveConfig.from_env(cache=False))


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("op", sorted(BINARY))
def test_circuit_matches_evaluate(op, w):
    for label, a, b in _operand_mixes(w):
        t = BINARY[op](a, b)
        if not _variables(t):
            continue  # the constructor folded it to a constant
        res = _check(t)
        assert res.verdict is CheckResult.UNSAT, (op, w, label)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_bvneg_matches_evaluate(w):
    t = BVNeg(BVVar(f"bb{w}.x", w))
    assert _check(t).verdict is CheckResult.UNSAT


@pytest.mark.parametrize("op", sorted(BINARY))
def test_wrong_table_entry_is_found(op):
    # The check is not vacuous: one wrong entry of the table is SAT, and
    # the model lands on exactly that input.
    w = 3
    x, y = BVVar("bbf.x", w), BVVar("bbf.y", w)
    t = BINARY[op](x, y)
    res = _check(t, flip=(5, 3))
    assert res.verdict is CheckResult.SAT
    assert (res.model()[x], res.model()[y]) == (5, 3)
