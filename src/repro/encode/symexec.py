"""Shared partial evaluation of DSL expressions for both encoders.

Translates DSL expressions over an environment that supplies local-variable
bindings, thread-geometry values, and an array-read hook.  The two encoders
differ only in how statements thread state (the non-parameterized one
serializes all threads through store chains; the parameterized one emits
conditional assignments), so the expression layer is factored out here.

A value is an ``int`` or a term.  The serialized encoder (Section III) runs
*concrete* threads: every ``tid``, ``bid``, ``bdim``, loop counter, guard and
address is a known integer, and only array data (and unpinned scalar inputs)
are symbolic.  :func:`peval` therefore returns a Python ``int``, reduced
modulo ``2**width``, wherever the value is known, and builds a term only
where a symbolic operand enters; :func:`peval_bool` likewise returns a
``bool`` or a Bool term.  The ints fold through :data:`repro.smt.terms.FOLDS`,
the table the term constructors fold constants with, so folding here gives
exactly the constant the constructor would have built (``udiv`` by 0 is all
ones, ``urem`` by 0 is ``x``, a shift by ``width`` or more gives 0).  An int
meeting a term is lifted to a ``BVConst`` and handed to the constructor, and
a constructor result that folds to a constant comes back as an int.  Every
operand is evaluated, in source order, whatever the other operands fold to,
so scopes whose hooks have side effects (the parameterized encoder mints a
read atom per array read) see the same calls either way.

The parameterized encoder (Section IV) and the functional checker's ghost
code work on terms: :func:`eval_expr` and :func:`eval_bool` are the same
evaluation with the result lifted to a term.  Scopes may return terms for
everything (``ca.py`` binds symbolic ``tid``/``bdim``); ints only appear
where the expression itself is concrete.

C-style boolean conventions: any bit-vector expression used as a condition
means ``!= 0``; any boolean operator used as a value yields 0/1.
``peval_bool`` avoids the 0/1 round-trip when the consumer wants a
condition (guards, postconditions), which keeps guards in the clean
``And``/``ULt`` vocabulary the paper's formulas use.

Terms are hash-consed (:mod:`repro.smt.terms`), so evaluating the same
subexpression under the same bindings — a loop bound referenced in every
guard, a data read repeated across statements — returns shared DAG nodes.
Determinism of this translation (same AST + same ``fresh_scope`` ⇒ the same
interned terms) is also what makes the cross-configuration VC templates
(:mod:`repro.encode.templates`) exact rather than approximate.
"""

from __future__ import annotations

from typing import Callable, Protocol, Union

from ..errors import EncodingError
from ..lang.ast import (
    Binary, Builtin, Call, Expr, Ident, Index, IntLit, Ternary, Unary,
)
from ..smt import (
    BV, FALSE, TRUE, And, BVAdd, BVAnd, BVConst, BVLshr, BVMul, BVNeg, BVNot,
    BVOr, BVShl, BVSub, BVUDiv, BVURem, BVXor, BitVecSort, Eq, Implies, Ite,
    Kind, Ne, Not, Or, Term, UGe, UGt, ULe, ULt,
)
from ..smt.terms import FOLDS

__all__ = ["Value", "Cond", "SymScope", "peval", "peval_bool", "eval_expr",
           "eval_bool", "arith", "ite", "lift", "lift_bool"]

#: A bit-vector value: an ``int`` in ``[0, 2**width)`` when known, else a term.
Value = Union[int, Term]
#: A condition: a ``bool`` when known, else a Bool term.
Cond = Union[bool, Term]


class SymScope(Protocol):
    """What expression evaluation needs from its surroundings.  Ints a scope
    returns must already be reduced modulo ``2**width``."""

    width: int

    def local(self, name: str, line: int) -> Value:
        """Value of local variable / scalar parameter ``name``."""

    def builtin(self, base: str, axis: str, line: int) -> Value:
        """Value of ``tid.x`` etc."""

    def read_array(self, name: str, indices: tuple[Value, ...],
                   line: int) -> Value:
        """Value of an array element; index components already evaluated."""


_Fold = Callable[[int, int, BitVecSort], "int | bool"]


def _swapped(fold: _Fold) -> _Fold:
    return lambda x, y, s: fold(y, x, s)


#: operator -> (fold over ints, term constructor)
_ARITH: dict[str, tuple[_Fold, Callable[[Term, Term], Term]]] = {
    "+": (FOLDS[Kind.BVADD], BVAdd), "-": (FOLDS[Kind.BVSUB], BVSub),
    "*": (FOLDS[Kind.BVMUL], BVMul), "/": (FOLDS[Kind.BVUDIV], BVUDiv),
    "%": (FOLDS[Kind.BVUREM], BVURem), "<<": (FOLDS[Kind.BVSHL], BVShl),
    ">>": (FOLDS[Kind.BVLSHR], BVLshr), "&": (FOLDS[Kind.BVAND], BVAnd),
    "|": (FOLDS[Kind.BVOR], BVOr), "^": (FOLDS[Kind.BVXOR], BVXor),
}

_CMP: dict[str, tuple[_Fold, Callable[[Term, Term], Term]]] = {
    "==": (FOLDS[Kind.EQ], Eq),
    "!=": (lambda x, y, s: not FOLDS[Kind.EQ](x, y, s), Ne),
    "<": (FOLDS[Kind.BVULT], ULt), "<=": (FOLDS[Kind.BVULE], ULe),
    ">": (_swapped(FOLDS[Kind.BVULT]), UGt),
    ">=": (_swapped(FOLDS[Kind.BVULE]), UGe),
}

_UNARY: dict[str, tuple[_Fold, Callable[[Term], Term]]] = {
    "-": (FOLDS[Kind.BVNEG], BVNeg), "~": (FOLDS[Kind.BVNOT], BVNot),
}

_BOOL: dict[str, tuple[Callable[[bool, bool], bool],
                       Callable[[Term, Term], Term]]] = {
    "&&": (lambda l, r: l and r, And),
    "||": (lambda l, r: l or r, Or),
    "==>": (lambda l, r: r or not l, Implies),
}

_BVCONST = Kind.BVCONST


# ------------------------------------------------------------ int <-> term


def lift(value: Value, width: int) -> Term:
    """The term of a value: an int becomes its ``BVConst``."""
    return BVConst(value, width) if type(value) is int else value


def lift_bool(cond: Cond) -> Term:
    """The Bool term of a condition."""
    if cond is True:
        return TRUE
    if cond is False:
        return FALSE
    return cond


def _value_of(t: Term) -> Value:
    return t.payload if t.kind is _BVCONST else t


def _cond_of(t: Term) -> Cond:
    if t is TRUE:
        return True
    if t is FALSE:
        return False
    return t


def _binary(entry, a: Value, b: Value, sort: BitVecSort) -> Value:
    fold, ctor = entry
    if type(a) is int and type(b) is int:
        return fold(a, b, sort)
    return _value_of(ctor(lift(a, sort.width), lift(b, sort.width)))


def _compare(entry, a: Value, b: Value, sort: BitVecSort) -> Cond:
    fold, ctor = entry
    if type(a) is int and type(b) is int:
        return fold(a, b, sort)
    return _cond_of(ctor(lift(a, sort.width), lift(b, sort.width)))


def _ite(c: Cond, a: Value, b: Value, sort: BitVecSort) -> Value:
    if c is True:
        return a
    if c is False:
        return b
    if a == b:  # equal ints, or the same term
        return a
    return _value_of(Ite(c, lift(a, sort.width), lift(b, sort.width)))


def _not(c: Cond) -> Cond:
    return (not c) if type(c) is bool else _cond_of(Not(c))


def arith(op: str, a: Value, b: Value, width: int) -> Value:
    """``a op b`` for an arithmetic operator (compound assignments)."""
    return _binary(_ARITH[op], a, b, BV(width))


def ite(c: Cond, a: Value, b: Value, width: int) -> Value:
    """``c ? a : b``; an int when ``c`` is known or both sides are equal."""
    return _ite(c, a, b, BV(width))


# -------------------------------------------------------------- evaluation


def peval(e: Expr, scope: SymScope) -> Value:
    """Evaluate an expression to an int where known, else a term."""
    return _value(e, scope, BV(scope.width))


def peval_bool(e: Expr, scope: SymScope) -> Cond:
    """Evaluate an expression in condition position to a bool where known,
    else a Bool term."""
    return _cond(e, scope, BV(scope.width))


def eval_expr(e: Expr, scope: SymScope) -> Term:
    """Evaluate an expression to a bit-vector term."""
    return lift(peval(e, scope), scope.width)


def eval_bool(e: Expr, scope: SymScope) -> Term:
    """Evaluate an expression to a Bool term (condition position)."""
    return lift_bool(peval_bool(e, scope))


def _value(e: Expr, scope: SymScope, sort: BitVecSort) -> Value:
    cls = type(e)
    if cls is Binary:
        entry = _ARITH.get(e.op)
        if entry is None:  # comparison or boolean used as a value
            return _ite(_cond(e, scope, sort), 1, 0, sort)
        return _binary(entry, _value(e.left, scope, sort),
                       _value(e.right, scope, sort), sort)
    if cls is IntLit:
        return e.value & sort.mask
    if cls is Builtin:
        return scope.builtin(e.base, e.axis, e.line)
    if cls is Ident:
        return scope.local(e.name, e.line)
    if cls is Index:
        indices = tuple(_value(i, scope, sort) for i in e.indices)
        return scope.read_array(e.base.name, indices, e.line)
    if cls is Unary:
        if e.op == "!":
            return _ite(_not(_cond(e.operand, scope, sort)), 1, 0, sort)
        fold, ctor = _UNARY[e.op]
        a = _value(e.operand, scope, sort)
        return fold(a, 0, sort) if type(a) is int else _value_of(ctor(a))
    if cls is Ternary:
        c = _cond(e.cond, scope, sort)
        return _ite(c, _value(e.then, scope, sort),
                    _value(e.els, scope, sort), sort)
    if cls is Call:
        a = _value(e.args[0], scope, sort)
        b = _value(e.args[1], scope, sort)
        lt = _compare(_CMP["<"], a, b, sort)
        return _ite(lt, a, b, sort) if e.func == "min" else \
            _ite(lt, b, a, sort)
    raise EncodingError(f"cannot encode expression {type(e).__name__}")


def _cond(e: Expr, scope: SymScope, sort: BitVecSort) -> Cond:
    cls = type(e)
    if cls is Binary:
        entry = _CMP.get(e.op)
        if entry is not None:
            return _compare(entry, _value(e.left, scope, sort),
                            _value(e.right, scope, sort), sort)
        connective = _BOOL.get(e.op)
        if connective is not None:
            left = _cond(e.left, scope, sort)
            right = _cond(e.right, scope, sort)
            fold, ctor = connective
            if type(left) is bool and type(right) is bool:
                return fold(left, right)
            return _cond_of(ctor(lift_bool(left), lift_bool(right)))
    elif cls is Unary and e.op == "!":
        return _not(_cond(e.operand, scope, sort))
    elif cls is Ternary:
        c = _cond(e.cond, scope, sort)
        then = _cond(e.then, scope, sort)
        els = _cond(e.els, scope, sort)
        if type(c) is bool:
            return then if c else els
        return _cond_of(Ite(c, lift_bool(then), lift_bool(els)))
    v = _value(e, scope, sort)
    return v != 0 if type(v) is int else _cond_of(Ne(v, 0))
