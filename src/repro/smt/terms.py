"""Hash-consed term DAG for the QF_ABV logic.

This module is the foundation of the from-scratch SMT stack that replaces Z3
(the solver the paper used, unavailable in this environment).  Terms are

* **immutable** — all fields are set at construction and never mutated;
* **interned** — structurally identical terms are the same Python object, so
  equality is identity (``is``) and hashing is ``id``-based and O(1);
* **lightly normalized** — smart constructors constant-fold and apply cheap,
  always-beneficial rewrites (``x & x -> x``, ``ite(c,a,a) -> a`` …).  The
  heavier algebraic normalization lives in :mod:`repro.smt.simplify` and
  :mod:`repro.smt.poly`.

The public surface is the set of constructor functions at the bottom of the
module (``And``, ``BVAdd``, ``Select`` …), mirroring the z3py API the paper's
tool scripted against.
"""

from __future__ import annotations

import functools
import itertools
from enum import IntEnum
from typing import Any, Callable, Iterable, Iterator, Sequence

from .sorts import ARRAY, BOOL, BV, ArraySort, BitVecSort, Sort
from ..errors import SortError

__all__ = [
    "Kind", "Term", "FOLDS",
    "TRUE", "FALSE", "BoolConst", "BoolVar", "BVVar", "ArrayVar", "BVConst", "Var",
    "Not", "And", "Or", "Xor", "Implies", "Iff", "Ite", "Eq", "Ne", "Distinct",
    "BVNeg", "BVAdd", "BVSub", "BVMul", "BVUDiv", "BVURem",
    "BVNot", "BVAnd", "BVOr", "BVXor",
    "BVShl", "BVLshr", "BVAshr",
    "ULt", "ULe", "UGt", "UGe", "SLt", "SLe", "SGt", "SGe",
    "Concat", "Extract", "ZeroExt", "SignExt",
    "Select", "Store",
    "fresh_var", "fresh_name", "fresh_scope", "fresh_scoped", "iter_dag",
    "term_size",
    "collect", "intern_stats",
]


class Kind(IntEnum):
    """Operator tags of the term language."""

    # Leaves
    TRUE = 0
    FALSE = 1
    BVCONST = 2
    VAR = 3
    # Boolean connectives
    NOT = 10
    AND = 11
    OR = 12
    XOR = 13
    IMPLIES = 14
    ITE = 15
    EQ = 16
    DISTINCT = 17
    # Bit-vector arithmetic
    BVNEG = 20
    BVADD = 21
    BVSUB = 22
    BVMUL = 23
    BVUDIV = 24
    BVUREM = 25
    # Bit-vector bitwise
    BVNOT = 30
    BVAND = 31
    BVOR = 32
    BVXOR = 33
    # Shifts
    BVSHL = 40
    BVLSHR = 41
    BVASHR = 42
    # Comparisons (unsigned / signed)
    BVULT = 50
    BVULE = 51
    BVSLT = 52
    BVSLE = 53
    # Structural
    CONCAT = 60
    EXTRACT = 61
    ZEXT = 62
    SEXT = 63
    # Arrays
    SELECT = 70
    STORE = 71


_COMMUTATIVE = frozenset({Kind.AND, Kind.OR, Kind.XOR, Kind.EQ,
                          Kind.BVADD, Kind.BVMUL, Kind.BVAND, Kind.BVOR, Kind.BVXOR})


class Term:
    """A node of the hash-consed term DAG.

    Attributes
    ----------
    kind:
        The operator tag.
    sort:
        The sort of the term's value.
    args:
        Child terms (a tuple, possibly empty).
    payload:
        Operator-specific data: the int value for ``BVCONST``, the name string
        for ``VAR``, ``(hi, lo)`` for ``EXTRACT``, the number of added bits for
        ``ZEXT``/``SEXT``; ``None`` otherwise.
    tid:
        A globally unique, monotonically increasing id used for canonical
        argument ordering of commutative operators.
    """

    # ``_vm`` caches the variable-occurrence bloom mask used by
    # :func:`repro.smt.substitute.substitute` to skip key-free subtrees.
    # It is derived purely from the node's own ``tid``s, so sharing it
    # across every context that reaches the same interned node —
    # including different ``fresh_scope``s — is sound; keeping it on the
    # node (not in a module-global dict) means it cannot outlive the term.
    __slots__ = ("kind", "sort", "args", "payload", "tid", "_vm")

    _intern: dict[tuple, "Term"] = {}
    _counter = itertools.count()
    _hits = 0       # intern-table hits since process start
    _misses = 0     # nodes allocated since process start

    def __new__(cls, kind: Kind, sort: Sort, args: tuple["Term", ...] = (),
                payload: Any = None) -> "Term":
        key = (kind, sort, args, payload)
        cached = cls._intern.get(key)
        if cached is not None:
            cls._hits += 1
            return cached
        obj = super().__new__(cls)
        obj.kind = kind
        obj.sort = sort
        obj.args = args
        obj.payload = payload
        obj.tid = next(cls._counter)
        obj._vm = None
        cls._misses += 1
        cls._intern[key] = obj
        return obj

    # No ``__hash__``/``__eq__`` overrides: ``object``'s C-level identity
    # semantics are exactly what hash-consing wants, and the C slots make
    # every dict/set of terms (the memo tables of simplify, substitute,
    # bitblast, qcache) materially faster than a Python-level ``id(self)``
    # call per probe.  Structural equality IS identity for interned terms.

    def __repr__(self) -> str:
        from .printer import to_str  # local import to avoid a cycle
        return to_str(self)

    # -- convenience predicates -------------------------------------------------
    def is_const(self) -> bool:
        """True for Boolean and bit-vector literals."""
        return self.kind in (Kind.TRUE, Kind.FALSE, Kind.BVCONST)

    def is_true(self) -> bool:
        return self.kind == Kind.TRUE

    def is_false(self) -> bool:
        return self.kind == Kind.FALSE

    def is_var(self) -> bool:
        return self.kind == Kind.VAR

    @property
    def value(self) -> int:
        """The concrete value of a constant term (bool as 0/1)."""
        if self.kind == Kind.BVCONST:
            return self.payload
        if self.kind == Kind.TRUE:
            return 1
        if self.kind == Kind.FALSE:
            return 0
        raise ValueError(f"not a constant term: {self!r}")

    @property
    def name(self) -> str:
        if self.kind != Kind.VAR:
            raise ValueError(f"not a variable: {self!r}")
        return self.payload

    @property
    def width(self) -> int:
        """Bit width of a bit-vector term."""
        if not isinstance(self.sort, BitVecSort):
            raise SortError(f"term has no width (sort {self.sort!r})")
        return self.sort.width

    # -- operator sugar (used heavily by the encoders) ---------------------------
    def __add__(self, other: "Term | int") -> "Term":
        return BVAdd(self, _coerce(other, self.sort))

    def __sub__(self, other: "Term | int") -> "Term":
        return BVSub(self, _coerce(other, self.sort))

    def __mul__(self, other: "Term | int") -> "Term":
        return BVMul(self, _coerce(other, self.sort))

    def __and__(self, other: "Term") -> "Term":
        if self.sort is BOOL:
            return And(self, other)
        return BVAnd(self, _coerce(other, self.sort))

    def __or__(self, other: "Term") -> "Term":
        if self.sort is BOOL:
            return Or(self, other)
        return BVOr(self, _coerce(other, self.sort))

    def __xor__(self, other: "Term") -> "Term":
        if self.sort is BOOL:
            return Xor(self, other)
        return BVXor(self, _coerce(other, self.sort))

    def __invert__(self) -> "Term":
        return Not(self) if self.sort is BOOL else BVNot(self)

    def __lshift__(self, other: "Term | int") -> "Term":
        return BVShl(self, _coerce(other, self.sort))

    def __rshift__(self, other: "Term | int") -> "Term":
        return BVLshr(self, _coerce(other, self.sort))

    def __getitem__(self, index: "Term | int") -> "Term":
        if isinstance(self.sort, ArraySort):
            return Select(self, _coerce(index, self.sort.index_sort))
        raise SortError(f"cannot index non-array term {self!r}")

    def eq(self, other: "Term | int") -> "Term":
        return Eq(self, _coerce(other, self.sort))

    def ult(self, other: "Term | int") -> "Term":
        return ULt(self, _coerce(other, self.sort))

    def ule(self, other: "Term | int") -> "Term":
        return ULe(self, _coerce(other, self.sort))


def _coerce(value: "Term | int", sort: Sort) -> Term:
    """Lift a Python int to a constant of ``sort``; pass terms through."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool) and sort is BOOL:
        return TRUE if value else FALSE
    if isinstance(value, int) and isinstance(sort, BitVecSort):
        return BVConst(value, sort.width)
    raise SortError(f"cannot coerce {value!r} to sort {sort!r}")


# -- leaves ----------------------------------------------------------------------

TRUE: Term = Term(Kind.TRUE, BOOL)
FALSE: Term = Term(Kind.FALSE, BOOL)


def BoolConst(value: bool) -> Term:
    return TRUE if value else FALSE


def BVConst(value: int, width: int) -> Term:
    """A bit-vector literal; ``value`` is reduced modulo ``2**width``."""
    sort = BV(width)
    return Term(Kind.BVCONST, sort, (), sort.clip(value))


def Var(name: str, sort: Sort) -> Term:
    """A free variable.  Same (name, sort) pair -> same term."""
    return Term(Kind.VAR, sort, (), name)


def BoolVar(name: str) -> Term:
    return Var(name, BOOL)


def BVVar(name: str, width: int) -> Term:
    return Var(name, BV(width))


def ArrayVar(name: str, index_width: int, elem_width: int) -> Term:
    return Var(name, ARRAY(index_width, elem_width))


_fresh_counter = itertools.count()


def fresh_name(hint: str = "k") -> str:
    """A unique-within-scope variable name with the given prefix."""
    return f"{hint}!{next(_fresh_counter)}"


class fresh_scope:
    """Reset the fresh-name counter for the duration of a ``with`` block.

    Each top-level check enters a scope, so two structurally identical
    verification runs generate *identical* fresh names — hence identical
    (interned) terms — and their queries collide in the canonical query
    cache instead of merely being alpha-equivalent.  Scopes restore the
    enclosing counter on exit, so nested or subsequent scopes never clash
    with names minted outside them.

    Interaction with interning: a term minted in one scope and re-minted
    (same structure) in a later scope is the *same object* — that sharing
    is what the VC-template cache and the canonical query cache rely on.
    It is sound only because every per-node cache slot is a pure function
    of the node; nothing scope-local may ever be stored on a term.
    ``tests/smt/test_interning.py`` pins this invariant.
    """

    def __init__(self, start: int = 0) -> None:
        self.start = start
        self._saved = None

    def __enter__(self) -> "fresh_scope":
        global _fresh_counter
        self._saved = _fresh_counter
        _fresh_counter = itertools.count(self.start)
        return self

    def __exit__(self, *exc) -> None:
        global _fresh_counter
        _fresh_counter = self._saved


def fresh_scoped(fn):
    """Run every call of ``fn`` inside its own :class:`fresh_scope`.

    Each call enters a new scope object, so checks running concurrently on
    server threads never share one scope's saved counter.
    """
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        with fresh_scope():
            return fn(*args, **kwargs)
    return scoped


def fresh_var(hint: str, sort: Sort) -> Term:
    """A brand-new variable never returned before (used for CA instantiation)."""
    return Var(fresh_name(hint), sort)


# -- boolean connectives -----------------------------------------------------------


def _require_bool(*terms: Term) -> None:
    for t in terms:
        if t.sort is not BOOL:
            raise SortError(f"expected Bool operand, got {t.sort!r}")


def Not(a: Term) -> Term:
    _require_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.kind == Kind.NOT:
        return a.args[0]
    return Term(Kind.NOT, BOOL, (a,))


def _nary_bool(kind: Kind, terms: Sequence[Term], neutral: Term, dominant: Term) -> Term:
    """Shared builder for AND/OR: flatten, fold, dedup, sort, detect x & ~x."""
    flat: list[Term] = []
    for t in terms:
        _require_bool(t)
        if t is dominant:
            return dominant
        if t is neutral:
            continue
        if t.kind == kind:
            flat.extend(t.args)
        else:
            flat.append(t)
    # dedup while keeping canonical (tid) order
    seen: set[Term] = set()
    out: list[Term] = []
    for t in sorted(flat, key=lambda t: t.tid):
        if t in seen:
            continue
        seen.add(t)
        out.append(t)
    # x and not(x)
    for t in out:
        if t.kind == Kind.NOT and t.args[0] in seen:
            return dominant
    if not out:
        return neutral
    if len(out) == 1:
        return out[0]
    return Term(kind, BOOL, tuple(out))


def And(*terms: Term) -> Term:
    return _nary_bool(Kind.AND, terms, TRUE, FALSE)


def Or(*terms: Term) -> Term:
    return _nary_bool(Kind.OR, terms, FALSE, TRUE)


def Xor(a: Term, b: Term) -> Term:
    _require_bool(a, b)
    if a is b:
        return FALSE
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return Not(b)
    if b is TRUE:
        return Not(a)
    if a.tid > b.tid:
        a, b = b, a
    return Term(Kind.XOR, BOOL, (a, b))


def Implies(a: Term, b: Term) -> Term:
    _require_bool(a, b)
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return Not(a)
    if a is b:
        return TRUE
    return Term(Kind.IMPLIES, BOOL, (a, b))


def Iff(a: Term, b: Term) -> Term:
    return Eq(a, b)


def Ite(cond: Term, then: Term, els: Term) -> Term:
    _require_bool(cond)
    if then.sort is not els.sort:
        raise SortError(f"ite branches have different sorts: {then.sort!r} vs {els.sort!r}")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.sort is BOOL:
        if then is TRUE and els is FALSE:
            return cond
        if then is FALSE and els is TRUE:
            return Not(cond)
        if then is TRUE:
            return Or(cond, els)
        if then is FALSE:
            return And(Not(cond), els)
        if els is TRUE:
            return Or(Not(cond), then)
        if els is FALSE:
            return And(cond, then)
    if cond.kind == Kind.NOT:
        return Ite(cond.args[0], els, then)
    return Term(Kind.ITE, then.sort, (cond, then, els))


def Eq(a: Term, b: Term | int) -> Term:
    if isinstance(b, (int, bool)):
        b = _coerce(b, a.sort)
    if a.sort is not b.sort:
        raise SortError(f"cannot equate sorts {a.sort!r} and {b.sort!r}")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return BoolConst(FOLDS[Kind.EQ](a.value, b.value, a.sort))
    if a.sort is BOOL:
        if a is TRUE:
            return b
        if b is TRUE:
            return a
        if a is FALSE:
            return Not(b)
        if b is FALSE:
            return Not(a)
    if a.tid > b.tid:
        a, b = b, a
    return Term(Kind.EQ, BOOL, (a, b))


def Ne(a: Term, b: Term | int) -> Term:
    return Not(Eq(a, b))


def Distinct(*terms: Term) -> Term:
    """Pairwise disequality, expanded eagerly (we only use small arities)."""
    out = [Ne(a, b) for a, b in itertools.combinations(terms, 2)]
    return And(*out)


# -- constant folds -------------------------------------------------------------------

#: The constant fold of every bit-vector operator, keyed by ``Kind``:
#: ``FOLDS[kind](x, y, sort)`` maps operand payloads (unsigned, already
#: reduced modulo ``2**width``) to the result, itself reduced modulo
#: ``2**width`` (an ``int``) or, for the comparisons, a ``bool``.  Unary
#: folds ignore ``y``.  The constructors below fold constant operands
#: through this table, and the serialized encoder's partial evaluator
#: (:mod:`repro.encode.symexec`) folds thread-concrete values through it,
#: so the two cannot disagree.  SMT-LIB semantics: ``x udiv 0`` is all
#: ones, ``x urem 0`` is ``x``, and a shift by ``width`` or more gives 0
#: (``ashr`` gives the sign fill).
FOLDS: dict[Kind, Callable[[int, int, BitVecSort], "int | bool"]] = {
    Kind.BVNEG: lambda x, y, s: -x & s.mask,
    Kind.BVNOT: lambda x, y, s: x ^ s.mask,
    Kind.BVADD: lambda x, y, s: (x + y) & s.mask,
    Kind.BVSUB: lambda x, y, s: (x - y) & s.mask,
    Kind.BVMUL: lambda x, y, s: (x * y) & s.mask,
    Kind.BVUDIV: lambda x, y, s: x // y if y else s.mask,
    Kind.BVUREM: lambda x, y, s: x % y if y else x,
    Kind.BVAND: lambda x, y, s: x & y,
    Kind.BVOR: lambda x, y, s: x | y,
    Kind.BVXOR: lambda x, y, s: x ^ y,
    Kind.BVSHL: lambda x, y, s: (x << y) & s.mask if y < s.width else 0,
    Kind.BVLSHR: lambda x, y, s: x >> y if y < s.width else 0,
    Kind.BVASHR: lambda x, y, s: (s.to_signed(x) >> min(y, s.width - 1))
    & s.mask,
    Kind.EQ: lambda x, y, s: x == y,
    Kind.BVULT: lambda x, y, s: x < y,
    Kind.BVULE: lambda x, y, s: x <= y,
    Kind.BVSLT: lambda x, y, s: s.to_signed(x) < s.to_signed(y),
    Kind.BVSLE: lambda x, y, s: s.to_signed(x) <= s.to_signed(y),
}


# -- bit-vector helpers -------------------------------------------------------------



def _c2(a: "Term | int", b: "Term | int") -> tuple[Term, Term]:
    """Coerce int literals in mixed (Term, int) operand pairs."""
    if isinstance(a, Term):
        if not isinstance(b, Term):
            b = _coerce(b, a.sort)
    elif isinstance(b, Term):
        a = _coerce(a, b.sort)
    return a, b


def _require_bv(*terms: Term) -> BitVecSort:
    sort = terms[0].sort
    if not isinstance(sort, BitVecSort):
        raise SortError(f"expected bit-vector operand, got {sort!r}")
    for t in terms[1:]:
        if t.sort is not sort:
            raise SortError(f"bit-vector width mismatch: {sort!r} vs {t.sort!r}")
    return sort


def _bv_binop(kind: Kind, a: Term, b: Term) -> Term:
    sort = _require_bv(a, b)
    if a.kind == Kind.BVCONST and b.kind == Kind.BVCONST:
        return Term(Kind.BVCONST, sort, (), FOLDS[kind](a.payload, b.payload,
                                                        sort))
    if kind in _COMMUTATIVE and a.tid > b.tid:
        a, b = b, a
    return Term(kind, sort, (a, b))


def BVNeg(a: Term) -> Term:
    sort = _require_bv(a)
    if a.kind == Kind.BVCONST:
        return Term(Kind.BVCONST, sort, (), FOLDS[Kind.BVNEG](a.payload, 0,
                                                              sort))
    if a.kind == Kind.BVNEG:
        return a.args[0]
    return Term(Kind.BVNEG, sort, (a,))


def BVAdd(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if a.kind == Kind.BVCONST and a.payload == 0:
        return b
    if b.kind == Kind.BVCONST and b.payload == 0:
        return a
    return _bv_binop(Kind.BVADD, a, b)


def BVSub(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST and b.payload == 0:
        return a
    if a is b:
        return BVConst(0, sort.width)
    return _bv_binop(Kind.BVSUB, a, b)


def BVMul(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    for x, y in ((a, b), (b, a)):
        if x.kind == Kind.BVCONST:
            if x.payload == 0:
                return BVConst(0, sort.width)
            if x.payload == 1:
                return y
    return _bv_binop(Kind.BVMUL, a, b)


def BVUDiv(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST:
        if b.payload == 1:
            return a
        if b.payload != 0 and b.payload & (b.payload - 1) == 0:
            # Power-of-two divisor: rewrite to a logical shift right, which
            # bit-blasts to wires instead of a division circuit.
            return BVLshr(a, BVConst(b.payload.bit_length() - 1, sort.width))
    return _bv_binop(Kind.BVUDIV, a, b)


def BVURem(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST:
        if b.payload == 1:
            return BVConst(0, sort.width)
        if b.payload != 0 and b.payload & (b.payload - 1) == 0:
            # Power-of-two modulus: rewrite to a bitwise mask.
            return BVAnd(a, BVConst(b.payload - 1, sort.width))
    return _bv_binop(Kind.BVUREM, a, b)


def BVNot(a: Term) -> Term:
    sort = _require_bv(a)
    if a.kind == Kind.BVCONST:
        return Term(Kind.BVCONST, sort, (), FOLDS[Kind.BVNOT](a.payload, 0,
                                                              sort))
    if a.kind == Kind.BVNOT:
        return a.args[0]
    return Term(Kind.BVNOT, sort, (a,))


def BVAnd(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if x.kind == Kind.BVCONST:
            if x.payload == 0:
                return BVConst(0, sort.width)
            if x.payload == sort.mask:
                return y
    return _bv_binop(Kind.BVAND, a, b)


def BVOr(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if x.kind == Kind.BVCONST:
            if x.payload == 0:
                return y
            if x.payload == sort.mask:
                return BVConst(sort.mask, sort.width)
    return _bv_binop(Kind.BVOR, a, b)


def BVXor(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if a is b:
        return BVConst(0, sort.width)
    for x, y in ((a, b), (b, a)):
        if x.kind == Kind.BVCONST and x.payload == 0:
            return y
    return _bv_binop(Kind.BVXOR, a, b)


def BVShl(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST:
        if b.payload == 0:
            return a
        if b.payload >= sort.width:
            return BVConst(0, sort.width)
    if a.kind == Kind.BVCONST and a.payload == 0:
        return a
    return _bv_binop(Kind.BVSHL, a, b)


def BVLshr(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST:
        if b.payload == 0:
            return a
        if b.payload >= sort.width:
            return BVConst(0, sort.width)
    if a.kind == Kind.BVCONST and a.payload == 0:
        return a
    return _bv_binop(Kind.BVLSHR, a, b)


def BVAshr(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST and b.payload == 0:
        return a
    return _bv_binop(Kind.BVASHR, a, b)


# -- comparisons ----------------------------------------------------------------------


def _bv_cmp(kind: Kind, a: Term, b: Term) -> Term:
    sort = _require_bv(a, b)
    if a is b:
        # x < x is false; x <= x is true
        return BoolConst(kind in (Kind.BVULE, Kind.BVSLE))
    if a.kind == Kind.BVCONST and b.kind == Kind.BVCONST:
        return BoolConst(FOLDS[kind](a.payload, b.payload, sort))
    return Term(kind, BOOL, (a, b))


def ULt(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if b.kind == Kind.BVCONST and b.payload == 0:
        return FALSE
    if a.kind == Kind.BVCONST and a.payload == sort.mask:
        return FALSE
    return _bv_cmp(Kind.BVULT, a, b)


def ULe(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    sort = _require_bv(a, b)
    if a.kind == Kind.BVCONST and a.payload == 0:
        return TRUE
    if b.kind == Kind.BVCONST and b.payload == sort.mask:
        return TRUE
    return _bv_cmp(Kind.BVULE, a, b)


def UGt(a: Term, b: Term) -> Term:
    return ULt(b, a)


def UGe(a: Term, b: Term) -> Term:
    return ULe(b, a)


def SLt(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    return _bv_cmp(Kind.BVSLT, a, b)


def SLe(a: "Term | int", b: "Term | int") -> Term:
    a, b = _c2(a, b)
    return _bv_cmp(Kind.BVSLE, a, b)


def SGt(a: Term, b: Term) -> Term:
    return SLt(b, a)


def SGe(a: Term, b: Term) -> Term:
    return SLe(b, a)


# -- structural -----------------------------------------------------------------------


def Concat(hi: Term, lo: Term) -> Term:
    hs = _require_bv(hi)
    ls = _require_bv(lo)
    if hi.kind == Kind.BVCONST and lo.kind == Kind.BVCONST:
        return BVConst((hi.payload << ls.width) | lo.payload, hs.width + ls.width)
    return Term(Kind.CONCAT, BV(hs.width + ls.width), (hi, lo))


def Extract(a: Term, hi: int, lo: int) -> Term:
    sort = _require_bv(a)
    if not (0 <= lo <= hi < sort.width):
        raise SortError(f"extract [{hi}:{lo}] out of range for width {sort.width}")
    width = hi - lo + 1
    if width == sort.width:
        return a
    if a.kind == Kind.BVCONST:
        return BVConst(a.payload >> lo, width)
    return Term(Kind.EXTRACT, BV(width), (a,), (hi, lo))


def ZeroExt(a: Term, extra: int) -> Term:
    sort = _require_bv(a)
    if extra == 0:
        return a
    if extra < 0:
        raise SortError("cannot zero-extend by a negative amount")
    if a.kind == Kind.BVCONST:
        return BVConst(a.payload, sort.width + extra)
    return Term(Kind.ZEXT, BV(sort.width + extra), (a,), extra)


def SignExt(a: Term, extra: int) -> Term:
    sort = _require_bv(a)
    if extra == 0:
        return a
    if extra < 0:
        raise SortError("cannot sign-extend by a negative amount")
    if a.kind == Kind.BVCONST:
        return BVConst(sort.to_signed(a.payload), sort.width + extra)
    return Term(Kind.SEXT, BV(sort.width + extra), (a,), extra)


# -- arrays ---------------------------------------------------------------------------


def Select(array: Term, index: Term) -> Term:
    if not isinstance(array.sort, ArraySort):
        raise SortError(f"select on non-array {array.sort!r}")
    index = _coerce(index, array.sort.index_sort)
    if index.sort is not array.sort.index_sort:
        raise SortError("select index sort mismatch")
    # Read-over-write with syntactically decidable index comparison.
    while array.kind == Kind.STORE:
        base, widx, wval = array.args
        if widx is index:
            return wval
        if widx.kind == Kind.BVCONST and index.kind == Kind.BVCONST:
            array = base  # definitely a different cell
            continue
        break
    return Term(Kind.SELECT, array.sort.elem_sort, (array, index))


def Store(array: Term, index: Term, value: Term) -> Term:
    if not isinstance(array.sort, ArraySort):
        raise SortError(f"store on non-array {array.sort!r}")
    index = _coerce(index, array.sort.index_sort)
    value = _coerce(value, array.sort.elem_sort)
    if index.sort is not array.sort.index_sort or value.sort is not array.sort.elem_sort:
        raise SortError("store index/value sort mismatch")
    return Term(Kind.STORE, array.sort, (array, index, value))


# -- traversal utilities ----------------------------------------------------------------


def iter_dag(*roots: Term) -> Iterator[Term]:
    """Iterate every distinct subterm reachable from ``roots`` (post-order)."""
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        term, expanded = stack.pop()
        if term in seen:
            continue
        if expanded:
            seen.add(term)
            yield term
        else:
            stack.append((term, True))
            for child in reversed(term.args):
                if child not in seen:
                    stack.append((child, False))


def term_size(*roots: Term) -> int:
    """Number of distinct DAG nodes reachable from ``roots``."""
    return sum(1 for _ in iter_dag(*roots))


def collect(predicate, *roots: Term) -> list[Term]:
    """All distinct subterms satisfying ``predicate``, in post-order."""
    return [t for t in iter_dag(*roots) if predicate(t)]


def intern_stats() -> dict[str, int]:
    """Intern-table health counters for ``stats["encode"]`` / benches.

    ``live`` is the current table size (distinct nodes alive), ``hits``
    and ``misses`` count constructor calls since process start that were
    answered from the table versus allocated.
    """
    return {"live": len(Term._intern), "hits": Term._hits,
            "misses": Term._misses}
