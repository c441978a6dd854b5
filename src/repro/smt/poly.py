"""Polynomial normal form for bit-vector arithmetic.

The parameterized encoder's verification conditions are dominated by address
equalities such as

    X(t.x) * height + Y(t.y)  ==  X(t.x) * height + Y(t.y)

(non-linear in the symbolic ``height``).  The Omega test the paper contrasts
with (Section IV, "Contrast with Omega Tests") handles only linear arithmetic;
the paper's answer is SMT.  Our answer is the same, but we add this normalizer
so that the *syntactically equal-after-distribution* cases — the common case
for memory-coalescing optimizations — are discharged without touching the SAT
core at all.

A polynomial over width-``w`` bit-vectors is a mapping

    monomial -> coefficient (mod 2**w)

where a *monomial* is a sorted tuple of atom terms (atoms are terms opaque to
arithmetic: variables, selects, ites, divisions...).  Addition, subtraction,
negation, multiplication, and left-shift-by-constant are interpreted; all
bit-vector identities used are valid modulo ``2**w``, so the normal form is
sound for any width.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .sorts import BitVecSort
from .terms import BVConst, BVAdd, BVMul, Kind, Term

__all__ = ["Poly", "PolyMemo", "poly_of", "poly_to_term", "poly_offset",
           "normalize_arith", "normalize_eq", "split_linear"]

Monomial = Tuple[Term, ...]
Poly = Dict[Monomial, int]

_ONE: Monomial = ()


class PolyMemo:
    """The polynomials of one query's terms, and the terms built from them.

    ``polys`` maps a term to its polynomial: the polynomial of a term is a
    function of the term, so one memo serves every pass over a query, and
    :func:`poly_to_term` seeds it with each term it builds — normalizing
    ``a + b`` over two normalized operands then walks only the top node.
    ``monos`` holds each coefficient-scaled monomial term built so far,
    and ``tails`` the sort key of the last monomial of every canonical
    sum, which lets a sum that extends another one append to its chain.

    A memoized polynomial is shared by every term with that value, so it
    is never mutated: each operation below sums into a fresh dict.
    """

    __slots__ = ("polys", "monos", "tails")

    def __init__(self) -> None:
        self.polys: dict[Term, Poly] = {}
        self.monos: dict[tuple[Monomial, int], Term] = {}
        self.tails: dict[Term, tuple] = {}


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b, key=lambda t: t.tid))


def _add_into(dst: Poly, mono: Monomial, coeff: int, modulus: int) -> None:
    c = (dst.get(mono, 0) + coeff) % modulus
    if c:
        dst[mono] = c
    else:
        dst.pop(mono, None)


def poly_add(a: Poly, b: Poly, modulus: int) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        _add_into(out, mono, coeff, modulus)
    return out


def poly_neg(a: Poly, modulus: int) -> Poly:
    return {m: (-c) % modulus for m, c in a.items()}


def poly_scale(a: Poly, k: int, modulus: int) -> Poly:
    k %= modulus
    if k == 0:
        return {}
    out: Poly = {}
    for m, c in a.items():
        _add_into(out, m, c * k, modulus)
    return out


def poly_mul(a: Poly, b: Poly, modulus: int) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _add_into(out, _mono_mul(ma, mb), ca * cb, modulus)
    return out


def poly_offset(p: Poly, q: Poly, modulus: int) -> int | None:
    """``p - q`` when it is a constant, else ``None``: the two agree on
    every non-constant monomial."""
    if len(p) - (_ONE in p) != len(q) - (_ONE in q):
        return None
    for mono, c in p.items():
        if mono and q.get(mono) != c:
            return None
    return (p.get(_ONE, 0) - q.get(_ONE, 0)) % modulus


#: The signs with which a ``+``/``-`` node passes its value to its arguments.
_SIGNS = {Kind.BVADD: (1, 1), Kind.BVSUB: (1, -1), Kind.BVNEG: (-1,)}


def poly_of(term: Term, memo: PolyMemo | None = None) -> Poly:
    """Convert a bit-vector term to its polynomial normal form.

    Sub-terms that are not arithmetic (selects, udiv, shifts by non-constants,
    ites, ...) become atoms.  The result's coefficients are reduced modulo the
    term's width.  ``memo`` (optional) is the query's :class:`PolyMemo`.
    """
    sort = term.sort
    assert isinstance(sort, BitVecSort)
    modulus = sort.modulus
    polys = memo.polys if memo is not None else {}

    def walk(t: Term) -> Poly:
        hit = polys.get(t)
        if hit is not None:
            return hit
        k = t.kind
        if k in _SIGNS:
            out = _sum_of(t, walk, polys, modulus)
        elif k == Kind.BVCONST:
            out = {_ONE: t.payload} if t.payload else {}
        elif k == Kind.BVMUL:
            out = poly_mul(walk(t.args[0]), walk(t.args[1]), modulus)
        elif k == Kind.BVSHL and t.args[1].kind == Kind.BVCONST:
            shift = t.args[1].payload
            out = poly_scale(walk(t.args[0]), 1 << shift, modulus) if shift < sort.width else {}
        else:
            out = {(t,): 1}
        polys[t] = out
        return out

    return walk(term)


def _sum_of(t: Term, walk, polys: dict[Term, Poly], modulus: int) -> Poly:
    """The polynomial of the ``+``/``-`` chain rooted at ``t``, summed into
    one fresh accumulator.

    The chain's inner nodes — sums without a memoized polynomial — are not
    memoized themselves.  Each passes its weight (the signed number of
    paths from ``t``) on to its arguments in topological order, so a node
    shared by several paths is visited once; the leaves' polynomials are
    then scaled by their weights and summed."""
    order: list[Term] = []
    inner: set[Term] = set()
    stack = [(t, False)]
    while stack:
        s, expanded = stack.pop()
        if expanded:
            order.append(s)
        elif s not in inner:
            inner.add(s)
            stack.append((s, True))
            stack.extend((a, False) for a in s.args
                         if a.kind in _SIGNS and a not in polys)
    weights = {t: 1}
    leaves: dict[Term, int] = {}
    for s in reversed(order):
        w = weights.get(s, 0) % modulus
        if w:
            for a, sign in zip(s.args, _SIGNS[s.kind]):
                into = weights if a in inner else leaves
                into[a] = into.get(a, 0) + sign * w
    parts = [(walk(a), w % modulus) for a, w in leaves.items()
             if w % modulus]
    if not parts:
        return {}
    parts.sort(key=lambda part: len(part[0]), reverse=True)
    first, w = parts[0]
    out = dict(first) if w == 1 else poly_scale(first, w, modulus)
    for p, w in parts[1:]:
        for mono, c in p.items():
            _add_into(out, mono, c * w, modulus)
    return out


def _mono_key(mono: Monomial) -> tuple:
    return (len(mono), tuple(t.tid for t in mono))


def _item_key(item: tuple[Monomial, int]) -> tuple:
    return _mono_key(item[0])


def _monomial(mono: Monomial, coeff: int, width: int,
              monos: dict[tuple[Monomial, int], Term]) -> Term:
    """The term ``coeff * mono``, built once per memo."""
    if mono == _ONE:
        return BVConst(coeff, width)
    key = (mono, coeff)
    hit = monos.get(key)
    if hit is None:
        hit = mono[0]
        for factor in mono[1:]:
            hit = BVMul(hit, factor)
        if coeff != 1:
            hit = BVMul(BVConst(coeff, width), hit)
        monos[key] = hit
    return hit


def poly_to_term(poly: Poly, sort: BitVecSort, memo: PolyMemo | None = None,
                 prefixes: Sequence[Term] = ()) -> Term:
    """Rebuild a canonical term (sorted sum of coefficient-scaled monomials).

    The sum is a left-nested chain, so a canonical sum whose monomials all
    sort first — one of ``prefixes`` (typically the operands of the term
    being normalized) — is a prefix of the chain: the chain is then that
    term with only the new monomials appended.  The result is recorded in
    ``memo`` with ``poly`` as its polynomial, which must not be mutated
    afterwards."""
    if not poly:
        return BVConst(0, sort.width)
    if memo is None:
        memo = PolyMemo()
    polys, tails = memo.polys, memo.tails
    acc = None
    rest = poly.items()
    for x in prefixes:
        tail = tails.get(x)
        if tail is None:
            continue
        px = polys[x]
        if len(px) == len(poly):
            if px == poly:
                return x
        elif len(px) < len(poly) and px.items() <= poly.items():
            new = [(m, poly[m]) for m in poly.keys() - px.keys()]
            if min(_mono_key(m) for m, _ in new) > tail:
                acc, rest = x, new
                break
    items = sorted(rest, key=_item_key)
    # Every part before the first sum node: the creation order, and so the
    # ``tid`` order that orders each sum node's arguments, of a rebuild.
    parts = [_monomial(mono, coeff, sort.width, memo.monos)
             for mono, coeff in items]
    for part in parts:
        acc = part if acc is None else BVAdd(acc, part)
    polys.setdefault(acc, poly)
    tails[acc] = _mono_key(items[-1][0])
    return acc


def normalize_arith(term: Term, memo: PolyMemo | None = None) -> Term:
    """Polynomial-normalize one bit-vector term (identity on non-arith atoms)."""
    if not isinstance(term.sort, BitVecSort):
        return term
    if memo is None:
        memo = PolyMemo()
    return poly_to_term(poly_of(term, memo), term.sort, memo, term.args)


def _signed(coeff: int, modulus: int) -> int:
    return coeff - modulus if coeff >= modulus // 2 else coeff


def normalize_eq(a: Term, b: Term,
                 memo: PolyMemo | None = None) -> tuple[Term, Term]:
    """Normalize an equality between bit-vector terms.

    Computes the difference polynomial ``a - b`` and splits it into a
    positive part (monomials whose signed coefficient is positive) and a
    negated negative part, yielding the canonical pair ``(lhs, rhs)`` with
    ``lhs == rhs  <=>  a == b``.  If the difference is empty the equality is
    trivially true — callers detect this by getting two identical terms back.

    A coefficient of ``2**(w-1)`` is its own negation and always lands on
    the right; so that the result does not depend on which side of the
    equality ``a`` was (``Eq`` orders its arguments by ``tid``), such a
    difference is first negated if needed to make its first other
    monomial positive.
    """
    sort = a.sort
    assert isinstance(sort, BitVecSort)
    modulus = sort.modulus
    if memo is None:
        memo = PolyMemo()
    diff = poly_add(poly_of(a, memo), poly_neg(poly_of(b, memo), modulus),
                    modulus)
    half = modulus // 2
    if half in diff.values():
        lead = min((item for item in diff.items() if item[1] != half),
                   key=_item_key, default=None)
        if lead is not None and lead[1] > half:
            diff = poly_neg(diff, modulus)
    pos: Poly = {}
    neg: Poly = {}
    for mono, coeff in diff.items():
        if _signed(coeff, modulus) >= 0:
            pos[mono] = coeff
        else:
            neg[mono] = (-coeff) % modulus
    return (poly_to_term(pos, sort, memo, (a, b)),
            poly_to_term(neg, sort, memo, (b, a)))


def split_linear(term: Term, var: Term, memo: PolyMemo | None = None
                 ) -> tuple[Term, Term] | None:
    """Decompose ``term`` as ``a * var + b`` where neither ``a`` nor ``b``
    mentions ``var``.  Returns ``(a, b)`` or ``None`` if the term is not
    linear in ``var``.

    Used by the witness-derivation step of the parameterized equivalence
    checker: to match a source write address against a target write address
    we solve the target's (linear) address function for its thread variable.
    """
    sort = term.sort
    if not isinstance(sort, BitVecSort):
        return None
    poly = poly_of(term, memo)
    coef: Poly = {}
    rest: Poly = {}

    def mentions(t: Term) -> bool:
        from .terms import iter_dag
        return any(s is var for s in iter_dag(t))

    for mono, c in poly.items():
        occurrences = [t for t in mono if t is var]
        others = tuple(t for t in mono if t is not var)
        if len(occurrences) == 0:
            if any(mentions(t) for t in mono):
                return None  # var occurs inside an atom: not linear
            rest[mono] = c
        elif len(occurrences) == 1:
            if any(mentions(t) for t in others):
                return None
            coef[others] = (coef.get(others, 0) + c) % sort.modulus
        else:
            return None  # quadratic in var
    return poly_to_term(coef, sort, memo), poly_to_term(rest, sort, memo)
