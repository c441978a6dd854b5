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

from typing import Dict, Tuple

from .sorts import BitVecSort
from .terms import BVConst, BVAdd, BVMul, BVNeg, Kind, Term

__all__ = ["Poly", "poly_of", "poly_to_term", "normalize_arith", "normalize_eq",
           "split_linear"]

Monomial = Tuple[Term, ...]
Poly = Dict[Monomial, int]

_ONE: Monomial = ()


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


def poly_of(term: Term, cache: dict[Term, Poly] | None = None) -> Poly:
    """Convert a bit-vector term to its polynomial normal form.

    Sub-terms that are not arithmetic (selects, udiv, shifts by non-constants,
    ites, ...) become atoms.  The result's coefficients are reduced modulo the
    term's width.
    """
    sort = term.sort
    assert isinstance(sort, BitVecSort)
    modulus = sort.modulus
    if cache is None:
        cache = {}

    def walk(t: Term) -> Poly:
        hit = cache.get(t)
        if hit is not None:
            return hit
        k = t.kind
        if k == Kind.BVCONST:
            out: Poly = {_ONE: t.payload} if t.payload else {}
        elif k == Kind.BVADD:
            out = poly_add(walk(t.args[0]), walk(t.args[1]), modulus)
        elif k == Kind.BVSUB:
            out = poly_add(walk(t.args[0]), poly_neg(walk(t.args[1]), modulus), modulus)
        elif k == Kind.BVNEG:
            out = poly_neg(walk(t.args[0]), modulus)
        elif k == Kind.BVMUL:
            out = poly_mul(walk(t.args[0]), walk(t.args[1]), modulus)
        elif k == Kind.BVSHL and t.args[1].kind == Kind.BVCONST:
            shift = t.args[1].payload
            out = poly_scale(walk(t.args[0]), 1 << shift, modulus) if shift < sort.width else {}
        else:
            out = {(t,): 1}
        cache[t] = out
        return out

    return walk(term)


def _mono_key(item: tuple[Monomial, int]):
    mono, _ = item
    return (len(mono), tuple(t.tid for t in mono))


def poly_to_term(poly: Poly, sort: BitVecSort) -> Term:
    """Rebuild a canonical term (sorted sum of coefficient-scaled monomials)."""
    if not poly:
        return BVConst(0, sort.width)
    parts: list[Term] = []
    for mono, coeff in sorted(poly.items(), key=_mono_key):
        if mono == _ONE:
            parts.append(BVConst(coeff, sort.width))
            continue
        prod = mono[0]
        for factor in mono[1:]:
            prod = BVMul(prod, factor)
        if coeff != 1:
            prod = BVMul(BVConst(coeff, sort.width), prod)
        parts.append(prod)
    acc = parts[0]
    for p in parts[1:]:
        acc = BVAdd(acc, p)
    return acc


def normalize_arith(term: Term) -> Term:
    """Polynomial-normalize one bit-vector term (identity on non-arith atoms)."""
    if not isinstance(term.sort, BitVecSort):
        return term
    return poly_to_term(poly_of(term), term.sort)


def _signed(coeff: int, modulus: int) -> int:
    return coeff - modulus if coeff >= modulus // 2 else coeff


def normalize_eq(a: Term, b: Term) -> tuple[Term, Term]:
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
    diff = poly_add(poly_of(a), poly_neg(poly_of(b), modulus), modulus)
    half = modulus // 2
    if half in diff.values():
        lead = min((item for item in diff.items() if item[1] != half),
                   key=_mono_key, default=None)
        if lead is not None and lead[1] > half:
            diff = poly_neg(diff, modulus)
    pos: Poly = {}
    neg: Poly = {}
    for mono, coeff in diff.items():
        if _signed(coeff, modulus) >= 0:
            pos[mono] = coeff
        else:
            neg[mono] = (-coeff) % modulus
    return poly_to_term(pos, sort), poly_to_term(neg, sort)


def split_linear(term: Term, var: Term) -> tuple[Term, Term] | None:
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
    poly = poly_of(term)
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
    return poly_to_term(coef, sort), poly_to_term(rest, sort)
