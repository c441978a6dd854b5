"""Word-level rewriting ahead of bit-blasting.

The blast pipeline's cost is dominated by a handful of circuit families —
restoring dividers are quadratic in width, multipliers close behind — so
removing one word-level operator node routinely saves tens of thousands of
clauses.  This module holds the *contextual* rewrite layer that
:mod:`repro.smt.simplify` applies on top of its local normalizations:

* **Fact harvesting** (:func:`harvest_facts`) scans the top-level conjuncts
  of a query for shapes that pin a term into a useful value class.  The
  flagship fact is ``(t & (t - 1)) == 0`` — the standard power-of-two test
  emitted by the kernel loop abstraction for every barrier-loop iterator —
  which proves ``t`` is *zero or a power of two* ("zpow2").  Matching goes
  through the polynomial engine (:mod:`repro.smt.poly`), so both the raw
  ``t - 1`` and its normalized ``t + (2^w - 1)`` spelling are recognized.

* **Value-class closure** (:meth:`Facts.is_zpow2`): products and left
  shifts of zpow2 terms are zpow2 (a power of two times a power of two is
  a power of two or wraps to zero, and zero absorbs), as is ``t + t``.

* **Rewrite rules** (:func:`rewrite_node`), applied bottom-up by the
  simplifier to nodes whose children are already simplified:

  - ``x urem m  ->  x & (m - 1)`` when ``m`` is zpow2.  Valid for *every*
    model of the query: on models satisfying the harvested facts ``m`` is
    ``0`` (both sides equal ``x`` — SMT-LIB fixes ``x urem 0 = x`` and
    ``x & (0 - 1) = x``) or ``2^j`` (the usual mask identity); on models
    falsifying the facts the whole conjunction is false either way, since
    the fact conjuncts themselves remain asserted.  This replaces a
    ``7*w^2``-gate restoring divider with ``w`` AND gates — the single
    biggest lever on the reduction-kernel benchmarks, whose race VCs
    modulo by the symbolic loop stride ``2*k``.
  - ``ite(c, a, b) == d`` collapses against a branch: ``d is a`` gives
    ``c | (b == d)``, ``d is b`` gives ``~c | (a == d)``; and when either
    branch comparison folds to a constant the equality distributes over
    the ite.  These discharge the barrier-round case splits the encoders
    emit without ever reaching the CNF.

Every rule is model-preserving on the query it was harvested from; a
:class:`Facts` base must therefore only be applied to terms asserted in
the *same* conjunction (the incremental group solver harvests from the
shared prefix only, which is part of every member query).

Structural hashing of repeated subterms is inherited from the interned
term DAG (:mod:`repro.smt.terms`): identical subterms are identical Python
objects, so every cache in this layer is an identity-keyed dict.  The
corresponding blast-level strength reductions (constant shifts as wire
slices, constant multipliers as shift-adds) live in
:mod:`repro.smt.bitblast`; the cross-query circuit reuse lives in the
shared blast cache (:mod:`repro.smt.blastcache`).
"""

from __future__ import annotations

from typing import Container, Iterable, Sequence

from .poly import normalize_arith, normalize_eq, poly_add, poly_neg, poly_of
from .sorts import BitVecSort
from .terms import (
    BVAnd, BVConst, BVSub, Eq, FALSE, Ite, Kind, Not, Or, TRUE, Term,
)

__all__ = ["Facts", "Units", "harvest_facts", "harvest_units",
           "rewrite_node"]


class Facts:
    """Harvested per-query context for conditional rewrites.

    ``zpow2`` holds terms proven *zero-or-power-of-two* by an asserted
    top-level conjunct.  :meth:`is_zpow2` extends it through the closure
    rules (constants, products, shifts, doubling) with an identity-keyed
    memo, so repeated queries over a shared modulus term cost one walk.
    """

    __slots__ = ("zpow2", "_memo")

    def __init__(self, zpow2: Iterable[Term] = ()) -> None:
        self.zpow2: frozenset[Term] = frozenset(zpow2)
        self._memo: dict[Term, bool] = {}

    def __bool__(self) -> bool:
        return bool(self.zpow2)

    def is_zpow2(self, t: Term) -> bool:
        """Is ``t`` provably zero or a power of two under these facts?"""
        hit = self._memo.get(t)
        if hit is not None:
            return hit
        out = self._decide_zpow2(t)
        self._memo[t] = out
        return out

    def _decide_zpow2(self, t: Term) -> bool:
        if t in self.zpow2:
            return True
        k = t.kind
        if k == Kind.BVCONST:
            v = t.payload
            return v == 0 or (v & (v - 1)) == 0
        if k == Kind.BVMUL:
            return all(self.is_zpow2(a) for a in t.args)
        if k == Kind.BVSHL:
            return self.is_zpow2(t.args[0])
        if k == Kind.BVADD and len(t.args) == 2 and t.args[0] is t.args[1]:
            return self.is_zpow2(t.args[0])  # t + t == 2*t
        return False


#: Shared empty fact base (used when harvesting finds nothing).
NO_FACTS = Facts()


def _iter_conjuncts(terms: Sequence[Term]):
    """Top-level conjuncts of an assertion list (AND nodes flattened), in
    assertion order."""
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if t.kind == Kind.AND:
            stack.extend(reversed(t.args))
        else:
            yield t


def _is_decrement(y: Term, x: Term) -> bool:
    """Does ``y`` denote ``x - 1`` modulo the width?  Decided through the
    polynomial engine, so any syntactic spelling (``x - 1``,
    ``x + (2^w - 1)``, a normalized form) matches."""
    sort = x.sort
    if not isinstance(sort, BitVecSort) or y.sort is not sort:
        return False
    if y.kind == Kind.BVSUB and y.args == (x, BVConst(1, sort.width)):
        return True
    diff = poly_add(poly_of(y), poly_neg(poly_of(x), sort.modulus),
                    sort.modulus)
    return diff == {(): sort.modulus - 1}


def _zpow2_of_conjunct(f: Term) -> Term | None:
    """The term a conjunct proves zero-or-power-of-two, if any.

    Matches ``(t & (t - 1)) == 0`` with the AND and EQ argument orders
    both ways (smart constructors sort commutative arguments by term id).
    """
    if f.kind != Kind.EQ:
        return None
    a, b = f.args
    for lhs, rhs in ((a, b), (b, a)):
        if rhs.kind != Kind.BVCONST or rhs.payload != 0:
            continue
        if lhs.kind != Kind.BVAND or len(lhs.args) != 2:
            continue
        p, q = lhs.args
        if _is_decrement(q, p):
            return p
        if _is_decrement(p, q):
            return q
    return None


def harvest_facts(terms: Sequence[Term]) -> Facts:
    """Scan a query's assertion list for rewrite-enabling facts.

    Only *positive top-level conjuncts* are consulted — a fact buried
    under a negation or disjunction does not hold unconditionally in the
    query and must not license a rewrite.
    """
    zpow2 = []
    for f in _iter_conjuncts(terms):
        t = _zpow2_of_conjunct(f)
        if t is not None:
            zpow2.append(t)
    return Facts(zpow2) if zpow2 else NO_FACTS


class Units:
    """The variables a query pins to a constant by a top-level conjunct.

    ``subst`` maps each pinned variable to its value; ``defs`` holds, in
    assertion order, the conjuncts that define them (a dict used as an
    ordered set).  A variable keeps the value of its first definition: a
    later, conflicting one is left out of ``defs`` so that substitution
    folds it to FALSE.
    """

    __slots__ = ("subst", "defs")

    def __init__(self) -> None:
        self.subst: dict[Term, Term] = {}
        self.defs: dict[Term, None] = {}


def _unit_of(f: Term) -> tuple[Term, Term] | None:
    """``(var, value)`` when conjunct ``f`` pins a variable, else ``None``.

    Recognizes a Bool ``v``, ``not v``, and ``v == c`` in either
    orientation — plus ``v + k == c``, which is how the polynomial
    normalizer spells ``v == c`` when ``c`` lies in the upper half of the
    word (``v == 200`` at 8 bits becomes ``v + 56 == 0``).
    """
    k = f.kind
    if k == Kind.VAR:
        return f, TRUE
    if k == Kind.NOT:
        v = f.args[0]
        return (v, FALSE) if v.kind == Kind.VAR else None
    if k != Kind.EQ:
        return None
    a, b = f.args
    for v, c in ((a, b), (b, a)):
        if c.kind != Kind.BVCONST:
            continue
        if v.kind == Kind.VAR:
            return v, c
        if v.kind == Kind.BVADD and len(v.args) == 2:
            p, q = v.args
            if q.kind == Kind.VAR:
                p, q = q, p
            if p.kind == Kind.VAR and q.kind == Kind.BVCONST:
                return p, BVConst(c.payload - q.payload, c.sort.width)
    return None


def harvest_units(terms: Sequence[Term], *,
                  pinned: Container[Term] = ()) -> Units:
    """Collect the unit definitions among a query's positive top-level
    conjuncts — as for :func:`harvest_facts`, a unit under a negation,
    disjunction or ite does not hold in every model and is ignored.
    Variables in ``pinned`` already have a value and are skipped."""
    units = Units()
    for f in _iter_conjuncts(terms):
        hit = _unit_of(f)
        if (hit is not None and hit[0] not in units.subst
                and hit[0] not in pinned):
            units.subst[hit[0]] = hit[1]
            units.defs[f] = None
    return units


# --------------------------------------------------------------------- rules


def _mask_of(m: Term) -> Term:
    """``m - 1`` — the AND mask for a zpow2 modulus, pre-normalized so the
    rewriter's output matches what a re-simplification would produce
    (keeps the simplifier idempotent on rewritten terms)."""
    return normalize_arith(BVSub(m, BVConst(1, m.sort.width)))


def _norm_eq(a: Term, b: Term) -> Term:
    """An equality in the simplifier's canonical form."""
    if isinstance(a.sort, BitVecSort):
        lhs, rhs = normalize_eq(a, b)
        return Eq(lhs, rhs)
    return Eq(a, b)


def rewrite_node(t: Term, facts: Facts) -> Term:
    """Apply the word-level rules to one node whose children are already
    simplified.  Returns ``t`` itself when no rule fires; rewritten
    results are built with smart constructors from already-simplified,
    pre-normalized parts, so the caller needs no second pass."""
    k = t.kind
    if k == Kind.BVUREM:
        x, m = t.args
        if facts.is_zpow2(m):
            return BVAnd(x, _mask_of(m))
        return t
    if k == Kind.EQ:
        a, b = t.args
        for ite, other in ((a, b), (b, a)):
            if ite.kind != Kind.ITE or ite.sort.is_bool():
                continue
            cond, then, els = ite.args
            if other is then:
                return Or(cond, _norm_eq(els, other))
            if other is els:
                return Or(Not(cond), _norm_eq(then, other))
            then_eq = _norm_eq(then, other)
            els_eq = _norm_eq(els, other)
            if then_eq.is_const() or els_eq.is_const():
                return Ite(cond, then_eq, els_eq)
        return t
    return t
