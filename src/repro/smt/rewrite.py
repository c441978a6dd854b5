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
  Strict bounds ``a < b`` and *zero facts* ``r == 0`` are harvested too.

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
  - **Mixed radix.**  Two more fact kinds come from the conjuncts:
    strict bounds ``a < b`` (keyed by the polynomial normal form of
    ``a``) and *radix pairs* ``(u, v)`` with ``u * v <= 2^w`` computed
    without wraparound — the shapes of ``Geometry.extent_fits``
    (``zext(u) * zext(v) <= 2^w``) and ``Geometry.covering``
    (``zext(s) == zext(u) * zext(v)``).  When ``x = q*v + r`` as
    polynomials with ``r < v`` and ``q < u`` both among the facts, then
    ``q*v + r <= (u-1)*v + v-1 < u*v <= 2^w``: the sum does not wrap and
    ``(q, r)`` is ``x``'s unique mixed-radix representation.  So
    ``udiv(x, v) -> q``, ``urem(x, v) -> r``, and ``x == y`` for two such
    ``x``, ``y`` becomes ``q_x == q_y & r_x == r_y`` (recursively split).
    A side with no ``v`` term (``q = 0``) needs only ``r < v``.  This
    removes the multipliers and dividers of the row-major address
    obligations (``X*height + Y``) the Transpose kernels emit; like the
    zpow2 rule it preserves models because the facts stay asserted.
  - **Quotient identity** (:func:`rewrite_quotients`, no facts needed).
    ``m*(x udiv m) -> x - (x urem m)``, matched on a normalized product's
    polynomial: a monomial holding the atom ``q = x udiv m`` whose other
    factors multiply to ``poly(m)`` (or a multiple ``j*poly(m)``, giving
    ``j*(x - x urem m)``).  It holds in every model: for ``m != 0``,
    ``m*(x udiv m) + x urem m = x`` with no wraparound (the product is at
    most ``x``); for ``m = 0`` both sides are ``0``, since SMT-LIB fixes
    ``x urem 0 = x``.  The remainder goes through the other rules, so
    under a zpow2 ``m`` it becomes ``x & (m - 1)``; and a *zero fact* —
    a top-level conjunct ``r == 0``, such as the ``x urem m == 0`` the
    Reduction coverage VCs assert — folds it to ``0`` (that conjunct
    stays asserted, so every model is kept).  The simplifier tries the
    rule on every normalized sum and product, after its monomials merge,
    so a match that only merging makes is not left for a second pass.
    This removes the multiplier and the restoring divider of the coverage
    VC ``tid == 2*(k*(tid udiv 2k))`` under ``tid urem 2k == 0``.
  - **Udiv bound.**  ``(x udiv m) < b -> m != 0`` when ``x < b`` is a
    harvested strict bound.  For ``m != 0``, ``x udiv m <= x < b``; for
    ``m = 0`` the quotient is all ones, which is below no ``b``.  Like
    the zpow2 rule it keeps every model because the bound stays
    asserted.
  - **Switch normal form** (:func:`_switch_ite`, no facts needed).  A
    non-Bool ite chain whose guards are ``x == c`` on one selector ``x``
    with constants ``c`` — either orientation, or ``x + k == c`` — is a
    switch: distinct constants make its guards pairwise exclusive, so
    each maximal run of such links is kept sorted by decreasing
    constant, a duplicate constant keeping its first (outermost) case.
    The serialized encoding reads its output at a symbolic cell as
    exactly such a chain, one link per write in thread order; two kernels
    that write the same cells in different orders then read as one
    interned term.

* **Unit harvesting** (:func:`harvest_units`) finds the variables a
  query defines by a positive top-level conjunct — ``v == c``, ``v1 ==
  v2``, a Bool literal, or ``v == t`` for a term ``t`` not mentioning
  ``v`` once the earlier definitions are substituted into it — for the
  simplifier to substitute them away (:mod:`repro.smt.simplify`, layer 5).

Every rule is model-preserving on the query it was harvested from; a
:class:`Facts` base must therefore only be applied to terms asserted in
the *same* conjunction.

Structural hashing of repeated subterms is inherited from the interned
term DAG (:mod:`repro.smt.terms`): identical subterms are identical Python
objects, so every cache in this layer is an identity-keyed dict.  The
corresponding blast-level strength reductions (constant shifts as wire
slices, constant multipliers as shift-adds) live in
:mod:`repro.smt.bitblast`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .poly import (
    Poly, PolyMemo, normalize_arith, normalize_eq, poly_add, poly_mul,
    poly_of, poly_offset, poly_scale, poly_to_term, split_linear,
)
from .sorts import BitVecSort
from .substitute import substitute, var_mask
from .terms import (
    And, BVAnd, BVConst, BVSub, BVURem, Eq, FALSE, Ite, Kind, Not, Or, TRUE,
    Term,
)

__all__ = ["Facts", "Units", "harvest_facts", "harvest_units",
           "fact_conjuncts", "remainder_conjuncts", "rewrite_node",
           "rewrite_quotients"]


class Facts:
    """Harvested per-query context for conditional rewrites.

    ``zpow2`` holds terms proven *zero-or-power-of-two* by an asserted
    top-level conjunct.  :meth:`is_zpow2` extends it through the closure
    rules (constants, products, shifts, doubling) with an identity-keyed
    memo, so repeated queries over a shared modulus term cost one walk.

    ``less`` holds the asserted strict bounds ``(a, b)`` meaning
    ``a < b``; ``radix`` maps a non-constant ``v`` to every ``u`` with
    ``u * v <= 2^w`` asserted without wraparound.  Together they license
    the mixed-radix rules (:meth:`split`), which index the bounds by the
    polynomial normal form of ``a`` on first use — so a query without a
    radix pair never pays for normalizing them.  The bounds also license
    the udiv bound (:meth:`bounded`).

    ``zero`` holds the terms ``r`` of the asserted conjuncts ``r == 0``;
    the quotient identity folds a remainder among them to ``0``.
    """

    __slots__ = ("zpow2", "less", "radix", "zero", "_memo", "_splits",
                 "_bounds")

    def __init__(self, zpow2: Iterable[Term] = (),
                 less: Sequence[tuple[Term, Term]] = (),
                 radix: dict[Term, frozenset[Term]] | None = None,
                 zero: Iterable[Term] = ()) -> None:
        self.zpow2: frozenset[Term] = frozenset(zpow2)
        self.less: tuple[tuple[Term, Term], ...] = tuple(less)
        self.radix: dict[Term, frozenset[Term]] = radix or {}
        self.zero: frozenset[Term] = frozenset(zero)
        self._memo: dict[Term, bool] = {}
        self._splits: dict[tuple[Term, Term], tuple[Term, Term] | None] = {}
        self._bounds: dict[Term, set[Term]] | None = None

    def __bool__(self) -> bool:
        # Whether a fact licenses a term rewrite; bounds and zero facts
        # only qualify one (a radix pair, a comparison, a remainder).
        return bool(self.zpow2 or self.radix)

    def __or__(self, other: "Facts") -> "Facts":
        if not (other.zpow2 or other.less or other.radix or other.zero):
            return self
        if not (self.zpow2 or self.less or self.radix or self.zero):
            return other
        radix = dict(self.radix)
        for v, us in other.radix.items():
            radix[v] = radix[v] | us if v in radix else us
        return Facts(self.zpow2 | other.zpow2, self.less + other.less, radix,
                     self.zero | other.zero)

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

    def split(self, x: Term, v: Term, polys: PolyMemo | None = None
              ) -> tuple[Term, Term] | None:
        """``(q, r)`` with ``x = q*v + r`` as polynomials, ``r < v`` and
        ``q < u`` for a radix partner ``u`` of ``v`` (or ``q = 0``) — the
        unique mixed-radix digits of ``x`` — else ``None``.  Normalized
        terms in, normalized terms out; ``polys`` is the query's
        polynomial memo."""
        key = (x, v)
        if key in self._splits:
            return self._splits[key]
        out = split_linear(x, v, polys) if x.sort is v.sort else None
        if out is not None:
            q, r = out
            bounds = self._bound_map(polys)
            q_fits = _is_zero(q) or not self.radix.get(
                v, frozenset()).isdisjoint(bounds.get(q, ()))
            if not q_fits or v not in bounds.get(r, ()):
                out = None
        self._splits[key] = out
        return out

    def bounded(self, a: Term, b: Term, polys: PolyMemo | None = None
                ) -> bool:
        """Is ``a < b`` among the bounds (normalized terms in)?"""
        return b in self._bound_map(polys).get(a, ())

    def _bound_map(self, polys: PolyMemo | None) -> dict[Term, set[Term]]:
        """The bounds indexed by the normal form of their lower side,
        built on first use."""
        if self._bounds is None:
            self._bounds = {}
            for a, b in self.less:
                self._bounds.setdefault(normalize_arith(a, polys), set()).add(
                    normalize_arith(b, polys))
        return self._bounds


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
    return poly_offset(poly_of(y), poly_of(x), sort.modulus) == \
        sort.modulus - 1


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


def _narrow(t: Term) -> Term | None:
    """``a`` when ``t`` is ``zext(a)`` widened by at least ``a``'s own
    width — a factor whose products cannot wrap at ``t``'s width."""
    if t.kind == Kind.ZEXT and t.payload >= t.args[0].sort.width:
        return t.args[0]
    return None


def _product_factors(t: Term) -> tuple[Term, Term] | None:
    """``(u, v)`` when ``t`` is ``zext(u) * zext(v)`` computed without
    wraparound."""
    if t.kind != Kind.BVMUL or len(t.args) != 2:
        return None
    u, v = (_narrow(a) for a in t.args)
    if u is None or v is None or u.sort is not v.sort:
        return None
    return u, v


def _radix_of_conjunct(f: Term) -> tuple[Term, Term] | None:
    """The factors ``(u, v)`` of a conjunct proving ``u * v <= 2^w``.

    Matches ``zext(u) * zext(v) <= c`` (or ``< c``) with ``c <= 2^w`` —
    :meth:`Geometry.extent_fits` — and ``zext(s) == zext(u) * zext(v)``
    with ``s`` of ``u``'s width, or a constant below ``2^w`` in place of
    ``zext(s)`` — :meth:`Geometry.covering`.
    """
    k = f.kind
    if k in (Kind.BVULE, Kind.BVULT):
        prod, c = f.args
        pair = _product_factors(prod)
        if pair and c.kind == Kind.BVCONST and \
                c.payload <= 1 << pair[0].sort.width:
            return pair
        return None
    if k != Kind.EQ or not isinstance(f.args[0].sort, BitVecSort):
        return None
    a, b = f.args
    for prod, s in ((a, b), (b, a)):
        pair = _product_factors(prod)
        if pair is None:
            continue
        w = pair[0].sort.width
        inner = _narrow(s)
        if (inner is not None and inner.sort.width <= w) or \
                (s.kind == Kind.BVCONST and s.payload < 1 << w):
            return pair
    return None


def fact_conjuncts(terms: Sequence[Term]) -> list[Term]:
    """The positive top-level conjuncts of ``terms`` that could contribute
    to :func:`harvest_facts`."""
    return [f for f in _iter_conjuncts(terms)
            if f.kind == Kind.BVULT
            or (f.kind in (Kind.EQ, Kind.BVULE)
                and (_radix_of_conjunct(f) is not None
                     or _zpow2_of_conjunct(f) is not None))]


def _zero_of_conjunct(f: Term) -> Term | None:
    """``r`` when conjunct ``f`` is ``r == 0`` in either orientation."""
    if f.kind != Kind.EQ:
        return None
    a, b = f.args
    if _is_zero(a):
        a, b = b, a
    return a if _is_zero(b) and isinstance(a.sort, BitVecSort) else None


def remainder_conjuncts(terms: Sequence[Term]) -> list[Term]:
    """The positive top-level conjuncts ``x urem m == 0`` of ``terms``
    with ``m`` not a constant.  The simplifier rewrites them before the
    other conjuncts, so that the zero facts they give reach the quotient
    identity's remainders."""
    out = []
    for f in _iter_conjuncts(terms):
        r = _zero_of_conjunct(f)
        if r is not None and r.kind == Kind.BVUREM and \
                r.args[1].kind != Kind.BVCONST:
            out.append(f)
    return out


def harvest_facts(terms: Sequence[Term]) -> Facts:
    """Scan a query's assertion list for rewrite-enabling facts.

    Only *positive top-level conjuncts* are consulted — a fact buried
    under a negation or disjunction does not hold unconditionally in the
    query and must not license a rewrite.
    """
    zpow2 = []
    less = []
    zero = []
    radix: dict[Term, set[Term]] = {}
    for f in _iter_conjuncts(terms):
        t = _zpow2_of_conjunct(f)
        if t is not None:
            zpow2.append(t)
            continue
        pair = _radix_of_conjunct(f)
        if pair is not None:
            u, v = pair
            for p, q in ((u, v), (v, u)):
                if q.kind != Kind.BVCONST:
                    radix.setdefault(q, set()).add(p)
        elif f.kind == Kind.BVULT:
            less.append(f.args)
        else:
            r = _zero_of_conjunct(f)
            if r is not None:
                zero.append(r)
    if not zpow2 and not less and not radix and not zero:
        return NO_FACTS
    return Facts(zpow2, less, {k: frozenset(v) for k, v in radix.items()},
                 zero)


class Units:
    """The variables a query defines by a top-level conjunct.

    ``subst`` maps each defined variable to its value: a constant; for
    variables only equated with each other, the lowest-``tid`` variable
    of their class; or, for a variable defined by a term (``v == t``),
    that term with every earlier value substituted into it, so that no
    value mentions a variable of ``subst``.  ``defs`` holds the constant
    and variable conjuncts that define them (a dict used as an ordered
    set), which stay asserted as they are; ``terms`` maps each term
    definition to its variable, and is asserted as ``v == value``
    simplified.  A variable keeps its first definition: a later,
    conflicting constant is left out of ``defs`` so that substitution
    folds it to FALSE, and a later ``v == t2`` becomes ``t1 == t2``.
    """

    __slots__ = ("subst", "defs", "terms")

    def __init__(self) -> None:
        self.subst: dict[Term, Term] = {}
        self.defs: dict[Term, None] = {}
        self.terms: dict[Term, Term] = {}


def _unit_of(f: Term) -> tuple[Term, Term] | None:
    """``(var, value)`` when conjunct ``f`` pins a variable, else ``None``.

    Recognizes a Bool ``v``, ``not v``, ``v == c`` in either orientation
    — plus ``v + k == c``, which is how the polynomial normalizer spells
    ``v == c`` when ``c`` lies in the upper half of the word (``v == 200``
    at 8 bits becomes ``v + 56 == 0``) — and ``v1 == v2`` between two
    bit-vector variables (the value is then ``v2``).
    """
    k = f.kind
    if k == Kind.VAR:
        return (f, TRUE) if f.sort.is_bool() else None
    if k == Kind.NOT:
        v = f.args[0]
        return (v, FALSE) if v.kind == Kind.VAR else None
    if k != Kind.EQ:
        return None
    a, b = f.args
    if a.kind == Kind.VAR and b.kind == Kind.VAR and \
            isinstance(a.sort, BitVecSort):
        return a, b
    case = _case_of(f)
    if case is None or case[0].kind != Kind.VAR:
        return None
    v, c = case
    return v, BVConst(c, v.sort.width)


def _case_of(guard: Term) -> tuple[Term, int] | None:
    """``(x, c)`` when ``guard`` pins the bit-vector term ``x`` to the
    constant value ``c``: ``x == c`` in either orientation, or
    ``x + k == c`` (for ``x == c - k``), the polynomial normalizer's
    spelling when ``c - k`` lies in the upper half of the word."""
    if guard.kind != Kind.EQ:
        return None
    a, b = guard.args
    if b.kind != Kind.BVCONST:
        a, b = b, a
        if b.kind != Kind.BVCONST:
            return None
    if a.kind == Kind.BVADD and len(a.args) == 2:
        p, q = a.args
        if p.kind == Kind.BVCONST:
            p, q = q, p
        if q.kind == Kind.BVCONST:
            return p, (b.payload - q.payload) % b.sort.modulus
    return a, b.payload


def _definition_of(f: Term) -> tuple[Term, Term] | None:
    """``(v, t)`` when conjunct ``f`` is ``v == t`` in either orientation,
    ``v`` a bit-vector variable and ``t`` neither a constant nor a
    variable."""
    if f.kind != Kind.EQ:
        return None
    v, t = f.args
    if t.kind == Kind.VAR:
        v, t = t, v
    if v.kind != Kind.VAR or t.kind in (Kind.VAR, Kind.BVCONST) or \
            not isinstance(v.sort, BitVecSort):
        return None
    return v, t


def _occurs(v: Term, t: Term) -> bool:
    """Whether variable ``v`` occurs in ``t``: a walk pruned by the
    variable bloom masks memoized on the nodes, so a subterm that cannot
    mention ``v`` is never entered."""
    bit = var_mask(v)
    if not var_mask(t) & bit:
        return False
    stack, seen = [t], set()
    while stack:
        s = stack.pop()
        if s is v:
            return True
        if s not in seen and s._vm & bit:
            seen.add(s)
            stack.extend(s.args)
    return False


def harvest_units(terms: Sequence[Term]) -> Units:
    """Collect the unit definitions among a query's positive top-level
    conjuncts — as for :func:`harvest_facts`, a unit under a negation,
    disjunction or ite does not hold in every model and is ignored.

    Variable–variable equalities merge classes (union-find, the lowest
    ``tid`` as root); each class maps to its constant if one of its
    members is pinned to one, else to its root, so chains such as
    ``a == b & b == 3`` fold every member to the constant.  Constant
    units are taken first, so that under ``a == b & a == 3 & b == 3``
    the cheap constant pins, not ``a == b``, stay as definitions.

    Then each ``v == t`` with ``t`` neither a constant nor a variable
    defines ``v`` by ``t`` — in assertion order, when ``v`` takes part in
    no constant or variable unit and has no definition yet.  ``t`` gets
    the values found so far substituted into it, and the definition is
    taken only if ``v`` does not occur in the result (``x == x + 1``
    defines nothing).  ``v``'s value is then substituted into the earlier
    term values that mention it, so no value mentions a defined
    variable."""
    parent: dict[Term, Term] = {}
    value: dict[Term, Term] = {}  # class root -> constant

    def find(v: Term) -> Term:
        root = parent.setdefault(v, v)
        while root is not parent[root]:
            root = parent[root]
        while v is not root:
            parent[v], v = root, parent[v]
        return root

    units = Units()
    hits = []
    definitions = []
    for f in _iter_conjuncts(terms):
        hit = _unit_of(f)
        if hit is None:
            d = _definition_of(f)
            if d is not None:
                definitions.append((f, d))
            continue
        if hit[1].kind == Kind.VAR:
            hits.append((f, hit))
            continue
        root = find(hit[0])
        if root in value:
            continue  # redundant, or conflicting: substitution folds it
        value[root] = hit[1]
        units.defs[f] = None
    for f, (a, b) in hits:
        root, other = find(a), find(b)
        if other is root or (root in value and other in value):
            continue  # implied, or joins two constants: folds either way
        if other.tid < root.tid:
            root, other = other, root
        parent[other] = root
        if other in value:
            value[root] = value.pop(other)
        units.defs[f] = None
    for v in parent:
        root = find(v)
        target = value.get(root, root)
        if target is not v:
            units.subst[v] = target
    subst = units.subst
    for f, (v, t) in definitions:
        if v in parent or v in subst:
            continue  # a unit, or defined already: substitution folds f
        t = substitute(t, subst)
        if _occurs(v, t):
            continue
        for w in units.terms.values():
            subst[w] = substitute(subst[w], {v: t})
        subst[v] = t
        units.terms[f] = v
    return units


# --------------------------------------------------------------------- rules


def _mask_of(m: Term, polys: PolyMemo | None) -> Term:
    """``m - 1`` — the AND mask for a zpow2 modulus, pre-normalized so the
    rewriter's output matches what a re-simplification would produce
    (keeps the simplifier idempotent on rewritten terms)."""
    return normalize_arith(BVSub(m, BVConst(1, m.sort.width)), polys)


def _norm_eq(a: Term, b: Term, polys: PolyMemo | None) -> Term:
    """An equality in the simplifier's canonical form."""
    if isinstance(a.sort, BitVecSort):
        lhs, rhs = normalize_eq(a, b, polys)
        return Eq(lhs, rhs)
    return Eq(a, b)


def _radix_eq(a: Term, b: Term, facts: Facts,
              polys: PolyMemo | None) -> Term | None:
    """``q_a == q_b & r_a == r_b`` when ``a`` and ``b`` split over one
    radix (:meth:`Facts.split`) and at least one has a ``v`` digit."""
    for v in facts.radix:
        sa = facts.split(a, v, polys)
        if sa is None:
            continue
        sb = facts.split(b, v, polys)
        if sb is None or (_is_zero(sa[0]) and _is_zero(sb[0])):
            continue
        return And(_rewrite_eq(_norm_eq(sa[0], sb[0], polys), facts, polys),
                   _rewrite_eq(_norm_eq(sa[1], sb[1], polys), facts, polys))
    return None


def _is_zero(t: Term) -> bool:
    return t.kind == Kind.BVCONST and t.payload == 0


def _rewrite_eq(t: Term, facts: Facts, polys: PolyMemo | None) -> Term:
    return rewrite_node(t, facts, polys) if t.kind == Kind.EQ else t


def rewrite_node(t: Term, facts: Facts,
                 polys: PolyMemo | None = None) -> Term:
    """Apply the word-level rules to one node whose children are already
    simplified.  Returns ``t`` itself when no rule fires; rewritten
    results are built with smart constructors from already-simplified,
    pre-normalized parts, so the caller needs no second pass.  ``polys``
    is the query's polynomial memo (optional)."""
    k = t.kind
    if k == Kind.BVUREM or k == Kind.BVUDIV:
        x, m = t.args
        if k == Kind.BVUREM and facts.is_zpow2(m):
            return BVAnd(x, _mask_of(m, polys))
        parts = facts.split(x, m, polys) if m in facts.radix else None
        if parts is None:
            return t
        return parts[0] if k == Kind.BVUDIV else parts[1]
    if k == Kind.EQ:
        a, b = t.args
        for ite, other in ((a, b), (b, a)):
            if ite.kind != Kind.ITE or ite.sort.is_bool():
                continue
            cond, then, els = ite.args
            if other is then:
                return Or(cond, _norm_eq(els, other, polys))
            if other is els:
                return Or(Not(cond), _norm_eq(then, other, polys))
            then_eq = _norm_eq(then, other, polys)
            els_eq = _norm_eq(els, other, polys)
            if then_eq.is_const() or els_eq.is_const():
                return Ite(cond, then_eq, els_eq)
        if facts.radix and isinstance(a.sort, BitVecSort):
            out = _radix_eq(a, b, facts, polys)
            if out is not None:
                return out
        return t
    if k == Kind.BVULT:
        q, b = t.args
        if q.kind == Kind.BVUDIV and facts.bounded(q.args[0], b, polys):
            m = q.args[1]
            return Not(_norm_eq(m, BVConst(0, m.sort.width), polys))
        return t
    if k == Kind.ITE and not t.sort.is_bool():
        return _switch_ite(t)
    return t


def rewrite_quotients(t: Term, facts: Facts,
                      polys: PolyMemo | None = None) -> Term:
    """The quotient identity on the normalized term ``t``: each multiple
    ``j*m*(x udiv m)`` in its polynomial becomes ``j*(x - r)``, where
    ``r`` is ``x urem m`` rewritten by :func:`rewrite_node` and folded to
    ``0`` by a zero fact.  Returns ``t`` itself when nothing matches."""
    sort = t.sort
    modulus = sort.modulus
    poly = poly_of(t, polys)
    quotients = list(dict.fromkeys(a for mono in poly for a in mono
                                   if a.kind == Kind.BVUDIV))
    changed = False
    for q in quotients:
        x, m = q.args
        target = poly_mul(poly_of(m, polys), {(q,): 1}, modulus)
        j = _multiple(poly, target, modulus)
        if j is None:
            continue
        r = rewrite_node(BVURem(x, m), facts, polys)
        if r in facts.zero:
            r = BVConst(0, sort.width)
        poly = poly_add(poly, poly_scale(target, -j, modulus), modulus)
        for part, sign in ((x, j), (r, -j)):
            poly = poly_add(poly, poly_scale(poly_of(part, polys), sign,
                                             modulus), modulus)
        changed = True
    return poly_to_term(poly, sort, polys, (t,)) if changed else t


def _multiple(poly: Poly, target: Poly, modulus: int) -> int | None:
    """``j`` when ``poly`` holds every monomial of ``j * target``
    (``j != 0``), else ``None``."""
    if not target:
        return None
    lead, c0 = next(iter(target.items()))
    c = poly.get(lead)
    if c is None:
        return None
    g = gcd(c0, modulus)  # solve j * c0 == c (mod 2^w)
    if c % g:
        return None
    j = c // g * pow(c0 // g, -1, modulus // g) % modulus
    if all(poly.get(mono, 0) == ci * j % modulus
           for mono, ci in target.items()):
        return j
    return None


def _switch_ite(t: Term) -> Term:
    """Put the head case of ``ite(x == c, v, rest)`` into switch normal
    form: the maximal run of links guarded by ``x == c_i`` on the same
    selector ``x`` (:func:`_case_of`) sorted by strictly decreasing
    ``c_i``.

    ``rest`` is already in normal form (the simplifier works bottom-up),
    so the head only has to be inserted into its run: below the links
    with a larger constant, replacing a link with the same one — which
    the head's guard shadows.  Distinct constants make the guards
    pairwise exclusive, so moving a case across them preserves every
    model.  The walk stops at the first link of any other guard shape and
    never moves a case across it.  A head already in place returns ``t``
    after one comparison; a kernel that writes ascending addresses in
    thread order serializes to exactly that shape, the last write
    outermost."""
    cond, then, els = t.args
    head = _case_of(cond)
    if head is None:
        return t
    x, c = head
    above = []
    node = els
    while node.kind == Kind.ITE:
        case = _case_of(node.args[0])
        if case is None or case[0] is not x or case[1] < c:
            break
        if case[1] == c:
            node = node.args[2]
            break
        above.append(node)
        node = node.args[2]
    if node is els:
        return t
    out = Ite(cond, then, node)
    for link in reversed(above):
        out = Ite(link.args[0], link.args[1], out)
    return out
