"""Bottom-up term simplification.

Composes five layers:

1. the smart constructors of :mod:`repro.smt.terms` (constant folding and
   cheap local identities, re-applied on rebuilt nodes);
2. polynomial normalization of bit-vector arithmetic
   (:mod:`repro.smt.poly`) — distributes, collects and cancels terms modulo
   ``2**w``, and canonicalizes equalities as ``positive == positive``;
3. array read-over-write resolution using the polynomial engine to decide
   index (dis)equality syntactically: ``select(store(a, i, v), j)`` collapses
   to ``v`` when ``i - j`` normalizes to 0, and skips the store when ``i - j``
   normalizes to a non-zero constant;
4. the word-level rewrite rules of :mod:`repro.smt.rewrite`, applied to
   each rebuilt ``urem``/``udiv``/``==``/``<``/``ite`` node and to each
   normalized sum or product: the fact-licensed divider and
   multiplier eliminations, the quotient identity
   ``m*(x udiv m) -> x - (x urem m)``, and the *switch normal form* — an
   ite chain whose guards pin one selector to distinct constants keeps
   its cases sorted by constant, so two serializations of one
   cell->value map (the naive and optimized Transpose output read at a
   symbolic cell after array elimination) become one interned term and
   their disequality folds to FALSE;
5. word-level unit propagation and variable elimination
   (:func:`simplify_all`): a positive top-level conjunct that pins a
   variable — ``v == c`` in either orientation, a Bool ``v``, ``not v``,
   or ``v1 == v2`` (each class of equal variables maps to its constant or
   its lowest-``tid`` member) — seeds the memo with ``v -> c``, so one
   bottom-up pass both substitutes and folds.  The ``+C`` configurations
   pin every block, grid and scalar value, so their double-width geometry
   products fold to constants here instead of being bit-blasted as
   multipliers.  A conjunct ``v == t`` that defines ``v`` by a term
   (occurs-checked, composed with the earlier definitions — see
   :func:`~repro.smt.rewrite.harvest_units`) seeds ``v -> simplify(t)``:
   the Reduction sdata VCs assert ``s.tid == 2*(k*t.tid)``, and the
   substitution makes both sides of their data equality one term.  The
   pass repeats only when it exposes a new unit (``x + 1 == 3``
   normalizes to ``x == 2``).  Each constant or variable definition stays
   asserted as it is and each term definition as ``v == simplify(t)``,
   so every eliminated variable keeps its value in every model, and two
   conflicting units fold to FALSE.

Simplification is idempotent on its output in all cases exercised by the test
suite (a property-based test checks this) and is *model-preserving*: it never
strengthens or weakens a formula.

All passes memoize on DAG node identity (``dict[Term, Term]`` — one
C-level pointer hash per probe, since :class:`~repro.smt.terms.Term`
relies on ``object``'s identity semantics), so a shared subterm is
simplified once per call no matter how many paths reach it.  What does
not depend on a pass's units and facts lives for the whole
:func:`simplify_all` call in one :class:`QueryMemo`: the polynomial of
each term (:class:`~repro.smt.poly.PolyMemo`, seeded with every
normalized output, so normalizing ``a + b`` walks only its top node;
the solver hands the same memo to array elimination and the pass after
it) and the resolution of each ``(array, index)`` read, so a DAG of
array ites is resolved node by node, not expanded as a tree.  A ``+``/``-``
node whose every parent is one too gets no canonical term at all — only
its polynomial, which the sum above it reads — so a chain of ``k``
additions builds one canonical sum, not ``k`` ever longer ones.
"""

from __future__ import annotations

from functools import partial
from typing import Collection

from .poly import PolyMemo, normalize_arith, normalize_eq, poly_of, poly_offset
from .rewrite import (
    Facts, NO_FACTS, Units, fact_conjuncts, harvest_facts, harvest_units,
    remainder_conjuncts, rewrite_node, rewrite_quotients,
)
from .sorts import BitVecSort
from .substitute import rebuild, var_mask
from .terms import FALSE, TRUE, Ite, Kind, Select, Term, Eq

__all__ = ["simplify", "simplify_all", "index_difference", "harvest_facts",
           "QueryMemo"]

_ARITH_KINDS = frozenset({Kind.BVADD, Kind.BVSUB, Kind.BVNEG, Kind.BVMUL, Kind.BVSHL})
_SUM_KINDS = frozenset({Kind.BVADD, Kind.BVSUB, Kind.BVNEG})

#: Kinds the word-level rewriter (:mod:`repro.smt.rewrite`) has rules for —
#: gating on kind keeps the per-node overhead to one frozenset probe.
_REWRITE_KINDS = frozenset({Kind.BVUREM, Kind.BVUDIV, Kind.EQ, Kind.ITE,
                            Kind.BVULT})


class QueryMemo:
    """The memos of one query that do not depend on its units or facts:
    ``polys``, the polynomial of each term (:class:`~repro.smt.poly.PolyMemo`,
    which array elimination shares), and ``selects``, the resolution of
    each ``(array, index)`` read (:func:`_resolve_select`)."""

    __slots__ = ("polys", "selects")

    def __init__(self, polys: PolyMemo | None = None) -> None:
        self.polys = polys if polys is not None else PolyMemo()
        self.selects: dict[tuple[Term, Term], Term] = {}


def index_difference(i: Term, j: Term,
                     polys: PolyMemo | None = None) -> int | None:
    """If ``i - j`` is a constant modulo ``2**w``, return it, else ``None``.

    This is the syntactic disequality test used for read-over-write: a
    constant non-zero difference proves the indices never alias.
    ``polys`` (optional) is the query's polynomial memo.
    """
    if i is j:
        return 0
    sort = i.sort
    if not isinstance(sort, BitVecSort) or j.sort is not sort:
        return None
    return poly_offset(poly_of(i, polys), poly_of(j, polys), sort.modulus)


def _resolve_select(array: Term, index: Term, memo: QueryMemo) -> Term:
    """Push a select through store chains and array-ites as far as syntactic
    index comparison allows.

    Every ``(array, index)`` pair on the way — each store skipped, each
    ite branch — lands in ``memo.selects`` with its result, so a DAG of
    array ites is resolved once per node and not expanded as a tree, and
    chains sharing a suffix resolve it once.
    """
    selects = memo.selects
    key = (array, index)
    out = selects.get(key)
    if out is not None:
        return out
    skipped = [key]
    while True:
        if array.kind == Kind.STORE:
            base, widx, wval = array.args
            d = index_difference(widx, index, memo.polys)
            if d == 0:
                out = wval
            elif d is not None:  # provably different cell
                array = base
                key = (array, index)
                out = selects.get(key)
                if out is None:
                    skipped.append(key)
                    continue
            else:
                out = Select(array, index)
        elif array.kind == Kind.ITE:
            cond, then, els = array.args
            out = Ite(cond,
                      _resolve_select(then, index, memo),
                      _resolve_select(els, index, memo))
        else:
            out = Select(array, index)
        break
    for key in skipped:
        selects[key] = out
    return out


def simplify(term: Term, cache: dict[Term, Term] | None = None, *,
             memo: QueryMemo | None = None,
             facts: Facts | None = None,
             sum_only: Collection[Term] = ()) -> Term:
    """Return an equivalent, normalized term (see module docstring).

    ``facts`` supplies the harvested per-query context for the word-level
    rewrite layer (:mod:`repro.smt.rewrite`); pass the same fact base for
    every term sharing a ``cache`` — cached results are only valid under
    the facts they were rewritten with.  ``memo`` holds no such context
    and may be shared by every call over one query.

    A node of ``sum_only`` (:func:`_sum_only`) — a ``+``/``-`` node that
    only feeds other ones — keeps its rebuilt node in the cache, with its
    polynomial memoized, and no canonical term: the sum above it reads
    the polynomial, so a chain of ``k`` sums builds one canonical chain,
    not ``k`` ever longer ones.
    """
    if cache is None:
        cache = {}
    if memo is None:
        memo = QueryMemo()
    polys = memo.polys
    fb = facts if facts is not None else NO_FACTS

    def finish(t: Term) -> Term:
        """Post-process a node whose children are already simplified.

        The outputs of the normalizers and the rewriter are built via smart
        constructors exclusively from already-simplified parts, so the
        result needs no second pass.
        """
        out = rebuild(t, tuple(cache[a] for a in t.args)) if t.args else t
        k = out.kind
        if k in _ARITH_KINDS:
            if k in _SUM_KINDS and t in sum_only:
                poly_of(out, polys)
            else:
                out = rewrite_quotients(normalize_arith(out, polys), fb,
                                        polys)
        elif k == Kind.EQ and isinstance(out.args[0].sort, BitVecSort):
            lhs, rhs = normalize_eq(out.args[0], out.args[1], polys)
            out = Eq(lhs, rhs)
        elif k == Kind.SELECT:
            out = _resolve_select(out.args[0], out.args[1], memo)
        if out.kind in _REWRITE_KINDS:
            out = rewrite_node(out, fb, polys)
        return out

    # Explicit stack: deep store chains overflow the C stack otherwise.
    stack = [term]
    while stack:
        t = stack[-1]
        if t in cache:
            stack.pop()
            continue
        pending = [a for a in t.args if a not in cache]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        cache[t] = finish(t)
    return cache[term]


def _sum_only(roots: list[Term]) -> set[Term]:
    """The ``+``/``-`` nodes under ``roots`` whose every parent is a
    ``+``/``-`` node: only their polynomials are ever read back, by the
    normalization of the sum above them."""
    seen: set[Term] = set()
    read = set(roots)  # nodes whose term is read: roots, non-sum args
    stack = list(roots)
    while stack:
        t = stack.pop()
        if t.args and t not in seen:
            seen.add(t)
            if t.kind not in _SUM_KINDS:
                read.update(t.args)
            stack.extend(t.args)
    return {t for t in seen if t.kind in _SUM_KINDS and t not in read}


def _pass(terms: list[Term], units: Units, memo: QueryMemo) -> list[Term]:
    """One simplification pass under ``units``, which seed its cache.
    The fact-shaped conjuncts go first; the facts harvested from *their*
    output — in the units' substituted space, where ``tid.y < bdim.y``
    reads ``tid.y < bdim.x`` once ``bdim.y == bdim.x`` is a unit — apply
    to the rest.  A term-defined variable is seeded with its value
    simplified under those facts (so a kept definition blasts no ``udiv``
    the facts remove); when a fact-shaped conjunct mentions one, the
    shaped conjuncts use a copy of the cache seeded without facts.  The
    conjuncts ``x urem m == 0`` (:func:`remainder_conjuncts`) go next,
    under those facts, and the zero facts of their output join the facts
    of the rest, where the quotient identity folds the remainders they
    pin.
    Constant and variable definitions are kept as they are, a term
    definition as ``v == value``; those nested in a top-level AND are
    appended, since the AND folds them.  The sums that only feed sums
    are found over the pass's roots: its terms and the definitions'
    values."""
    defs, named, subst = units.defs, units.terms, units.subst
    simp = partial(simplify, memo=memo,
                   sum_only=_sum_only(terms + [subst[v] for v in named.values()]))
    cache: dict[Term, Term] = dict(subst)
    shaped_terms = fact_conjuncts(terms)
    shaped_cache = cache
    if named:
        mask = 0
        for v in named.values():
            del cache[v]  # seeded below, once the facts are known
            mask |= var_mask(v)
        if any(var_mask(f) & mask for f in shaped_terms):
            shaped_cache = dict(cache)
            for v in named.values():
                shaped_cache[v] = simp(subst[v], shaped_cache)
    shaped = [simp(f, shaped_cache) for f in shaped_terms]
    facts = harvest_facts(shaped)
    for v in named.values():
        cache[v] = simp(subst[v], cache, facts=facts)
    remainders = remainder_conjuncts(terms)
    if remainders:
        facts |= harvest_facts([simp(f, cache, facts=facts)
                                for f in remainders])
    out = [t if t in defs
           else Eq(named[t], cache[named[t]]) if t in named
           else simp(t, cache, facts=facts)
           for t in terms]
    if defs or named:
        top = set(terms)
        out += [d for d in defs if d not in top]
        out += [Eq(v, cache[v]) for f, v in named.items() if f not in top]
    return out


def simplify_all(terms: list[Term],
                 polys: PolyMemo | None = None) -> list[Term]:
    """Simplify one query's assertion list with shared caches (the
    assertions of one query overlap heavily, so the term cache and the
    :class:`QueryMemo` are shared across the batch), propagating its
    unit conjuncts (module docstring, layer 5).  The pass repeats while
    it exposes a new unit; the :class:`QueryMemo` does not depend on
    units or facts and is shared between passes.  ``polys`` (optional)
    is a polynomial memo to share with the query's other passes (array
    elimination and the simplification after it).

    The word-level rewriter's facts are harvested from ``terms`` itself —
    the list must therefore be one conjunction (one query), which is how
    every caller uses it."""
    memo = QueryMemo(polys)
    units = harvest_units(terms)
    while True:
        out = _pass(terms, units, memo)
        more = harvest_units(out)
        if more.subst.keys() <= units.subst.keys():
            return out
        terms, units = out, more
