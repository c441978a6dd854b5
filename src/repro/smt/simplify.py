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
   each rebuilt ``urem``/``udiv``/``==``/``ite`` node: the fact-licensed
   divider and multiplier eliminations, and the *switch normal form* — an
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
simplified once per call no matter how many paths reach it.
"""

from __future__ import annotations

from .poly import normalize_arith, normalize_eq, poly_of, poly_add, poly_neg
from .rewrite import (
    Facts, NO_FACTS, Units, fact_conjuncts, harvest_facts, harvest_units,
    rewrite_node,
)
from .sorts import BitVecSort
from .substitute import rebuild, var_mask
from .terms import FALSE, TRUE, Ite, Kind, Select, Term, Eq

__all__ = ["simplify", "simplify_all", "index_difference", "harvest_facts"]

_ARITH_KINDS = frozenset({Kind.BVADD, Kind.BVSUB, Kind.BVNEG, Kind.BVMUL, Kind.BVSHL})

#: Kinds the word-level rewriter (:mod:`repro.smt.rewrite`) has rules for —
#: gating on kind keeps the per-node overhead to one frozenset probe.
_REWRITE_KINDS = frozenset({Kind.BVUREM, Kind.BVUDIV, Kind.EQ, Kind.ITE})


def _diff_const(ip, jneg, modulus: int) -> int | None:
    """Constant value of the polynomial sum ``ip + jneg``, else ``None``."""
    diff = poly_add(ip, jneg, modulus)
    if not diff:
        return 0
    if len(diff) == 1 and () in diff:
        return diff[()]
    return None


def index_difference(i: Term, j: Term,
                     memo: dict[tuple[Term, Term], int | None] | None = None
                     ) -> int | None:
    """If ``i - j`` is a constant modulo ``2**w``, return it, else ``None``.

    This is the syntactic disequality test used for read-over-write: a
    constant non-zero difference proves the indices never alias.  ``memo``
    (optional) caches the answer per ``(i, j)`` pair — one shared dict per
    :func:`simplify_all` call keeps long store chains from re-deriving the
    same polynomial differences query after query.
    """
    if i is j:
        return 0
    if memo is not None:
        hit = memo.get((i, j), _MISS)
        if hit is not _MISS:
            return hit
    sort = i.sort
    if not isinstance(sort, BitVecSort) or j.sort is not sort:
        d = None
    else:
        d = _diff_const(poly_of(i), poly_neg(poly_of(j), sort.modulus),
                        sort.modulus)
    if memo is not None:
        memo[(i, j)] = d
    return d


_MISS = object()


def _resolve_select(array: Term, index: Term,
                    memo: dict[tuple[Term, Term], int | None]) -> Term:
    """Push a select through store chains and array-ites as far as syntactic
    index comparison allows.

    The polynomial of ``index`` is derived once and reused against every
    store in the chain (the walk is linear in chain length, not quadratic in
    polynomial work), and each ``(write_index, index)`` verdict lands in
    ``memo`` for the rest of the :func:`simplify_all` call.
    """
    sort = index.sort
    jneg = None
    pcache: dict[Term, object] = {}
    while True:
        if array.kind == Kind.STORE:
            base, widx, wval = array.args
            if widx is index:
                d = 0
            else:
                d = memo.get((widx, index), _MISS)
                if d is _MISS:
                    if not isinstance(sort, BitVecSort) or \
                            widx.sort is not sort:
                        d = None
                    else:
                        if jneg is None:
                            jneg = poly_neg(poly_of(index, pcache),
                                            sort.modulus)
                        d = _diff_const(poly_of(widx, pcache), jneg,
                                        sort.modulus)
                    memo[(widx, index)] = d
            if d == 0:
                return wval
            if d is not None:  # provably different cell
                array = base
                continue
            return Select(array, index)
        if array.kind == Kind.ITE:
            cond, then, els = array.args
            return Ite(cond,
                       _resolve_select(then, index, memo),
                       _resolve_select(els, index, memo))
        return Select(array, index)


def simplify(term: Term, cache: dict[Term, Term] | None = None, *,
             index_memo: dict[tuple[Term, Term], int | None] | None = None,
             facts: Facts | None = None) -> Term:
    """Return an equivalent, normalized term (see module docstring).

    ``facts`` supplies the harvested per-query context for the word-level
    rewrite layer (:mod:`repro.smt.rewrite`); pass the same fact base for
    every term sharing a ``cache`` — cached results are only valid under
    the facts they were rewritten with.
    """
    if cache is None:
        cache = {}
    if index_memo is None:
        index_memo = {}
    memo = index_memo
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
            out = normalize_arith(out)
        elif k == Kind.EQ and isinstance(out.args[0].sort, BitVecSort):
            lhs, rhs = normalize_eq(out.args[0], out.args[1])
            out = Eq(lhs, rhs)
        elif k == Kind.SELECT:
            out = _resolve_select(out.args[0], out.args[1], memo)
        if out.kind in _REWRITE_KINDS:
            out = rewrite_node(out, fb)
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


def _pass(terms: list[Term], units: Units,
          memo: dict[tuple[Term, Term], int | None]) -> list[Term]:
    """One simplification pass under ``units``, which seed its cache.
    The fact-shaped conjuncts go first; the facts harvested from *their*
    output — in the units' substituted space, where ``tid.y < bdim.y``
    reads ``tid.y < bdim.x`` once ``bdim.y == bdim.x`` is a unit — apply
    to the rest.  A term-defined variable is seeded with its value
    simplified under those facts (so a kept definition blasts no ``udiv``
    the facts remove); when a fact-shaped conjunct mentions one, the
    shaped conjuncts use a copy of the cache seeded without facts.  Constant and variable definitions are kept as they are, a
    term definition as ``v == value``; those nested in a top-level AND
    are appended, since the AND folds them."""
    defs, named, subst = units.defs, units.terms, units.subst
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
                shaped_cache[v] = simplify(subst[v], shaped_cache,
                                           index_memo=memo)
    shaped = [simplify(f, shaped_cache, index_memo=memo)
              for f in shaped_terms]
    facts = harvest_facts(shaped)
    for v in named.values():
        cache[v] = simplify(subst[v], cache, index_memo=memo, facts=facts)
    out = [t if t in defs
           else Eq(named[t], cache[named[t]]) if t in named
           else simplify(t, cache, index_memo=memo, facts=facts)
           for t in terms]
    if defs or named:
        top = set(terms)
        out += [d for d in defs if d not in top]
        out += [Eq(v, cache[v]) for f, v in named.items() if f not in top]
    return out


def simplify_all(terms: list[Term]) -> list[Term]:
    """Simplify one query's assertion list with shared caches (the
    assertions of one query overlap heavily, so the term cache and the
    index-difference memo are shared across the batch), propagating its
    unit conjuncts (module docstring, layer 5).  The pass repeats while
    it exposes a new unit; the index-difference memo does not depend on
    units or facts and is shared between passes.

    The word-level rewriter's facts are harvested from ``terms`` itself —
    the list must therefore be one conjunction (one query), which is how
    every caller uses it."""
    memo: dict[tuple[Term, Term], int | None] = {}
    units = harvest_units(terms)
    while True:
        out = _pass(terms, units, memo)
        more = harvest_units(out)
        if more.subst.keys() <= units.subst.keys():
            return out
        terms, units = out, more
