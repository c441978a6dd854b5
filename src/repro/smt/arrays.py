"""Reduction of QF_ABV to QF_BV.

Two passes:

1. **Write-chain expansion** — every ``select`` over a ``store`` chain (or an
   ite of arrays) is rewritten into an ite chain over index equalities::

       select(store(a, i, v), j)  -->  ite(i = j, v, select(a, j))

   The index equalities go through the polynomial engine first, so reads that
   provably hit (or provably miss) a write collapse without any ite.  After
   this pass every remaining ``select`` applies to a base array *variable*.

2. **Ackermann reduction** — for each base array variable, the distinct read
   indices ``i_1 .. i_m`` get fresh element variables ``r_1 .. r_m``, plus the
   functional-consistency constraints ``i_j = i_k  =>  r_j = r_k``.  Reads
   whose indices are syntactically equal modulo the polynomial normal form
   share one variable; reads whose indices provably differ skip their
   constraint.  Those are found by *index class*: two indices differ by a
   constant exactly when their polynomials agree on every non-constant
   monomial, so the reads of one array are put into classes by that
   non-constant part — one polynomial per read — and only pairs from
   different classes get a constraint, emitted in pair order.

The returned :class:`ArrayInfo` lets the model layer reconstruct concrete
array contents for counterexample replay.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .poly import PolyMemo, normalize_arith, poly_of
from .simplify import index_difference
from .sorts import ArraySort
from .substitute import rebuild
from .terms import Eq, Implies, Ite, Kind, Select, Term, fresh_var
from ..errors import SolverError

__all__ = ["ArrayInfo", "eliminate_arrays"]


@dataclass
class ArrayInfo:
    """Bookkeeping from the Ackermann reduction.

    ``reads`` maps each base array variable to its list of
    ``(index_term, element_var)`` pairs, in first-seen order.
    """

    reads: dict[Term, list[tuple[Term, Term]]] = field(default_factory=dict)


class _Eliminator:
    """Write-chain expansion + Ackermann reduction over one query."""

    def __init__(self, polys: PolyMemo) -> None:
        self._select_cache: dict[tuple[Term, Term], Term] = {}
        self._rewrite_cache: dict[Term, Term] = {}
        # (array_var, canonical_index) -> element var
        self._assigned: dict[tuple[Term, Term], Term] = {}
        self._replacement: dict[Term, Term] = {}
        self._polys = polys
        self.info = ArrayInfo()

    # --------------------------------------------------- write-chain expansion

    def _expand_select(self, array: Term, index: Term) -> Term:
        """Resolve ``select(array, index)`` down to base-variable selects."""
        key = (array, index)
        hit = self._select_cache.get(key)
        if hit is not None:
            return hit
        k = array.kind
        if k == Kind.STORE:
            base, widx, wval = array.args
            d = index_difference(widx, index, self._polys)
            if d == 0:
                out = wval
            elif d is not None:
                out = self._expand_select(base, index)
            else:
                out = Ite(Eq(widx, index), wval,
                          self._expand_select(base, index))
        elif k == Kind.ITE:
            cond, then, els = array.args
            out = Ite(cond,
                      self._expand_select(then, index),
                      self._expand_select(els, index))
        elif k == Kind.VAR:
            out = Select(array, index)
        else:
            raise SolverError(f"unsupported array term kind {k.name}")
        self._select_cache[key] = out
        return out

    def _expand(self, t: Term) -> Term:
        hit = self._rewrite_cache.get(t)
        if hit is not None:
            return hit
        if t.kind == Kind.EQ and isinstance(t.args[0].sort, ArraySort):
            raise SolverError("array extensionality is not supported")
        if not t.args:
            out = t
        else:
            new_args = tuple(self._expand(a) for a in t.args)
            if t.kind == Kind.SELECT:
                out = self._expand_select(new_args[0], new_args[1])
            else:
                out = rebuild(t, new_args)
        self._rewrite_cache[t] = out
        return out

    # ------------------------------------------------------------ Ackermann

    def _ackermann(self, t: Term) -> Term:
        hit = self._replacement.get(t)
        if hit is not None:
            return hit
        if not t.args:
            out = t
        else:
            new_args = tuple(self._ackermann(a) for a in t.args)
            if t.kind == Kind.SELECT:
                array, index = new_args
                assert array.kind == Kind.VAR
                key = (array, normalize_arith(index, self._polys))
                var = self._assigned.get(key)
                if var is None:
                    var = fresh_var(f"{array.payload}@",
                                    array.sort.elem_sort)
                    self._assigned[key] = var
                    self.info.reads.setdefault(array, []).append((index, var))
                out = var
            else:
                out = rebuild(t, new_args)
        self._replacement[t] = out
        return out

    # --------------------------------------------------------------- driving

    def run(self, assertions: list[Term]) -> tuple[list[Term], list[Term]]:
        """Rewrite ``assertions``; returns ``(rewritten, constraints)`` where
        ``constraints`` are the functional-consistency implications over
        every pair of reads from different index classes."""
        if sys.getrecursionlimit() < 100_000:
            sys.setrecursionlimit(100_000)
        expanded = [self._expand(t) for t in assertions]
        rewritten = [self._ackermann(t) for t in expanded]

        constraints: list[Term] = []
        for pairs in self.info.reads.values():
            # Index class: the non-constant part of the polynomial.  The
            # reads are deduplicated, so two of one class differ by a
            # non-zero constant and never alias.
            classes: dict[frozenset, int] = {}
            cls = []
            for idx, _ in pairs:
                poly = poly_of(idx, self._polys)
                key = frozenset(item for item in poly.items() if item[0])
                cls.append(classes.setdefault(key, len(classes)))
            for j, (idx_j, var_j) in enumerate(pairs):
                for k in range(j + 1, len(pairs)):
                    if cls[k] != cls[j]:
                        idx_k, var_k = pairs[k]
                        constraints.append(
                            Implies(Eq(idx_j, idx_k), Eq(var_j, var_k)))
        return rewritten, constraints


def eliminate_arrays(assertions: list[Term], polys: PolyMemo | None = None
                     ) -> tuple[list[Term], ArrayInfo]:
    """Rewrite ``assertions`` into an equisatisfiable array-free form.

    ``polys`` (optional) is the query's polynomial memo, shared with the
    simplification passes around this one.  Raises :class:`SolverError`
    on array equalities (extensionality), which the paper's encodings
    never produce — outputs are always compared element-wise at a
    symbolic index.
    """
    eliminator = _Eliminator(polys if polys is not None else PolyMemo())
    rewritten, constraints = eliminator.run(assertions)
    return rewritten + constraints, eliminator.info
