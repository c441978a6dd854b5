"""Hash-consing invariants of the term DAG.

The front end leans on two properties of :mod:`repro.smt.terms`:

* **identity semantics** — structurally equal constructions return the
  *same* object, so ``is``, ``id()``-keyed memo tables, and C-slot
  dict/set probes are all structural equality;
* **scope independence of per-node metadata** — the ``_vm`` memo slot
  caches node-derived facts only, so sharing one interned node across
  different ``fresh_scope``s can never leak scope-local state.

The second property is the regression this file pins: an earlier design
kept per-node metadata in a module-level dict keyed by term, which
aliased entries across scopes *and* leaked in long-lived servers.
"""

from repro.smt import (
    And, BVAdd, BVConst, BVVar, Eq, Not, fresh_scope, fresh_var,
    intern_stats, substitute,
)
from repro.smt.sorts import BV
from repro.smt.substitute import var_mask


class TestIdentity:
    def test_compound_terms_are_interned(self):
        x, y = BVVar("it.x", 8), BVVar("it.y", 8)
        assert BVAdd(x, y) is BVAdd(x, y)
        assert And(Eq(x, y), Not(Eq(y, x))) is And(Eq(x, y), Not(Eq(y, x)))

    def test_leaves_are_interned(self):
        assert BVVar("it.leaf", 16) is BVVar("it.leaf", 16)
        assert BVConst(7, 8) is BVConst(7, 8)

    def test_distinct_widths_distinct_nodes(self):
        assert BVVar("it.w", 8) is not BVVar("it.w", 16)
        assert BVConst(1, 8) is not BVConst(1, 16)

    def test_identity_is_equality(self):
        # __eq__/__hash__ are the C-slot defaults: equality IS identity,
        # which is exactly structural equality under interning.
        x = BVVar("it.eqh", 8)
        t = BVAdd(x, BVConst(1, 8))
        assert {t: "a"}[BVAdd(x, BVConst(1, 8))] == "a"
        assert len({t, BVAdd(x, BVConst(1, 8))}) == 1

    def test_stats_counters_move(self):
        before = intern_stats()
        x = BVVar("it.stats", 8)
        BVAdd(x, x)
        BVAdd(x, x)  # second construction is a hit
        after = intern_stats()
        assert after["hits"] > before["hits"]
        assert after["live"] >= before["live"]


class TestScopeMetadata:
    """Two scopes producing structurally equal terms share the interned
    node — and must therefore share only *structural* metadata."""

    def test_fresh_scope_reuses_interned_nodes(self):
        with fresh_scope():
            a = BVAdd(fresh_var("sc", BV(8)), BVConst(3, 8))
        with fresh_scope():
            b = BVAdd(fresh_var("sc", BV(8)), BVConst(3, 8))
        # Same counter value, same name, same interned object.
        assert a is b

    def test_var_mask_memo_is_scope_stable(self):
        with fresh_scope():
            v = fresh_var("vmm", BV(8))
            a = BVAdd(v, BVConst(1, 8))
            m1 = var_mask(a)
        with fresh_scope():
            w = fresh_var("vmm", BV(8))
            b = BVAdd(w, BVConst(1, 8))
            m2 = var_mask(b)
        assert a is b and v is w
        assert m1 == m2 == var_mask(a)
        # The mask really covers the variable: substituting it must not
        # be pruned away by the bloom filter.
        out = substitute(a, {v: BVConst(4, 8)})
        assert out.value == 5
