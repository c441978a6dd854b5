"""Shared-prefix incremental batch solving: differential equivalence with
the one-shot facade, grouping, fault containment, and cache interaction.

The hard invariant under test: for any batch, ``solve_all(...,
incremental=True)`` (with or without preprocessing, at any job count,
under injected worker crashes) returns the same verdicts as the serial
one-shot path, and every SAT model satisfies its query's assertions.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    ArrayVar, BVAdd, BVAnd, BVConst, BVMul, BVSub, BVURem, BVVar, BoolVar,
    CheckResult, Eq, Iff, Not, Or, Query, Select, Solver, Store, UGt, ULt,
    fresh_scope,
    plan_groups, solve_all, solve_group,
)
from repro.smt.faults import FaultPlan, injected
from repro.smt.qcache import QueryCache

W = 8


def _prefix(tag: str):
    x = BVVar(f"{tag}.x", W)
    y = BVVar(f"{tag}.y", W)
    a = ArrayVar(f"{tag}.A", W, W)
    return [ULt(x, BVConst(64, W)),
            Eq(Select(Store(a, x, y), x), y),
            UGt(y, BVConst(0, W))], (x, y, a)


def _batch(tag: str, n: int = 5):
    """n queries sharing a 3-assertion prefix; the last one is UNSAT."""
    prefix, (x, y, a) = _prefix(tag)
    queries = []
    for i in range(n - 1):
        queries.append(Query(prefix +
                             [Eq(BVAdd(x, BVConst(i, W)), BVConst(40, W))]))
    queries.append(Query(prefix + [UGt(x, BVConst(200, W))]))  # x < 64: UNSAT
    return queries


def _verdicts(results):
    return [r.verdict for r in results]


def _php(tag: str, pigeons: int, holes: int):
    """Pigeonhole assertions — UNSAT when pigeons > holes, and hard enough
    that a tiny conflict budget expires before the first restart ends."""
    grid = [[BoolVar(f"{tag}.p{p}h{h}") for h in range(holes)]
            for p in range(pigeons)]
    out = [Or(*row) for row in grid]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                out.append(Or(Not(grid[p1][h]), Not(grid[p2][h])))
    return out


class TestPlanGroups:
    def test_groups_by_leading_fingerprint(self):
        p1, _ = _prefix("pg.a")
        p2, _ = _prefix("pg.b")
        z = BVVar("pg.z", W)
        works = [p1 + [Eq(z, BVConst(i, W))] for i in range(3)] + \
                [p2 + [Eq(z, BVConst(i, W))] for i in range(2)] + \
                [[Eq(z, BVConst(9, W))]]
        groups, singles = plan_groups(works)
        assert sorted(len(m) for _, m in groups) == [2, 3]
        for plen, members in groups:
            assert plen == 3
        assert singles == [5]

    def test_small_buckets_become_singles(self):
        p1, _ = _prefix("pg.c")
        z = BVVar("pg.z2", W)
        works = [p1 + [Eq(z, BVConst(0, W))], [Eq(z, BVConst(1, W))]]
        groups, singles = plan_groups(works)
        assert groups == []
        assert singles == [0, 1]

    def test_empty_works_are_singles(self):
        groups, singles = plan_groups([[], []])
        assert groups == [] and singles == [0, 1]


class TestSolveGroup:
    def _reference(self, prefix, residuals):
        out = []
        for residual in residuals:
            s = Solver(validate_models=True)
            s.add(*prefix, *residual)
            out.append(s.check())
        return out

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_matches_one_shot_facade(self, preprocess):
        prefix, (x, y, a) = _prefix(f"sg.{preprocess}")
        residuals = [[Eq(BVAdd(x, BVConst(i, W)), BVConst(40, W))]
                     for i in range(4)]
        residuals.append([UGt(x, BVConst(200, W))])
        results = solve_group(
            prefix, residuals,
            timeouts=[None] * 5, conflict_budgets=[None] * 5,
            preprocess=preprocess, validate_models=True)
        got = [v for v, _, _ in results]
        assert got == self._reference(prefix, residuals)
        for (verdict, model, stats), residual in zip(results, residuals):
            assert stats["incremental"] is True
            assert stats["group_size"] == 5
            if verdict is CheckResult.SAT:
                for t in prefix + residual:
                    assert model.eval(t) is True

    def test_false_prefix_short_circuits(self):
        x = BVVar("sg.fp.x", W)
        prefix = [ULt(x, BVConst(0, W))]  # unsatisfiable by simplification
        results = solve_group(prefix, [[Eq(x, BVConst(1, W))]] * 3,
                              timeouts=[None] * 3,
                              conflict_budgets=[None] * 3)
        assert [v for v, _, _ in results] == [CheckResult.UNSAT] * 3

    def test_unsat_records_assumption_core(self):
        prefix, (x, y, a) = _prefix("sg.core")
        residuals = [[UGt(x, BVConst(200, W))],
                     [Eq(x, BVConst(1, W))]]
        results = solve_group(prefix, residuals, timeouts=[None] * 2,
                              conflict_budgets=[None] * 2)
        verdict, _, stats = results[0]
        assert verdict is CheckResult.UNSAT
        assert stats["assumption_core"] >= 0

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_conflict_budget_unknown_records_axis(self, preprocess):
        x = BVVar("sg.bud.x", W)
        prefix = [ULt(x, BVConst(64, W))]
        residuals = [_php(f"sg.bud.{preprocess}.{i}", 7, 6)
                     for i in range(2)]
        results = solve_group(prefix, residuals, timeouts=[None] * 2,
                              conflict_budgets=[1, 1],
                              preprocess=preprocess)
        for verdict, _, stats in results:
            assert verdict is CheckResult.UNKNOWN
            assert stats["budget_axis"] == "conflicts"


class TestDispatchEquivalence:
    @pytest.mark.parametrize("jobs,preprocess", [(1, True), (1, False),
                                                 (2, True)])
    def test_incremental_matches_serial(self, jobs, preprocess):
        tag = f"de.{jobs}.{preprocess}"
        baseline = solve_all(_batch(tag), jobs=1, cache=False,
                             incremental=False)
        incr = solve_all(_batch(tag), jobs=jobs, cache=False,
                         incremental=True, preprocess=preprocess)
        assert _verdicts(baseline) == _verdicts(incr)
        for r, q in zip(incr, _batch(tag)):
            if r.verdict is CheckResult.SAT:
                model = r.model()
                for t in q.assertions:
                    assert model.eval(t) is True

    def test_mixed_groups_and_singles(self):
        queries = _batch("mx.a", 3) + _batch("mx.b", 3)
        z = BVVar("mx.z", W)
        queries.append(Query([Eq(z, BVConst(5, W))]))
        base = solve_all(queries, jobs=1, cache=False, incremental=False)
        incr = solve_all(queries, jobs=2, cache=False, incremental=True)
        assert _verdicts(base) == _verdicts(incr)

    def test_incremental_stat_marks_grouped_queries(self):
        results = solve_all(_batch("st.inc"), jobs=1, cache=False,
                            incremental=True)
        assert all(r.stats.get("incremental") for r in results)

    def test_prefix_units_propagate_residual_units_stay_local(self):
        """A unit of the shared prefix is substituted in every member; a
        unit in one member's residual neither leaks into the others nor
        splits the group."""
        prefix, (x, _, _) = _prefix("pu")
        z = BVVar("pu.z", W)
        prefix = prefix + [Eq(z, BVConst(3, W))]
        queries = [Query(prefix + [Eq(BVAdd(x, z), BVConst(i, W))])
                   for i in (10, 20, 70)]  # x = 67 breaks x < 64: UNSAT
        base = solve_all(queries, jobs=1, cache=False, incremental=False)
        incr = solve_all(queries, jobs=1, cache=False, incremental=True)
        assert _verdicts(base) == _verdicts(incr) == [
            CheckResult.SAT, CheckResult.SAT, CheckResult.UNSAT]
        assert all(r.stats.get("incremental") for r in incr)
        for r, q in zip(incr[:2], queries):
            model = r.model()
            assert model.eval(z) == 3
            assert all(model.eval(t) is True for t in q.assertions)

    def test_residual_units_fold_only_their_own_member(self):
        """The residuals pin ``z`` and share the subterm ``x + z``: each
        folds it under its own value.  Had the first member's ``z = 3``
        reached the second through the shared cache, ``x + 70 < 10``
        (UNSAT under ``x < 64``) would read ``x + 3 < 10`` and turn SAT."""
        prefix, (x, _, _) = _prefix("ru")
        z = BVVar("ru.z", W)
        below = ULt(BVAdd(x, z), BVConst(10, W))
        queries = [Query(prefix + [Eq(z, BVConst(v, W)), below])
                   for v in (3, 70, 2)]
        base = solve_all(queries, jobs=1, cache=False, incremental=False)
        incr = solve_all(queries, jobs=1, cache=False, incremental=True)
        assert _verdicts(base) == _verdicts(incr) == [
            CheckResult.SAT, CheckResult.UNSAT, CheckResult.SAT]
        assert all(r.stats.get("incremental") for r in incr)
        model = incr[0].model()
        assert model.eval(z) == 3
        assert all(model.eval(t) is True for t in queries[0].assertions)

    def test_residual_facts_stay_local(self):
        """A residual's power-of-two fact rewrites ``x % k`` to a mask in
        its own member only: in the sibling ``k`` is 3 and the remainder
        differs from the mask, so a leaked rewrite would turn SAT into
        UNSAT."""
        prefix, (x, _, _) = _prefix("rf")
        k = BVVar("rf.k", W)
        zero, one = BVConst(0, W), BVConst(1, W)
        differs = Not(Eq(BVURem(x, k), BVAnd(x, BVSub(k, one))))
        queries = [
            Query(prefix + [Eq(BVAnd(k, BVSub(k, one)), zero), differs]),
            Query(prefix + [UGt(k, BVConst(2, W)), ULt(k, BVConst(4, W)),
                            differs]),
        ]
        base = solve_all(queries, jobs=1, cache=False, incremental=False)
        incr = solve_all(queries, jobs=1, cache=False, incremental=True)
        assert _verdicts(base) == _verdicts(incr) == [
            CheckResult.UNSAT, CheckResult.SAT]
        assert all(r.stats.get("incremental") for r in incr)

    def test_validate_models_flag_respected_in_groups(self):
        queries = [Query(list(q.assertions), validate_models=True)
                   for q in _batch("vm.inc")]
        results = solve_all(queries, jobs=1, cache=False, incremental=True)
        assert _verdicts(results)[:1] == [CheckResult.SAT]

    def test_unknown_budget_axis_travels_to_results(self):
        x = BVVar("ba.x", W)
        prefix = [ULt(x, BVConst(64, W))]
        # distinct bounds keep the canonical keys distinct (no in-batch dedup)
        queries = [Query([UGt(x, BVConst(i, W))] + prefix +
                         _php(f"ba.{i}", 7, 6), conflict_budget=1)
                   for i in range(2)]
        from repro.smt.resilience import RetryPolicy
        results = solve_all(queries, jobs=1, cache=False, incremental=True,
                            policy=RetryPolicy(retries=0))
        for r in results:
            assert r.verdict is CheckResult.UNKNOWN
            assert r.stats.get("budget_axis") == "conflicts"


class TestFaultContainment:
    def test_worker_crash_recovers_with_identical_verdicts(self):
        queries = _batch("fc.crash", 4) + _batch("fc.other", 3)
        want = _verdicts(solve_all(queries, jobs=1, cache=False,
                                   incremental=False))
        for seed in range(4):
            plan = FaultPlan(seed=seed, worker_crash=0.8, max_triggers=2)
            with injected(plan):
                got = solve_all(queries, jobs=2, cache=False,
                                incremental=True)
            assert _verdicts(got) == want, f"seed {seed}"

    def test_injected_exception_degrades_to_unknown_not_wrong(self):
        queries = _batch("fc.raise", 4)
        want = _verdicts(solve_all(queries, jobs=1, cache=False,
                                   incremental=False))
        plan = FaultPlan(seed=1, solver_exception=1.0)
        from repro.smt.resilience import RetryPolicy
        with injected(plan):
            got = solve_all(queries, jobs=1, cache=False, incremental=True,
                            policy=RetryPolicy(retries=0))
        for g, w in zip(_verdicts(got), want):
            assert g in (w, CheckResult.UNKNOWN)
        assert any(g is CheckResult.UNKNOWN for g in _verdicts(got))


class TestCacheInteraction:
    def test_group_results_cached_and_rebound(self):
        """Assumption-solved SAT/UNSAT verdicts enter the canonical cache;
        a later structurally-identical batch is pure hits, and the
        projected model still binds every variable the preprocessor may
        have eliminated."""
        cache = QueryCache()

        def run(incremental):
            with fresh_scope():
                from repro.smt import fresh_var
                from repro.smt.sorts import BV, ARRAY
                x = fresh_var("ci", BV(W))
                y = fresh_var("ci", BV(W))
                a = fresh_var("ci", ARRAY(W, W))
                prefix = [ULt(x, BVConst(64, W)),
                          Eq(Select(Store(a, x, y), x), y)]
                queries = [Query(prefix +
                                 [Eq(BVAdd(x, BVConst(i, W)),
                                     BVConst(40, W))]) for i in range(3)]
                queries.append(Query(prefix + [UGt(x, BVConst(200, W))]))
                results = solve_all(queries, jobs=1, cache=cache,
                                    incremental=incremental,
                                    preprocess=True)
                models = []
                for r, q in zip(results, queries):
                    if r.verdict is CheckResult.SAT:
                        m = r.model()
                        for t in q.assertions:
                            assert m.eval(t) is True, (r.cached, t)
                        models.append((m[x], m[y]))
                return [r.verdict for r in results], \
                    [r.cached for r in results], models

        v1, cached1, models1 = run(incremental=True)
        assert cache.stats["stores"] >= 4
        v2, cached2, models2 = run(incremental=True)
        assert v1 == v2
        assert all(cached2)
        assert models1 == models2  # rebinding through canonical numbering
        # and the cache interoperates with the non-incremental path
        v3, cached3, _ = run(incremental=False)
        assert v3 == v1 and all(cached3)

    def test_unknown_under_assumptions_never_cached(self):
        cache = QueryCache()
        x = BVVar("ciu.x", W)
        prefix = [ULt(x, BVConst(64, W))]
        # distinct bounds keep the canonical keys distinct (no in-batch dedup)
        queries = [Query([UGt(x, BVConst(i, W))] + prefix +
                         _php(f"ciu.{i}", 7, 6), conflict_budget=1)
                   for i in range(2)]
        from repro.smt.resilience import RetryPolicy
        results = solve_all(queries, jobs=1, cache=cache, incremental=True,
                            policy=RetryPolicy(retries=0))
        assert all(r.verdict is CheckResult.UNKNOWN for r in results)
        assert cache.stats["stores"] == 0
        # with an unbounded budget the same queries solve and get cached
        solved = solve_all([Query(list(q.assertions)) for q in queries],
                           jobs=1, cache=cache, incremental=True)
        assert all(r.verdict is CheckResult.UNSAT for r in solved)
        assert cache.stats["stores"] == 2


def _random_batch(rng: random.Random, tag: str):
    """A random VC-shaped batch: shared prefix + small random residuals."""
    x = BVVar(f"{tag}.x", W)
    y = BVVar(f"{tag}.y", W)
    a = ArrayVar(f"{tag}.A", W, W)
    p = BoolVar(f"{tag}.p")
    prefix = [ULt(x, BVConst(rng.randint(8, 128), W))]
    if rng.random() < 0.7:
        prefix.append(Eq(Select(Store(a, x, y), x), y))
    if rng.random() < 0.4:
        prefix.append(Or(p, UGt(y, BVConst(rng.randrange(64), W))))
    queries = []
    for i in range(rng.randint(2, 5)):
        c = rng.randrange(256)
        kind = rng.randrange(4)
        if kind == 0:
            residual = [Eq(BVAdd(x, BVConst(i, W)), BVConst(c, W))]
        elif kind == 1:
            residual = [UGt(x, BVConst(c, W))]
        elif kind == 2:
            residual = [Eq(Select(a, BVConst(i, W)), BVConst(c, W))]
        else:
            residual = [Iff(p, Not(ULt(y, BVConst(c, W))))]
        queries.append(Query(prefix + residual))
    return queries


class TestPropertyDifferential:
    """Satellite acceptance: for random VC batches, incremental +
    preprocessed verdicts and models match the serial non-incremental
    facade, including under worker-crash fault specs."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_incremental_preprocessed_matches_facade(self, seed):
        rng = random.Random(seed)
        queries = _random_batch(rng, f"hp.{seed}")
        serial = solve_all(queries, jobs=1, cache=False, incremental=False)
        incr = solve_all(queries, jobs=1, cache=False, incremental=True,
                         preprocess=True)
        assert _verdicts(serial) == _verdicts(incr)
        for r, q in zip(incr, queries):
            if r.verdict is CheckResult.SAT:
                model = r.model()
                for t in q.assertions:
                    assert model.eval(t) is True

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_facade_under_worker_crash_faults(self, seed):
        rng = random.Random(seed)
        queries = _random_batch(rng, f"hf.{seed}") + \
            _random_batch(rng, f"hf2.{seed}")
        want = _verdicts(solve_all(queries, jobs=1, cache=False,
                                   incremental=False))
        plan = FaultPlan(seed=seed, worker_crash=0.7, max_triggers=2)
        with injected(plan):
            got = solve_all(queries, jobs=2, cache=False, incremental=True,
                            preprocess=True)
        assert _verdicts(got) == want
