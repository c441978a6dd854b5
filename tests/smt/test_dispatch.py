"""Parallel dispatch: verdict identity, dedup, caching, budgets, and
the streaming (pipelined) mode of ``solve_stream``."""

import pytest

from repro.smt import (
    BVConst, BVVar, CheckResult, Eq, Query, SolveConfig, UGt, ULt,
    fresh_scope, solve_all, solve_query, solve_stream,
)
from repro.smt.qcache import QueryCache, canonical_key

# Caching off, so every call really solves.
SERIAL = SolveConfig(cache=False)
PARALLEL = SolveConfig(jobs=2, cache=False)


def _sat_query(prefix: str, lo: int, hi: int, width: int = 8) -> Query:
    x = BVVar(f"{prefix}.x", width)
    return Query([UGt(x, BVConst(lo, width)), ULt(x, BVConst(hi, width))])


def _unsat_query(prefix: str, width: int = 8) -> Query:
    x = BVVar(f"{prefix}.x", width)
    return Query([ULt(x, BVConst(3, width)), UGt(x, BVConst(5, width))])


def _factoring_query(timeout, width: int = 16, product: int = 143) -> Query:
    """``x * y == 143  /\\  x > 1  /\\  y > 1`` — SAT (11 * 13) but needs
    real CDCL search through a blasted multiplier, so a sub-millisecond
    budget expires mid-search."""
    x = BVVar("fq.x", width)
    y = BVVar("fq.y", width)
    one = BVConst(1, width)
    return Query([Eq(x * y, BVConst(product, width)), UGt(x, one),
                  UGt(y, one)], timeout=timeout)


class TestSolveAll:
    def test_results_in_input_order(self):
        queries = [_sat_query("ord.a", 2, 9), _unsat_query("ord.b"),
                   _sat_query("ord.c", 100, 110)]
        results = solve_all(queries, config=SERIAL)
        assert [r.verdict for r in results] == \
            [CheckResult.SAT, CheckResult.UNSAT, CheckResult.SAT]

    def test_parallel_matches_serial(self):
        def batch(prefix):
            return [_sat_query(f"{prefix}.a", 2, 9),
                    _unsat_query(f"{prefix}.b"),
                    _sat_query(f"{prefix}.c", 100, 110),
                    _unsat_query(f"{prefix}.d")]
        serial = solve_all(batch("ser"), config=SERIAL)
        parallel = solve_all(batch("par"), config=PARALLEL)
        assert [r.verdict for r in serial] == [r.verdict for r in parallel]
        # Deterministic CDCL: the models agree, not just the verdicts.
        for s, p, q in zip(serial, parallel, batch("chk")):
            if s.verdict is CheckResult.SAT:
                sx = next(iter(s.model().variables()))
                px = next(iter(p.model().variables()))
                assert s.model()[sx] == p.model()[px]

    def test_parallel_models_satisfy_their_queries(self):
        queries = [_sat_query(f"pm.{i}", 10 * i + 1, 10 * i + 9)
                   for i in range(4)]
        for res, query in zip(solve_all(queries, config=PARALLEL),
                              queries):
            assert res.verdict is CheckResult.SAT
            model = res.model()
            for term in query.assertions:
                assert model.eval(term) is True

    def test_in_batch_dedup(self):
        # Alpha-equivalent queries: one leader solve, follower rides along
        # with a model rebound to its own variables.
        q1 = _sat_query("dup.a", 2, 9)
        q2 = _sat_query("dup.b", 2, 9)
        assert canonical_key(list(q1.assertions)) == \
            canonical_key(list(q2.assertions))
        leader, follower = solve_all([q1, q2], config=SERIAL)
        assert leader.verdict is follower.verdict is CheckResult.SAT
        assert not leader.cached and follower.cached
        assert follower.stats.get("cache_hit") is True
        model = follower.model()
        for term in q2.assertions:
            assert model.eval(term) is True

    def test_tags_pass_through(self):
        queries = [Query(_sat_query("tag.a", 2, 9).assertions, tag="first"),
                   Query(_unsat_query("tag.b").assertions, tag=("vc", 2))]
        tags = [r.tag for r in solve_all(queries, config=SERIAL)]
        assert tags == ["first", ("vc", 2)]


class TestCacheIntegration:
    def test_second_call_hits_cache(self):
        cache = QueryCache()
        cached = SolveConfig(cache=cache)
        first = solve_query(_sat_query("ch.a", 2, 9), cached)
        second = solve_query(_sat_query("ch.b", 2, 9), cached)
        assert not first.cached and second.cached
        assert second.verdict is CheckResult.SAT
        assert second.solver_time == 0.0
        model = second.model()
        x = BVVar("ch.b.x", 8)
        assert 2 < int(model[x]) < 9  # type: ignore[arg-type]

    def test_cache_false_disables_caching(self):
        r1 = solve_query(_sat_query("off.a", 2, 9), config=SERIAL)
        r2 = solve_query(_sat_query("off.b", 2, 9), config=SERIAL)
        assert not r1.cached and not r2.cached

    def test_fresh_scope_collides_across_checks(self):
        # The checker pattern: identical check bodies under fresh_scope mint
        # identical terms, so the second run is pure cache hits.
        cache = QueryCache()

        def run():
            with fresh_scope():
                from repro.smt import fresh_var
                from repro.smt.sorts import BV
                x = fresh_var("fs", BV(8))
                q = Query([UGt(x, BVConst(2, 8)), ULt(x, BVConst(9, 8))])
                return solve_query(q, SolveConfig(cache=cache))

        assert not run().cached
        assert run().cached


class TestBudgets:
    def test_submillisecond_timeout_reports_unknown(self):
        # Acceptance: an expired per-query budget must surface as UNKNOWN
        # (the paper's T.O) — never as a wrong SAT/UNSAT verdict.
        res = solve_query(_factoring_query(timeout=1e-6), config=SERIAL)
        assert res.verdict is CheckResult.UNKNOWN

    def test_unknown_is_never_cached(self):
        cache = QueryCache()
        cached = SolveConfig(cache=cache)
        timed_out = solve_query(_factoring_query(timeout=1e-6), cached)
        assert timed_out.verdict is CheckResult.UNKNOWN
        assert cache.stats["stores"] == 0
        # With a real budget the same query now solves — a cached UNKNOWN
        # would have masked the answer forever.
        solved = solve_query(_factoring_query(timeout=60.0), cached)
        assert solved.verdict is CheckResult.SAT
        model = solved.model()
        x, y = BVVar("fq.x", 16), BVVar("fq.y", 16)
        product = int(model[x]) * int(model[y])  # type: ignore[arg-type]
        assert product % (1 << 16) == 143  # bit-vector multiply wraps
        # The same holds when the worker pool solves the batch (jobs=2),
        # and the expired budget axis reaches each result.
        starved = solve_all([_factoring_query(1e-6, product=187),
                             _factoring_query(1e-6, product=221)],
                            config=SolveConfig(jobs=2, cache=cache))
        assert [r.verdict for r in starved] == [CheckResult.UNKNOWN] * 2
        assert all(r.stats.get("budget_axis") == "time" for r in starved)
        assert cache.stats["stores"] == 1

    def test_parallel_timeout_reports_unknown(self):
        queries = [_factoring_query(timeout=1e-6),
                   _sat_query("bt.ok", 2, 9)]
        results = solve_all(queries, config=PARALLEL)
        assert results[0].verdict is CheckResult.UNKNOWN
        assert results[1].verdict is CheckResult.SAT

    def test_stats_travel_back(self):
        res = solve_query(_sat_query("st.a", 2, 9), config=SERIAL)
        assert res.stats.get("time", 0.0) > 0.0
        assert "sat_time" in res.stats


class TestSimplifyOnce:
    """The dispatcher simplifies each query once, to build its cache key;
    the solver starts from that result on every attempt."""

    @staticmethod
    def _count_simplify(monkeypatch) -> list:
        import repro.smt.dispatch as dispatch_mod
        import repro.smt.solver as solver_mod
        calls = []
        real = solver_mod.simplify_all

        def counting(terms):
            calls.append(len(terms))
            return real(terms)
        monkeypatch.setattr(dispatch_mod, "simplify_all", counting)
        monkeypatch.setattr(solver_mod, "simplify_all", counting)
        return calls

    def test_one_simplify_per_miss(self, monkeypatch):
        calls = self._count_simplify(monkeypatch)
        res = solve_query(_sat_query("so.a", 2, 9), config=SERIAL)
        assert res.verdict is CheckResult.SAT
        assert len(calls) == 1

    def test_one_simplify_across_retries(self, monkeypatch):
        from repro.smt import RetryPolicy
        calls = self._count_simplify(monkeypatch)
        res = solve_query(_factoring_query(timeout=1e-6),
                          SolveConfig(cache=False,
                                      policy=RetryPolicy(retries=1)))
        assert res.verdict is CheckResult.UNKNOWN
        assert len(res.stats["resilience"]["attempts"]) == 2
        assert len(calls) == 1

    def test_miss_reports_its_simplify_time(self):
        res = solve_query(_sat_query("so.t", 2, 9), config=SERIAL)
        assert res.stats["simplify_time"] > 0.0
        assert res.stats["time"] >= res.stats["simplify_time"]

    def test_validation_checks_the_original_assertions(self):
        from repro.errors import SolverError
        from repro.smt import TRUE, Solver
        x = BVVar("so.v", 8)
        s = Solver(validate_models=True)
        s.add(UGt(x, BVConst(5, 8)))
        # A wrong "simplified" form is solved, but its model is checked
        # against what was added.
        with pytest.raises(SolverError, match="model validation failed"):
            s.check(simplified=[TRUE, ULt(x, BVConst(3, 8))])

    def test_pool_workers_validate_the_original_assertions(self):
        queries = [Query(_sat_query(f"so.p{i}", 2, 9).assertions,
                         validate_models=True) for i in range(2)]
        results = solve_all(queries, config=PARALLEL)
        assert [r.verdict for r in results] == [CheckResult.SAT] * 2


class TestSolveStream:
    def _batch(self, prefix, n=9):
        out = []
        for i in range(n):
            if i % 3 == 1:
                out.append(_unsat_query(f"{prefix}.u{i}"))
            else:
                out.append(_sat_query(f"{prefix}.s{i}", 2, 9))
        return out

    def test_stream_matches_batch(self):
        batch = solve_all(self._batch("sm.b"), config=SERIAL)
        stream = list(solve_stream(self._batch("sm.s"), config=SERIAL,
                                   chunk=2))
        assert [r.verdict for r in stream] == [r.verdict for r in batch]
        for s, b in zip(stream, batch):
            if s.verdict is CheckResult.SAT:
                sx = next(iter(s.model().variables()))
                bx = next(iter(b.model().variables()))
                assert s.model()[sx] == b.model()[bx]

    def test_input_order_preserved_across_chunks(self):
        queries = self._batch("so", n=7)
        want = [r.verdict for r in solve_all(list(queries), config=PARALLEL)]
        got = [r.verdict for r in solve_stream(iter(queries),
                                               config=PARALLEL, chunk=3)]
        assert got == want

    def test_latency_recorded(self):
        lat: dict = {}
        results = list(solve_stream(self._batch("sl", n=5), config=SERIAL,
                                    chunk=2, latency=lat))
        assert len(results) == 5
        assert lat["first_verdict_s"] > 0.0
        assert lat["chunks"] == 3  # ceil(5 / 2)

    def test_abandoning_iterator_stops_producer(self):
        # The consumer breaking early must leave the producer's tail
        # un-pulled: lazily generated queries past the live chunk are
        # never even constructed.
        built = []

        def gen():
            for i in range(20):
                built.append(i)
                yield _sat_query(f"ab.{i}", 2, 9)

        stream = solve_stream(gen(), config=SERIAL, chunk=2)
        first = next(stream)
        assert first.verdict is CheckResult.SAT
        stream.close()
        # Only the first chunk (plus nothing beyond it) was built.
        assert len(built) <= 2

    def test_consumes_generators_lazily(self):
        got = list(solve_stream(
            (q for q in self._batch("lz", n=4)), config=SERIAL,
            chunk=8))
        assert [r.verdict for r in got] == \
            [CheckResult.SAT, CheckResult.UNSAT, CheckResult.SAT,
             CheckResult.SAT]

    def test_default_chunk_feeds_every_worker_twice(self):
        # max(4, 2 * jobs): 9 queries are 3 chunks at jobs=1 and 2 at 3.
        for jobs, chunks in ((1, 3), (3, 2)):
            lat: dict = {}
            list(solve_stream(self._batch(f"dc{jobs}"), latency=lat,
                              config=SolveConfig(jobs=jobs, cache=False)))
            assert lat["chunks"] == chunks
