"""Shared-prefix incremental batch solving.

The verification conditions one ``solve_all`` batch carries share most of
their antecedent structure: the race checker emits one query per access
pair over the same assumption set, the equivalence checkers one query per
postcondition conjunct over the same transition relation.  The one-shot
facade re-simplifies, re-eliminates and re-blasts that shared prefix for
every query.  This module instead:

1. groups a batch by its leading assertions (:func:`plan_groups`, keyed by
   the structural :func:`~repro.smt.terms.fingerprint` of the first
   assertion, then the longest common leading run);
2. blasts the group's shared prefix **once** into a persistent
   :class:`~repro.smt.sat.SATSolver`;
3. asserts each query's residual under a fresh **assumption literal**
   (only the top-level residual assertions are guarded — Tseitin gate
   definitions are satisfiable under any input assignment, so they are
   shared unguarded);
4. optionally runs the SatELite-style :mod:`~repro.smt.preprocess` pass
   over the whole group CNF (assumption variables frozen) before loading;
5. answers each query with ``solve(assumptions=[a_i])`` on the same
   instance, so learned clauses, variable activities and saved phases
   carry across the batch.

Soundness of the assumption protocol: per query ``i`` the clause set
visible under ``a_i`` is exactly prefix ∧ definitions ∧ residual_i (other
queries' guarded clauses are vacuous with ``a_j`` free), so SAT/UNSAT
verdicts equal the one-shot facade's.  Each query forks the array
eliminator so fresh Ackermann element variables — and therefore the
guarded functional-consistency constraints — never leak between queries.

Models are reconstructed per query from the shared bit-blaster maps after
:meth:`~repro.smt.preprocess.Preprocessor.reconstruct` has undone the
preprocessor's eliminations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from . import faults
from .arrays import ArrayEliminator
from .bitblast import BitBlaster
from .cnf import ClauseDB, GateBuilder
from .model import Model
from .preprocess import Preprocessor
from .sat import SATResult, SATSolver, STAT_COUNTER_KEYS
from .sat.proof import ProofLog, check_proof
from .simplify import harvest_facts, propagate, simplify
from .solver import CheckResult
from .substitute import evaluate
from .terms import FALSE, TRUE, Term, common_prefix_length, fingerprint

__all__ = ["plan_groups", "solve_group", "GroupResult"]


#: Per-query outcome of a group solve, mirroring dispatch's ``_Outcome``.
GroupResult = tuple[CheckResult, Model | None, dict]


def plan_groups(works: Sequence[Sequence[Term]], *, min_group: int = 2
                ) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Partition a batch into shared-prefix groups and singletons.

    Returns ``(groups, singles)`` where each group is
    ``(prefix_len, member_indices)`` with ``prefix_len >= 1`` and at least
    ``min_group`` members; every other index lands in ``singles``.
    """
    buckets: dict[int, list[int]] = {}
    singles: list[int] = []
    for i, work in enumerate(works):
        if not work:
            singles.append(i)
            continue
        buckets.setdefault(fingerprint(work[0]), []).append(i)
    groups: list[tuple[int, list[int]]] = []
    for indices in buckets.values():
        if len(indices) < min_group:
            singles.extend(indices)
            continue
        plen = common_prefix_length([works[i] for i in indices])
        if plen == 0:  # fingerprint collision: fall back to one-shot
            singles.extend(indices)
            continue
        groups.append((plen, indices))
    singles.sort()
    return groups, singles


def _unsat(stats: dict) -> GroupResult:
    return CheckResult.UNSAT, None, stats


def solve_group(prefix: Sequence[Term],
                residuals: Sequence[Sequence[Term]], *,
                timeouts: Sequence[float | None],
                conflict_budgets: Sequence[int | None],
                do_simplify: bool = True,
                preprocess: bool = True,
                validate_models: bool = False,
                originals: Sequence[Sequence[Term]] | None = None,
                certify: bool = False) -> list[GroupResult]:
    """Solve ``prefix + residuals[i]`` for every ``i`` incrementally.

    Verdicts are identical to running the one-shot facade on each
    ``prefix + residual`` (modulo budget-induced UNKNOWNs, which stay
    one-sided).  ``originals`` supplies the untouched assertion lists used
    for model validation when ``validate_models`` is set.

    With ``certify`` the group CNF and every derivation are logged to one
    shared DRAT proof; each member's UNSAT is re-checked against the log
    at that point, with the negated failed-assumption set as the claimed
    clause (the assumption-core proof).  A rejected check downgrades that
    member — and only that member — to UNKNOWN with
    ``stats["certify"]["rejected"]`` set.
    """
    n = len(residuals)
    setup_start = time.monotonic()
    results: list[GroupResult | None] = [None] * n
    log = ProofLog() if certify else None

    def term_unsat(stats: dict) -> GroupResult:
        # A term-level FALSE certifies trivially (no SAT layer involved).
        if certify:
            stats["certify"] = {"checked": 1, "rejected": 0, "trivial": 1,
                                "steps": 0, "axioms": 0, "verified": 0,
                                "time": 0.0}
        return CheckResult.UNSAT, None, stats

    def cnf_unsat_maker():
        """Maker for group-wide CNF-level UNSAT (root conflict): check the
        empty clause once, share the outcome across all open members."""
        if log is None:
            return _unsat
        t0 = time.monotonic()
        res = check_proof(log)
        cert = {"checked": 1, "rejected": 0 if res.ok else 1, "trivial": 0,
                "steps": res.steps, "axioms": res.axioms,
                "verified": res.verified, "time": time.monotonic() - t0}
        if res.ok:
            return lambda stats: (CheckResult.UNSAT, None,
                                  dict(stats, certify=dict(cert)))
        cert["reason"] = res.reason
        return lambda stats: (CheckResult.UNKNOWN, None,
                              dict(stats, certify=dict(cert)))

    # ---- term-level simplification (shared caches across the group) ------
    # Units and facts of the *shared prefix* hold in every member query,
    # so they license rewrites in all of them — which is also what keeps
    # the shared simplify caches sound (one fact base and one substitution
    # for every term passing through them).  A residual's own units and
    # facts hold in its member query alone: ``simp`` applies them to that
    # residual only, on a private copy of the shared cache, so a member
    # never rewrites the shared prefix.
    smemo: dict[tuple[Term, Term], int | None] = {}
    if do_simplify:
        prefix_s, scache, units = propagate(list(prefix), memo=smemo)
        pinned = units.subst.keys()
        facts = harvest_facts(prefix_s)
    else:
        prefix_s = list(prefix)

    def simp(residual: Sequence[Term]) -> list[Term]:
        if not do_simplify:
            return list(residual)
        return propagate(list(residual), facts=facts, cache=scache,
                         memo=smemo, pinned=pinned)[0]

    base_stats: dict = {"incremental": True, "group_size": n,
                        "prefix_terms": len(prefix)}

    def finish_all(maker) -> list[GroupResult]:
        elapsed = time.monotonic() - setup_start
        share = elapsed / max(1, sum(1 for r in results if r is None))
        for i in range(n):
            if results[i] is None:
                results[i] = maker(dict(base_stats, time=share, conflicts=0))
        return [r for r in results if r is not None]

    prefix_w = [t for t in prefix_s if t is not TRUE]
    if any(t is FALSE for t in prefix_w):
        return finish_all(term_unsat)
    residuals_w = []
    for i in range(n):
        rw = [t for t in simp(residuals[i]) if t is not TRUE]
        if any(t is FALSE for t in rw):
            results[i] = term_unsat(dict(base_stats, time=0.0, conflicts=0))
            rw = []
        residuals_w.append(rw)
    simplify_time = time.monotonic() - setup_start

    # ---- array elimination: prefix once, a fork per query ----------------
    array_start = time.monotonic()
    pcache: dict[Term, Term] = {}

    def post_simp(terms: list[Term]) -> list[Term]:
        if do_simplify:
            return [t for t in (simplify(x, pcache, index_memo=smemo,
                                         facts=facts)
                                for x in terms)
                    if t is not TRUE]
        return terms

    eliminator = ArrayEliminator()
    flat_p, cons_p = eliminator.extend(prefix_w)
    prefix_flat = post_simp(flat_p + cons_p)
    if any(t is FALSE for t in prefix_flat):
        return finish_all(term_unsat)

    forks: list[ArrayEliminator | None] = [None] * n
    flats: list[list[Term]] = [[] for _ in range(n)]
    for i in range(n):
        if results[i] is not None:
            continue
        fork = eliminator.fork()
        flat_i, cons_i = fork.extend(residuals_w[i])
        fi = post_simp(flat_i + cons_i)
        if any(t is FALSE for t in fi):
            results[i] = term_unsat(dict(base_stats, time=0.0, conflicts=0))
            continue
        forks[i] = fork
        flats[i] = fi
    array_time = time.monotonic() - array_start

    # ---- bit-blasting: shared gates, guarded residual assertions ---------
    blast_start = time.monotonic()
    # Without preprocessing, blast straight into the group solver: prefix
    # units propagate during loading, so the blaster's root-constant
    # substitution folds member circuits against prefix facts and replayed
    # templates land in the clause arena with no intermediate copy.  The
    # preprocessing path still needs the raw CNF in a ClauseDB.
    backend = ClauseDB() if preprocess else SATSolver()
    if log is not None and not preprocess:
        backend.attach_proof(log)  # type: ignore[union-attr]
    bb = BitBlaster(GateBuilder(backend))
    for t in prefix_flat:
        bb.assert_term(t)
    guards: list[int | None] = [None] * n
    for i in range(n):
        if results[i] is not None:
            continue
        if flats[i]:
            guard = bb.gb.new_lit()
            guards[i] = guard
            for t in flats[i]:
                bb.assert_term(t, guard=guard)
    blast_time = time.monotonic() - blast_start

    # ---- preprocessing (frozen: the constant var + assumption vars) ------
    pp_start = time.monotonic()
    pre: Preprocessor | None = None
    if preprocess:
        db: ClauseDB = backend  # type: ignore[assignment]
        frozen = [0] + [g >> 1 for g in guards if g is not None]
        if log is not None:
            log.extend_axioms(db.clauses)
            if not db.ok:
                log.add_axiom(())  # the DB drops an empty input clause
        pre = Preprocessor(db.num_vars, db.clauses, frozen,
                           proof=log).run()
        if not pre.ok:
            return finish_all(cnf_unsat_maker())
        sat = SATSolver()
        if log is not None:
            sat.attach_proof(log, adopt=True)
        sat.new_vars(db.num_vars)
        sat.add_clauses(pre.output_clauses())
    else:
        sat = backend  # type: ignore[assignment]
    preprocess_time = time.monotonic() - pp_start
    if not sat.ok:
        return finish_all(cnf_unsat_maker())

    open_count = max(1, sum(1 for r in results if r is None))
    setup_time = time.monotonic() - setup_start
    base_stats.update({
        "simplify_time": simplify_time / open_count,
        "array_time": array_time / open_count,
        "blast_time": blast_time / open_count,
        "preprocess_time": preprocess_time / open_count,
        "clauses": len(sat.clauses),
        "sat_vars": sat.num_vars,
    })
    if pre is not None:
        base_stats.update(pre.stats)

    # ---- the incremental solve loop --------------------------------------
    for i in range(n):
        if results[i] is not None:
            continue
        stats = dict(base_stats)
        stats["setup_share"] = setup_time / open_count
        before = dict(sat.stats)
        assumptions = [guards[i]] if guards[i] is not None else []
        solve_start = time.monotonic()
        # Match the one-shot facade's budget contract: each member's
        # timeout covers its share of setup (simplify/blast/preprocess),
        # not just search, so the clock starts at group setup.  The CDCL
        # core only samples the clock every few hundred decisions on a
        # cumulative counter, which a short member solve never crosses —
        # an already-expired deadline must be refused here, not in search.
        deadline = (setup_start + timeouts[i]
                    if timeouts[i] is not None else None)
        if deadline is not None and solve_start >= deadline:
            stats["sat_time"] = 0.0
            stats["time"] = stats["setup_share"]
            stats["budget_axis"] = "time"
            for key in STAT_COUNTER_KEYS:
                stats[key] = 0
            results[i] = (CheckResult.UNKNOWN, None, stats)
            continue
        res = sat.solve(deadline=deadline,
                        conflict_budget=conflict_budgets[i],
                        assumptions=assumptions)
        if res is SATResult.SAT and faults.flips_unsat(
                faults.active(), f"group:{sat.num_vars}", salt=i):
            res = SATResult.UNSAT  # the lying-solver fault
        stats["sat_time"] = time.monotonic() - solve_start
        for key in STAT_COUNTER_KEYS:
            stats[key] = sat.stats[key] - before.get(key, 0)
        stats["time"] = stats["setup_share"] + stats["sat_time"]
        if res is SATResult.UNSAT:
            stats["assumption_core"] = len(sat.conflict_assumptions)
            if log is not None:
                # Assumption-core proof: the claimed clause is the
                # negation of the failed-assumption set, checked against
                # the log as it stands after this member's derivations.
                t0 = time.monotonic()
                chk = check_proof(
                    log, tuple(a ^ 1 for a in sat.conflict_assumptions))
                stats["certify"] = {
                    "checked": 1, "rejected": 0 if chk.ok else 1,
                    "trivial": 0, "steps": chk.steps,
                    "axioms": chk.axioms, "verified": chk.verified,
                    "time": time.monotonic() - t0}
                if not chk.ok:
                    stats["certify"]["reason"] = chk.reason
                    results[i] = (CheckResult.UNKNOWN, None, stats)
                    continue
            results[i] = (CheckResult.UNSAT, None, stats)
            continue
        if res is SATResult.UNKNOWN:
            stats["budget_axis"] = sat.stats.get("budget_axis", "time")
            results[i] = (CheckResult.UNKNOWN, None, stats)
            continue
        # SAT: reconstruct the model through the preprocessor, then up
        # through the bit-blaster and this query's Ackermann reads.
        extract_start = time.monotonic()
        if pre is not None:
            values = pre.reconstruct(sat.model_value)

            def lit_value(lit: int, _v=values) -> bool:
                return _v[lit >> 1] ^ bool(lit & 1)
        else:
            def lit_value(lit: int, _s=sat) -> bool:
                return _s.model_value(lit >> 1) ^ bool(lit & 1)

        scalars: dict[Term, object] = {}
        for var, lit in bb.bool_vars.items():
            scalars[var] = lit_value(lit)
        for var, bits in bb.var_bits.items():
            scalars[var] = sum(1 << b for b, lit in enumerate(bits)
                               if lit_value(lit))
        arrays: dict[Term, dict[int, int]] = {}
        fork = forks[i]
        info_reads = fork.info.reads if fork is not None else {}
        for array, pairs in info_reads.items():
            content: dict[int, int] = {}
            for index_term, elem_var in pairs:
                idx = evaluate(index_term, scalars)
                assert isinstance(idx, int)
                content[idx] = int(scalars.get(elem_var, 0))  # type: ignore[arg-type]
            arrays[array] = content
        model = Model(scalars, arrays)
        if validate_models:
            source = (originals[i] if originals is not None
                      else list(prefix) + list(residuals[i]))
            bad = next((t for t in source if model.eval(t) is not True),
                       None)
            if bad is not None:
                stats["error"] = (f"model validation failed for "
                                  f"assertion {bad!r}")
                results[i] = (CheckResult.UNKNOWN, None, stats)
                continue
        stats["time"] += time.monotonic() - extract_start
        results[i] = (CheckResult.SAT, model, stats)

    return [r for r in results if r is not None]
