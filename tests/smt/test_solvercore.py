"""Arena CDCL core internals: clause-DB reduction, vivification,
on-the-fly subsumption, compaction and the gate loader.

The public solver behaviour (verdicts, budgets) is covered
by ``test_sat.py``; this module reaches into the arena representation to
pin the inprocessing mechanics and their stats counters.
"""

import time

from repro.smt.sat import SATResult, SATSolver, STAT_COUNTER_KEYS
from repro.smt.sat.solver import _DEAD, _GLUE_KEEP


def lit(v: int, positive: bool = True) -> int:
    return v * 2 + (0 if positive else 1)


def _php(holes: int) -> SATSolver:
    """holes+1 pigeons into ``holes`` holes — UNSAT, conflict-rich."""
    s = SATSolver()
    pigeons = holes + 1
    var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause([lit(v) for v in var[p]])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([lit(var[p1][h], False), lit(var[p2][h], False)])
    return s


# ------------------------------------------------------------- stats keys


class TestStats:
    def test_counters_initialised_and_monotone(self):
        s = _php(5)
        for key in STAT_COUNTER_KEYS:
            assert s.stats[key] == 0
        assert s.solve() is SATResult.UNSAT
        assert s.stats["conflicts"] > 0
        assert s.stats["learned"] > 0
        assert s.stats["propagations"] > 0
        for key in STAT_COUNTER_KEYS:
            assert s.stats[key] >= 0

    def test_glue_distribution_tracks_learned_clauses(self):
        s = _php(6)
        s.solve()
        glue = (s.stats["glue2"] + s.stats["glue_low"]
                + s.stats["glue_high"])
        assert glue > 0
        # every search-learned clause lands in exactly one glue bucket;
        # vivification re-adds shortened clauses outside the buckets
        assert glue <= s.stats["learned"]


# ----------------------------------------------------------- clause arena


class TestArena:
    def test_clause_view_counts_only_live_originals(self):
        s = SATSolver()
        a, b, c = (lit(s.new_var()) for _ in range(3))
        s.add_clause([a, b])
        s.add_clause([b, c])
        s.add_clause([a, b, c])
        assert len(s.clauses) == 3
        s._add_learnt([a ^ 1, c], lbd=2)
        assert len(s.clauses) == 3  # learned clauses are not originals
        assert sorted(len(cl) for cl in s.clauses) == [2, 2, 3]

    def test_add_gate_matches_sanitized_path(self):
        # an XOR gate g = a ^ b over fresh inputs: stored as given
        g, a, b = 4, 0, 2
        clauses = [[g ^ 1, a, b], [g ^ 1, a ^ 1, b ^ 1],
                   [g, a, b ^ 1], [g, a ^ 1, b]]
        s1 = SATSolver()
        s1.new_vars(3)
        for cl in clauses:
            s1.add_clause(cl)
        s2 = SATSolver()
        s2.new_vars(3)
        s2.add_gate([list(cl) for cl in clauses], (a, b))
        assert list(s2.clauses) == clauses
        assert s2.arena == s1.arena and s2.watches == s1.watches
        s1.add_clause([g])
        s2.add_clause([g])
        assert s1.solve() is s2.solve() is SATResult.SAT
        assert s1.model_value(0) != s1.model_value(1)
        assert s2.model_value(0) != s2.model_value(1)

    def test_new_vars_bulk_allocation_keeps_heap_usable(self):
        # bulk allocation after activity bumps must preserve the branch
        # heap (new entries are appended without a heapify)
        s = SATSolver()
        a, b = lit(s.new_var()), lit(s.new_var())
        s.add_clause([a, b])
        assert s.solve() is SATResult.SAT
        s._backtrack(0)  # unwind the satisfying trail to add clauses again
        first = s.new_vars(5)
        assert s.num_vars == first + 5
        x, y = first, first + 4
        s.add_clause([lit(x), lit(y)])
        s.add_clause([lit(x) ^ 1, lit(y) ^ 1])
        assert s.solve() is SATResult.SAT
        assert s.model_value(x) != s.model_value(y)

    def test_kill_and_compact_remap_offsets(self):
        s = SATSolver()
        lits = [lit(s.new_var()) for _ in range(6)]
        s.add_clause(lits[:3])
        s.add_clause(lits[2:5])
        off = s._add_learnt([lits[0] ^ 1, lits[3], lits[5]], lbd=4)
        s._kill_clause(off)
        assert s.arena[off + 1] == _DEAD
        assert s._wasted > 0
        s._compact()
        assert s.stats["compactions"] == 1
        assert s._wasted == 0
        assert s.solve() is SATResult.SAT
        assert len(s.clauses) == 2


# ------------------------------------------------------- clause reduction


class TestReduceDB:
    def test_reduction_keeps_glue_and_kills_high_lbd(self):
        s = SATSolver()
        vs = [lit(s.new_var()) for _ in range(12)]
        s.add_clause(vs[:2])
        s._add_learnt([vs[0], vs[1], vs[2]], lbd=_GLUE_KEEP)
        for i in range(8):
            s._add_learnt(
                [vs[i % 10], vs[(i + 1) % 10], vs[(i + 2) % 10],
                 vs[(i + 3) % 10]], lbd=_GLUE_KEEP + 2 + i)
        s._reduce_db()
        # half of the 8 reducible clauses tombstoned, glue clause immortal
        # (offsets may have been remapped by compaction — judge by the
        # rebuilt learned index and the surviving LBD values)
        assert s.stats["deleted"] == 4
        assert len(s.learnt_offs) == 5
        survivors = sorted(s.arena[off + 1] for off in s.learnt_offs)
        assert survivors[0] == _GLUE_KEEP
        # the worst glue went first: survivors are the low-LBD half
        assert survivors[-1] <= _GLUE_KEEP + 2 + 3

    def test_subsume_on_the_fly_kills_strict_superset(self):
        s = SATSolver()
        a, b, c, d = (lit(s.new_var()) for _ in range(4))
        s.add_clause([a, b, c, d])
        wide = s._add_learnt([a, b, c], lbd=3)
        tight = s._add_learnt([a, b], lbd=2)
        s._subsume_on_the_fly([a, b], tight)
        assert s.arena[wide + 1] == _DEAD
        assert s.stats["subsumed"] == 1
        assert s.arena[tight + 1] != _DEAD


# ----------------------------------------------------------- vivification


class TestVivification:
    def _solver_with_weak_learnt(self):
        """A solver whose one learned clause contains a root-false lit."""
        s = SATSolver()
        a, b, c = (lit(s.new_var()) for _ in range(3))
        s.add_clause([a ^ 1])  # root unit: a is false
        s.add_clause([b, c])
        off = s._add_learnt([b, c, a], lbd=3)
        return s, off, (a, b, c)

    def test_vivify_drops_root_false_literal(self):
        s, off, (a, b, c) = self._solver_with_weak_learnt()
        assert s._vivify_round(None) == "ok"
        assert s.arena[off + 1] == _DEAD  # replaced by a shorter clause
        assert s.stats["vivified"] == 1
        assert s.stats["vivify_lits"] >= 1
        assert s.solve() is SATResult.SAT

    def test_vivify_round_honors_deadline(self):
        s, off, _ = self._solver_with_weak_learnt()
        assert s._vivify_round(time.monotonic() - 1.0) == "deadline"
