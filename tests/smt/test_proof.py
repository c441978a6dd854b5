"""The DRAT proof log and the independent backward RUP/RAT checker.

Positive direction: every UNSAT run of the CDCL core under ``certify``
must leave a log the checker accepts — across inprocessing and
preprocessing.  Negative direction: a proof whose axioms are
satisfiable must *always* be rejected (acceptance would certify a lie),
and structural mutations of a valid log (dropped, duplicated, reordered
steps; flipped literals) must never crash the checker and never certify
an empty-clause claim over satisfiable axioms.
"""

import itertools
import random

import pytest

from repro.smt.sat import SATResult, SATSolver
from repro.smt.sat.proof import CheckedProof, ProofLog, check_proof


def lit(v: int, positive: bool) -> int:
    return (v << 1) | (0 if positive else 1)


def php_clauses(holes: int) -> tuple[int, list[list[int]]]:
    """Pigeonhole CNF: ``holes + 1`` pigeons into ``holes`` holes.

    Unsatisfiable, and *minimally* so — dropping any single clause makes
    it satisfiable, which the negative tests below rely on.
    """
    pigeons = holes + 1
    var = lambda p, h: p * holes + h  # noqa: E731 - tiny index helper
    clauses = [[lit(var(p, h), True) for h in range(holes)]
               for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([lit(var(p1, h), False), lit(var(p2, h), False)])
    return pigeons * holes, clauses


def solve_certified(num_vars, clauses) -> tuple[SATResult, SATSolver]:
    solver = SATSolver()
    solver.attach_proof(ProofLog())
    for _ in range(num_vars):
        solver.new_var()
    for c in clauses:
        if not solver.add_clause(c):
            break
    res = solver.solve()
    return res, solver


def brute_force_sat(num_vars, clauses) -> bool:
    """Truth-table ground truth for the tiny negative-test formulas."""
    for bits in range(1 << num_vars):
        if all(any((bits >> (c >> 1)) & 1 == 1 - (c & 1) for c in clause)
               for clause in clauses):
            return True
    return False


class TestAccepts:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_php_proof_accepted(self, holes):
        nv, clauses = php_clauses(holes)
        res, solver = solve_certified(nv, clauses)
        assert res is SATResult.UNSAT
        checked = check_proof(solver.proof)
        assert checked.ok, checked.reason
        assert checked.verified >= 1
        assert checked.axioms == len(clauses)

    def test_contradicting_units(self):
        res, solver = solve_certified(1, [[lit(0, True)], [lit(0, False)]])
        assert res is SATResult.UNSAT
        assert check_proof(solver.proof).ok

    def test_inprocessing_heavy_run_still_checks(self):
        # Restarts and on-the-fly subsumption exercise deletion logging.
        nv, clauses = php_clauses(5)
        res, solver = solve_certified(nv, clauses)
        assert res is SATResult.UNSAT
        checked = check_proof(solver.proof)
        assert checked.ok, checked.reason

    def test_random_unsat_formulas_round_trip(self):
        rng = random.Random(12345)
        accepted = 0
        for trial in range(30):
            nv = rng.randint(4, 8)
            clauses = [[lit(rng.randrange(nv), rng.random() < 0.5)
                        for _ in range(3)]
                       for _ in range(rng.randint(3 * nv, 5 * nv))]
            res, solver = solve_certified(nv, clauses)
            if res is not SATResult.UNSAT:
                continue
            assert brute_force_sat(nv, clauses) is False
            checked = check_proof(solver.proof)
            assert checked.ok, (trial, checked.reason)
            accepted += 1
        assert accepted >= 5  # the density makes most trials UNSAT


class TestRejects:
    def test_satisfiable_axioms_with_empty_log(self):
        log = ProofLog()
        log.extend_axioms([[lit(0, True), lit(1, True)]])
        checked = check_proof(log)
        assert not checked.ok
        assert "not RUP" in checked.reason

    def test_every_axiom_drop_is_rejected(self):
        # PHP is minimally unsatisfiable: removing any one axiom makes it
        # satisfiable, so a checker accepting the remaining proof would be
        # certifying a false UNSAT.  Exhaustive over all axioms.
        nv, clauses = php_clauses(3)
        res, solver = solve_certified(nv, clauses)
        assert res is SATResult.UNSAT
        base = solver.proof
        for drop in range(len(base.axioms)):
            log = ProofLog()
            log.axioms = [c for i, c in enumerate(base.axioms) if i != drop]
            log.steps = list(base.steps)
            checked = check_proof(log)
            assert not checked.ok, f"axiom {drop} dropped but accepted"

    def test_needed_lemma_drop_is_rejected(self):
        # A hand proof in which every step is load-bearing.
        log = ProofLog()
        log.extend_axioms([
            [lit(0, True), lit(1, True)], [lit(0, True), lit(1, False)],
            [lit(0, False), lit(1, True)], [lit(0, False), lit(1, False)],
        ])
        log.add([lit(0, True)])
        assert check_proof(log).ok
        log.steps = []  # drop the only lemma: () is no longer unit-derivable
        assert not check_proof(log).ok

    def test_malformed_literals_rejected_not_crashed(self):
        for bad in (-1, "x", None, 2.5):
            log = ProofLog()
            log.add_axiom([bad])
            checked = check_proof(log)
            assert isinstance(checked, CheckedProof) and not checked.ok
            assert "malformed" in checked.reason
        log = ProofLog()
        log.extend_axioms([[lit(0, True)]])
        log.add([bad])
        assert not check_proof(log).ok


class TestMutationFuzz:
    """Structural fuzz over a valid log.  Over *satisfiable* axioms every
    mutated log must be rejected (anything else certifies a lie); over the
    original unsatisfiable axioms the checker must never crash and must
    return a definite verdict for every mutation."""

    @pytest.fixture(scope="class")
    def valid(self):
        nv, clauses = php_clauses(3)
        res, solver = solve_certified(nv, clauses)
        assert res is SATResult.UNSAT
        assert check_proof(solver.proof).ok
        return solver.proof

    def _mutants(self, steps, rng):
        n = len(steps)
        for _ in range(40):
            kind = rng.choice(("drop", "dup", "swap", "flip"))
            out = list(steps)
            if not out:
                continue
            i = rng.randrange(len(out))
            if kind == "drop":
                del out[i]
            elif kind == "dup":
                out.insert(i, out[i])
            elif kind == "swap" and n >= 2:
                j = rng.randrange(len(out))
                out[i], out[j] = out[j], out[i]
            elif kind == "flip":
                is_del, lits = out[i]
                if not lits:
                    continue
                k = rng.randrange(len(lits))
                flipped = tuple(c ^ 1 if idx == k else c
                                for idx, c in enumerate(lits))
                out[i] = (is_del, flipped)
            yield out

    def test_mutants_over_satisfiable_axioms_all_rejected(self, valid):
        rng = random.Random(99)
        sat_axioms = valid.axioms[1:]  # PHP minus a clause: satisfiable
        for steps in self._mutants(valid.steps, rng):
            log = ProofLog()
            log.axioms = list(sat_axioms)
            log.steps = steps
            checked = check_proof(log)
            assert not checked.ok, "mutated proof certified a SAT formula"

    def test_mutants_never_crash(self, valid):
        rng = random.Random(7)
        for steps in self._mutants(valid.steps, rng):
            log = ProofLog()
            log.axioms = list(valid.axioms)
            log.steps = steps
            checked = check_proof(log)
            assert isinstance(checked, CheckedProof)
            assert isinstance(checked.ok, bool)
