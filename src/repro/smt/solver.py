"""The SMT solver facade — the drop-in replacement for the paper's use of Z3.

Pipeline per ``check()``:

1. term-level simplification (polynomial normalization, read-over-write,
   word-level rewriting, and unit propagation of top-level ``v == c``
   conjuncts — see :mod:`repro.smt.simplify`).  It runs once per query:
   the dispatcher (:mod:`repro.smt.dispatch`) simplifies each query while
   preparing its cache key and hands the result to ``check(simplified=)``;
2. array elimination (write-chain expansion + Ackermann reduction),
   simplifying again only when it introduced read variables;
3. bit-blasting to CNF;
4. CDCL SAT solving under a time/conflict budget;
5. on SAT, model reconstruction back up through the pipeline (bit values →
   scalar values → array contents via the recorded read indices).

The facade is one-shot: each ``check()`` rebuilds the CNF on a fresh SAT
instance, which keeps every layer stateless and testable.  It is the only
path from the dispatcher (:mod:`repro.smt.dispatch`) to the CDCL core.
``preprocess=True`` inserts the SatELite CNF preprocessing pass between
steps 3 and 4, with model reconstruction undoing its eliminations.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Sequence
from . import faults
from .arrays import eliminate_arrays
from .bitblast import BitBlaster
from .cnf import ClauseDB, GateBuilder
from .model import Model
from .poly import PolyMemo
from .preprocess import Preprocessor
from .sat import SATSolver, STAT_COUNTER_KEYS
from .sat.proof import ProofLog, check_proof
from .simplify import simplify_all
from .sorts import ArraySort
from .substitute import evaluate
from .terms import FALSE, Not, Term, TRUE, collect
from ..errors import SolverError, SolverTimeout

__all__ = ["CheckResult", "Solver", "check_valid", "is_satisfiable"]


class CheckResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Solver:
    """One SMT query: accumulate assertions, then ``check()``.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds for one ``check()`` (``None`` = no
        limit).  On expiry ``check()`` returns ``UNKNOWN`` — the paper's
        ``T.O``.
    conflict_budget:
        Optional cap on SAT conflicts, for deterministic budget tests.
    do_simplify:
        Disable to solve the assertions as written, without the word-level
        simplifier.  Only tests do: as a reference the simplifier must
        agree with, and to keep hand-built queries as they are.
    validate_models:
        Re-evaluate every original assertion under each model before
        returning it (a soundness net used throughout the test suite).
    preprocess:
        Run the SatELite-style CNF preprocessing pass
        (:mod:`repro.smt.preprocess`) on the blasted clauses before
        solving; models are reconstructed through the eliminations.
    certify:
        Require a checked DRAT proof for every UNSAT answer: the SAT
        layer logs its derivation and the independent checker
        (:func:`repro.smt.sat.proof.check_proof`) re-validates it.  A
        rejected proof downgrades the answer to ``UNKNOWN`` with
        ``stats["certify"]["rejected"]`` set and the checker's reason in
        ``rejection`` — a claim that cannot be certified is never reported
        as UNSAT.  Term-level-FALSE short circuits certify trivially (no
        SAT layer involved).
    """

    def __init__(self, timeout: float | None = None,
                 conflict_budget: int | None = None,
                 do_simplify: bool = True,
                 validate_models: bool = False,
                 preprocess: bool = False,
                 certify: bool = False) -> None:
        self.timeout = timeout
        self.conflict_budget = conflict_budget
        self.do_simplify = do_simplify
        self.validate_models = validate_models
        self.preprocess = preprocess
        self.certify = certify
        self.assertions: list[Term] = []
        self._model: Model | None = None
        #: The last check's record: its counters and phase times under
        #: ``"solver"``, and under ``"certify"`` its proof check.
        self.stats: dict[str, dict] = {}
        self.rejection: str | None = None

    def add(self, *terms: Term) -> None:
        for t in terms:
            if t.sort.is_bool():
                self.assertions.append(t)
            else:
                raise SolverError(f"assertion must be Bool-sorted, got {t.sort!r}")

    def check(self, simplified: Sequence[Term] | None = None) -> CheckResult:
        """Decide satisfiability of the conjunction of all assertions.

        ``simplified`` is the output of step 1 when the caller has already
        run it on these assertions; the solver then starts from it.  Model
        validation still checks the added assertions.
        """
        self._model = None
        self.rejection = None
        counts: dict[str, float] = {}
        self.stats = {"solver": counts}
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None

        polys = PolyMemo()
        if simplified is not None:
            work = list(simplified)
        elif self.do_simplify:
            work = simplify_all(list(self.assertions), polys)
        else:
            work = list(self.assertions)
        counts["simplify_time"] = time.monotonic() - start
        work = [t for t in work if t is not TRUE]
        if any(t is FALSE for t in work):
            self._certify_trivial()
            self._finish(start, conflicts=0)
            return CheckResult.UNSAT
        if not work:
            self._model = Model({})
            self._finish(start, conflicts=0)
            return CheckResult.SAT

        elim_start = time.monotonic()
        flat, info = eliminate_arrays(work, polys)
        if self.do_simplify and info.reads:
            flat = simplify_all(flat, polys)
            flat = [t for t in flat if t is not TRUE]
            if any(t is FALSE for t in flat):
                self._certify_trivial()
                self._finish(start, conflicts=0)
                return CheckResult.UNSAT
        counts["array_time"] = time.monotonic() - elim_start

        blast_start = time.monotonic()
        pre = None
        log = ProofLog() if self.certify else None
        if self.preprocess:
            bb = BitBlaster(GateBuilder(ClauseDB()))
        else:
            core = SATSolver()
            if log is not None:
                core.attach_proof(log)
            bb = BitBlaster(GateBuilder(core))
        for t in flat:
            bb.assert_term(t)
        counts["blast_time"] = time.monotonic() - blast_start
        if self.preprocess:
            db = bb.gb.sat
            pp_start = time.monotonic()
            if log is not None:
                log.extend_axioms(db.clauses)
                if not db.ok:
                    log.add_axiom(())  # the DB drops an empty input clause
            pre = Preprocessor(db.num_vars, db.clauses, [0],
                               proof=log).run()
            counts["preprocess_time"] = time.monotonic() - pp_start
            counts.update(pre.stats)
            sat = SATSolver()
            if log is not None:
                sat.attach_proof(log, adopt=True)
            sat.new_vars(db.num_vars)
            if db.ok and pre.ok:
                sat.add_clauses(pre.output_clauses())
            else:
                sat.ok = False
        else:
            sat = bb.gb.sat
        counts["clauses"] = len(sat.clauses)
        counts["sat_vars"] = sat.num_vars
        if not sat.ok:
            self._finish(start, conflicts=sat.stats["conflicts"])
            self._copy_sat_counters(sat)
            if not self._certify_unsat(log):
                return CheckResult.UNKNOWN
            return CheckResult.UNSAT

        sat_start = time.monotonic()
        result = sat.solve(deadline=deadline,
                           conflict_budget=self.conflict_budget)
        if result.value == "sat" and faults.flips_unsat(
                faults.active(), str(sat.num_vars)):
            result = type(result).UNSAT  # the lying-solver fault
        counts["sat_time"] = time.monotonic() - sat_start
        self._finish(start, conflicts=sat.stats["conflicts"])
        self._copy_sat_counters(sat)
        if result.value == "unsat":
            if not self._certify_unsat(log):
                return CheckResult.UNKNOWN
            return CheckResult.UNSAT
        if result.value == "unknown":
            return CheckResult.UNKNOWN

        # -- model reconstruction -------------------------------------------
        if pre is not None:
            values = pre.reconstruct(sat.model_value)

            def lit_value(lit: int) -> bool:
                return values[lit >> 1] ^ bool(lit & 1)
        else:
            def lit_value(lit: int) -> bool:
                return sat.model_value(lit >> 1) ^ bool(lit & 1)

        scalars: dict[Term, object] = {}
        for var, lit in bb.bool_vars.items():
            scalars[var] = lit_value(lit)
        for var, bits in bb.var_bits.items():
            scalars[var] = sum(1 << i for i, b in enumerate(bits) if lit_value(b))

        arrays: dict[Term, dict[int, int]] = {}
        for array, pairs in info.reads.items():
            content: dict[int, int] = {}
            for index_term, elem_var in pairs:
                idx = evaluate(index_term, scalars)
                assert isinstance(idx, int)
                content[idx] = int(scalars.get(elem_var, 0))  # type: ignore[arg-type]
            arrays[array] = content

        model = Model(scalars, arrays)
        if self.validate_models:
            for t in self.assertions:
                if model.eval(t) is not True:
                    raise SolverError(
                        f"model validation failed for assertion {t!r}")
        self._model = model
        return CheckResult.SAT

    def _certify_trivial(self) -> None:
        """A term-level FALSE needs no SAT proof: the contradiction is
        syntactic, above the certificate's CNF boundary."""
        if self.certify:
            self.stats["certify"] = {"checked": 1, "rejected": 0,
                                     "trivial": 1, "steps": 0, "axioms": 0,
                                     "verified": 0, "time": 0.0}

    def _certify_unsat(self, log: ProofLog | None) -> bool:
        """Re-derive the UNSAT verdict from its proof log; ``False`` means
        the proof was rejected and the caller must answer UNKNOWN."""
        if log is None:
            return True
        t0 = time.monotonic()
        res = check_proof(log)
        self.stats["certify"] = {
            "checked": 1, "rejected": 0 if res.ok else 1, "trivial": 0,
            "steps": res.steps, "axioms": res.axioms,
            "verified": res.verified,
            "time": time.monotonic() - t0,
        }
        if not res.ok:
            self.rejection = res.reason
        return res.ok

    def _finish(self, start: float, conflicts: int) -> None:
        self.stats["solver"]["time"] = time.monotonic() - start
        self.stats["solver"]["conflicts"] = conflicts

    def _copy_sat_counters(self, sat) -> None:
        counts = self.stats["solver"]
        for key in STAT_COUNTER_KEYS:
            if key != "conflicts":  # set by _finish already
                counts[key] = sat.stats.get(key, 0)
        if sat.stats.get("budget_axis"):
            # The budget axis that expired, counted once for this query.
            counts["budget_" + sat.stats["budget_axis"]] = 1

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() requires a prior sat check()")
        return self._model


def is_satisfiable(*terms: Term, timeout: float | None = None) -> bool:
    """Convenience one-shot satisfiability test (raises on UNKNOWN)."""
    s = Solver(timeout=timeout)
    s.add(*terms)
    res = s.check()
    if res is CheckResult.UNKNOWN:
        raise SolverTimeout("satisfiability check exceeded its budget")
    return res is CheckResult.SAT


def check_valid(formula: Term, timeout: float | None = None,
                validate_models: bool = False) -> tuple[CheckResult, Model | None]:
    """Check validity of ``formula``.

    Returns ``(UNSAT, None)`` when valid (the negation is unsatisfiable),
    ``(SAT, countermodel)`` when refuted, ``(UNKNOWN, None)`` on budget
    exhaustion.  The naming follows the refutation query actually solved.
    """
    s = Solver(timeout=timeout, validate_models=validate_models)
    s.add(Not(formula))
    res = s.check()
    if res is CheckResult.SAT:
        return res, s.model()
    return res, None
