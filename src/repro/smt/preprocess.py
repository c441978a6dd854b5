"""CNF preprocessing in the SatELite tradition.

Four simplifications run to (bounded) fixpoint before the CNF reaches the
CDCL core:

* **unit propagation** — root-level units are applied and their clauses
  removed/strengthened;
* **pure-literal elimination** — a variable occurring with one polarity only
  is assigned that polarity and its clauses dropped;
* **(self-)subsuming resolution** — a clause subsumed by another is deleted;
  when a resolvent of two clauses subsumes one of its parents the parent is
  strengthened in place;
* **bounded variable elimination** — a variable whose resolvent set is no
  larger than the clauses it replaces is eliminated by distribution.

Every transformation preserves satisfiability *projected onto the frozen
variables*: callers freeze the constant variable (see
:class:`repro.smt.solver.Solver`), so UNSAT/SAT answers are unchanged.  Eliminated variables are recorded on a
reconstruction stack; :meth:`Preprocessor.reconstruct` replays it in
reverse to extend a model of the reduced CNF to a full model of the
original clauses, which is what the bit-blaster's term-model extraction
consumes.

Frozen variables are never eliminated, and any root-level unit on a frozen
variable is re-emitted in the output CNF, so the reduced instance still
observes it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .sat.proof import ProofLog

__all__ = ["Preprocessor", "preprocess"]


def _resolve(pos: Sequence[int], neg: Sequence[int], var: int) -> list[int] | None:
    """The resolvent of ``pos`` (contains ``2*var``) and ``neg`` (contains
    ``2*var + 1``) on ``var``; ``None`` when it is a tautology."""
    plit, nlit = var << 1, (var << 1) | 1
    out: list[int] = []
    seen: set[int] = set()
    for lit in pos:
        if lit != plit and lit not in seen:
            seen.add(lit)
            out.append(lit)
    for lit in neg:
        if lit == nlit or lit in seen:
            continue
        if lit ^ 1 in seen:
            return None
        seen.add(lit)
        out.append(lit)
    return out


class Preprocessor:
    """One preprocessing run over a clause list.

    Usage::

        pre = Preprocessor(num_vars, clauses, frozen=assumption_vars)
        pre.run()
        if not pre.ok:       # root-level conflict: UNSAT outright
            ...
        reduced = pre.output_clauses()
        ... solve ...
        full = pre.reconstruct(solver.model_value)   # var -> bool
    """

    #: Skip subsumption attempts against occurrence lists longer than this.
    SUBSUME_OCC_LIMIT = 400
    #: Never distribute a variable with more than this many pos*neg pairs.
    BVE_PAIR_LIMIT = 96
    #: Resolvents longer than this veto an elimination.
    BVE_CLAUSE_LIMIT = 16
    #: Cap on resolvent clauses BVE may add per run, as a multiple of the
    #: input clause count.  Elimination churn is quadratic-ish in the worst
    #: case; on propagation-easy instances unbounded BVE costs more than
    #: the CDCL search it is meant to shorten.  The cap is deterministic
    #: (pure function of the input), so verdicts stay reproducible.
    BVE_ADD_FACTOR = 1.0
    #: Above this many input clauses the preprocessor is a pass-through:
    #: even building the occurrence index costs more than the CDCL core's
    #: watched-literal propagation spends solving the large
    #: propagation-easy CNFs the bit-blaster emits.  Small CNFs are where
    #: subsumption and elimination reshape the search space.
    SIZE_LIMIT = 4000

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]],
                 frozen: Iterable[int] = (),
                 proof: ProofLog | None = None) -> None:
        self.n = num_vars
        self.ok = True
        # DRAT logging: the owner has already recorded the input clauses as
        # axioms in ``proof``; this class records its transformations —
        # strengthened clauses and BVE resolvents as additions (before the
        # deletion of what they were derived from), pure literals as RAT
        # unit additions, removed clauses as deletions.
        self.proof = proof
        self.frozen = bytearray(num_vars)
        for v in frozen:
            self.frozen[v] = 1
        self.assign = bytearray([2]) * num_vars
        self.eliminated = bytearray(num_vars)
        self.clauses: list[list[int] | None] = []
        # 64-bit variable signature per clause (OR of 1 << (var & 63)).
        # Stale entries only over-approximate after literal removal, which
        # keeps the subsumption prefilter sound (it is a necessary-condition
        # check; exact set tests still follow).
        self.sigs: list[int] = []
        self.occ: list[set[int]] = []
        # Reconstruction stack: ("unit", lit) | ("pure", lit) |
        # ("elim", var, saved_clauses).  Replayed in reverse by reconstruct.
        self.stack: list[tuple] = []
        self._units: list[int] = []
        # Clause ids added or strengthened since the last subsumption sweep;
        # later sweeps only revisit these.
        self._dirty: set[int] = set()
        self.stats = {"pp_units": 0, "pp_pures": 0, "pp_subsumed": 0,
                      "pp_strengthened": 0, "pp_eliminated": 0,
                      "pp_clauses_in": 0, "pp_clauses_out": 0}
        clause_list = clauses if isinstance(clauses, list) else list(clauses)
        self.stats["pp_clauses_in"] = len(clause_list)
        self.passthrough = len(clause_list) > self.SIZE_LIMIT
        if self.passthrough:
            # output_clauses() copies, so aliasing the input is safe.
            self.clauses = list(clause_list)  # type: ignore[arg-type]
            self._bve_quota = 0
            return
        self.occ = [set() for _ in range(2 * num_vars)]
        for clause in clause_list:
            self._add_clause(clause)
        self._bve_quota = int(self.BVE_ADD_FACTOR
                              * max(2000, self.stats["pp_clauses_in"]))

    # ------------------------------------------------------------ clause ops

    def _add_clause(self, lits: Sequence[int],
                    derived: bool = False) -> None:
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if lit ^ 1 in seen:
                return  # tautology
            val = self.assign[lit >> 1]
            if val != 2:
                if val == (lit & 1):
                    return  # satisfied by a root unit
                continue    # falsified literal: drop
            seen.add(lit)
            out.append(lit)
        if derived and self.proof is not None:
            # A derived clause (BVE resolvent) is RUP against its still-
            # active parents; log the stripped form actually kept.
            self.proof.add(tuple(out))
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._units.append(out[0])
            return
        cid = len(self.clauses)
        self.clauses.append(out)
        sig = 0
        for lit in out:
            self.occ[lit].add(cid)
            sig |= 1 << ((lit >> 1) & 63)
        self.sigs.append(sig)
        self._dirty.add(cid)

    def _delete_clause(self, cid: int, log: bool = True) -> None:
        clause = self.clauses[cid]
        if clause is None:
            return
        if log and self.proof is not None:
            self.proof.delete(tuple(clause))
        for lit in clause:
            self.occ[lit].discard(cid)
        self.clauses[cid] = None

    def _remove_literal(self, cid: int, lit: int) -> None:
        clause = self.clauses[cid]
        assert clause is not None
        if self.proof is not None:
            # Log the shortened clause before retiring the version it was
            # derived through (the derivation propagates through the old
            # clause, so the addition must precede the deletion).
            self.proof.add(tuple(l for l in clause if l != lit))
            self.proof.delete(tuple(clause))
        clause.remove(lit)
        self.occ[lit].discard(cid)
        if not clause:
            self.ok = False
        elif len(clause) == 1:
            self._units.append(clause[0])
            # The surviving unit was just logged as an addition; only drop
            # the clause from the in-memory index.
            self._delete_clause(cid, log=False)
        else:
            self._dirty.add(cid)

    # ----------------------------------------------------------------- passes

    def _propagate(self) -> bool:
        changed = False
        while self._units and self.ok:
            lit = self._units.pop()
            var = lit >> 1
            if self.assign[var] != 2:
                if self.assign[var] != (lit & 1):
                    self.ok = False
                continue
            changed = True
            self.assign[var] = lit & 1
            self.stack.append(("unit", lit))
            self.stats["pp_units"] += 1
            for cid in list(self.occ[lit]):
                self._delete_clause(cid)
            for cid in list(self.occ[lit ^ 1]):
                self._remove_literal(cid, lit ^ 1)
        return changed

    def _pure_pass(self) -> bool:
        changed = False
        for var in range(self.n):
            if self.assign[var] != 2 or self.eliminated[var] \
                    or self.frozen[var]:
                continue
            pos, neg = self.occ[var << 1], self.occ[(var << 1) | 1]
            if pos and neg:
                continue
            if not pos and not neg:
                continue  # no occurrences left: the model default covers it
            lit = (var << 1) if pos else ((var << 1) | 1)
            self.eliminated[var] = 1
            self.stack.append(("pure", lit))
            self.stats["pp_pures"] += 1
            if self.proof is not None:
                # A pure literal's unit is a RAT addition on that literal
                # (no active clause holds the negation); it must be logged
                # before its satisfied clauses are retired.
                self.proof.add((lit,))
            for cid in list(self.occ[lit]):
                self._delete_clause(cid)
            changed = True
        return changed

    def _subsumption_pass(self, worklist: Iterable[int] | None = None) -> bool:
        """Backward subsumption and self-subsuming resolution.

        For each clause C (all clauses, or just ``worklist`` — the clauses
        added or strengthened since the previous sweep), candidates are
        found through the occurrence list of C's least-occurring literal
        (for plain subsumption) or of a flipped literal (for
        strengthening); both are skipped when the list exceeds
        :data:`SUBSUME_OCC_LIMIT`.
        """
        changed = False
        sigs = self.sigs
        cids = range(len(self.clauses)) if worklist is None \
            else sorted(set(worklist))
        for cid in cids:
            if cid >= len(self.clauses):
                continue
            clause = self.clauses[cid]
            if clause is None or not self.ok:
                continue
            cset = set(clause)
            # Exact signature for C; stored D signatures may be stale
            # (over-approximate), which only admits extra candidates into
            # the exact set checks below.
            csig = 0
            for lit in clause:
                csig |= 1 << ((lit >> 1) & 63)
            best = min(clause, key=lambda l: len(self.occ[l]))
            if len(self.occ[best]) <= self.SUBSUME_OCC_LIMIT:
                for did in list(self.occ[best]):
                    other = self.clauses[did]
                    if did == cid or other is None or \
                            len(other) < len(clause) or csig & ~sigs[did]:
                        continue
                    if cset <= set(other):
                        self._delete_clause(did)
                        self.stats["pp_subsumed"] += 1
                        changed = True
            # Self-subsuming resolution: C = (l v R), D = (~l v R v S)
            # resolve to (R v S) subset of D => drop ~l from D.  Any
            # candidate still needs every variable of C, so the same
            # signature prefilter applies.
            for lit in clause:
                if self.clauses[cid] is None:
                    break
                occ = self.occ[lit ^ 1]
                if len(occ) > self.SUBSUME_OCC_LIMIT:
                    continue
                rest = cset - {lit}
                for did in list(occ):
                    other = self.clauses[did]
                    if other is None or len(other) < len(clause) or \
                            csig & ~sigs[did]:
                        continue
                    if rest <= (set(other) - {lit ^ 1}):
                        self._remove_literal(did, lit ^ 1)
                        self.stats["pp_strengthened"] += 1
                        changed = True
                        if not self.ok:
                            return changed
        return changed

    def _try_eliminate(self, var: int) -> bool:
        pos_ids = self.occ[var << 1]
        neg_ids = self.occ[(var << 1) | 1]
        if len(pos_ids) * len(neg_ids) > self.BVE_PAIR_LIMIT:
            return False
        pos = [self.clauses[c] for c in pos_ids]
        neg = [self.clauses[c] for c in neg_ids]
        bound = len(pos) + len(neg)
        resolvents: list[list[int]] = []
        for p in pos:
            for q in neg:
                r = _resolve(p, q, var)  # type: ignore[arg-type]
                if r is None:
                    continue
                if len(r) > self.BVE_CLAUSE_LIMIT:
                    return False
                resolvents.append(r)
                if len(resolvents) > bound:
                    return False
        if len(resolvents) > self._bve_quota:
            return False
        self._bve_quota -= len(resolvents)
        saved = [list(c) for c in pos] + [list(c) for c in neg]  # type: ignore[union-attr]
        self.eliminated[var] = 1
        self.stack.append(("elim", var, saved))
        self.stats["pp_eliminated"] += 1
        # Resolvents are RUP only while their parents are alive: add them
        # first, then retire the parents.  Resolvents never mention ``var``,
        # so the parent occurrence sets are unchanged by the additions.
        doomed = list(pos_ids) + list(neg_ids)
        for r in resolvents:
            self._add_clause(r, derived=True)
        for cid in doomed:
            self._delete_clause(cid)
        return True

    def _bve_pass(self) -> bool:
        changed = False
        # Cheapest variables first: elimination there cascades best.
        order = sorted(
            (v for v in range(self.n)
             if self.assign[v] == 2 and not self.eliminated[v]
             and not self.frozen[v]
             and (self.occ[v << 1] or self.occ[(v << 1) | 1])),
            key=lambda v: len(self.occ[v << 1]) * len(self.occ[(v << 1) | 1]))
        for var in order:
            if not self.ok or self._bve_quota <= 0:
                break
            if self._try_eliminate(var):
                changed = True
                if self._units:
                    self._propagate()
        return changed

    # -------------------------------------------------------------------- run

    def run(self, max_rounds: int = 3) -> "Preprocessor":
        if self.passthrough:
            self.stats["pp_clauses_out"] = self.stats["pp_clauses_in"]
            return self
        self._propagate()
        for rnd in range(max_rounds):
            if not self.ok:
                break
            changed = self._pure_pass()
            # Round 0 sweeps every clause; later rounds only use clauses
            # BVE or strengthening touched since as subsumers — untouched
            # pairs were already tried, and the rare old-subsumes-new case
            # is worth less than the full re-sweep costs.
            worklist = None if rnd == 0 else self._dirty
            self._dirty = set()
            changed |= self._subsumption_pass(worklist)
            changed |= self._propagate()
            changed |= self._bve_pass()
            changed |= self._propagate()
            if not changed:
                break
        self.stats["pp_clauses_out"] = sum(
            1 for c in self.clauses if c is not None)
        return self

    def output_clauses(self) -> list[list[int]]:
        """The reduced CNF, plus re-emitted units for frozen variables so the
        reduced instance still sees their forced values."""
        out = [list(c) for c in self.clauses if c is not None]
        for var in range(self.n):
            if self.frozen[var] and self.assign[var] != 2:
                out.append([(var << 1) | self.assign[var]])
        return out

    # ---------------------------------------------------------------- models

    def reconstruct(self, value_of: Callable[[int], bool]) -> list[bool]:
        """Extend a model of the reduced CNF to the original variables.

        ``value_of`` maps a surviving variable index to its boolean value
        (e.g. ``SATSolver.model_value``).  The reconstruction stack is
        replayed newest-first, so an entry only ever reads values fixed by
        later simplifications or by the solver — the order SatELite's
        correctness argument requires.
        """
        values = [value_of(v) for v in range(self.n)]
        for entry in reversed(self.stack):
            tag = entry[0]
            if tag == "unit" or tag == "pure":
                lit = entry[1]
                values[lit >> 1] = not (lit & 1)
                continue
            _, var, saved = entry
            # Default False; flip to True iff some clause with the positive
            # literal has no other true literal (BVE guarantees no clause
            # with the negative literal then becomes falsified).
            plit = var << 1
            need_true = False
            for clause in saved:
                if plit not in clause:
                    continue
                if not any(values[l >> 1] != bool(l & 1)
                           for l in clause if l >> 1 != var):
                    need_true = True
                    break
            values[var] = need_true
        return values


def preprocess(num_vars: int, clauses: Iterable[Sequence[int]],
               frozen: Iterable[int] = (), *,
               max_rounds: int = 3) -> Preprocessor:
    """Run the full pipeline and return the (queryable) preprocessor."""
    return Preprocessor(num_vars, clauses, frozen).run(max_rounds=max_rounds)
