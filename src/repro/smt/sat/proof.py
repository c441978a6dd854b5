"""DRAT-style proof logging and an independent backward RUP/RAT checker.

An UNSAT verdict is only as trustworthy as the solver that produced it —
and the CDCL core, its inprocessing (vivification, subsumption, clause-DB
reduction) and the CNF preprocessor (unit propagation, pure literals,
self-subsuming strengthening, bounded variable elimination) are all places
a bug could silently manufacture a false proof.  This module closes that
gap: the solving layers emit a compact in-memory clausal proof, and
:func:`check_proof` re-validates it with machinery that shares nothing
with the solver beyond the literal encoding (variable ``v`` has positive
literal ``2*v``, negative ``2*v + 1``; ``lit ^ 1`` negates).

**Proof format.**  A :class:`ProofLog` holds

* ``axioms`` — every clause exactly as the SAT layer received it (the
  blasted CNF; inputs, not proof obligations);
* ``steps`` — an ordered list of ``(is_delete, lits)`` pairs: clause
  *additions* (learned clauses, vivification replacements, preprocessor
  strengthenings, BVE resolvents, pure-literal units) and clause
  *deletions* (DB reduction, subsumption, satisfied/eliminated clauses).

This is DRAT semantics: every added clause must preserve satisfiability —
it must be a *reverse unit propagation* (RUP) consequence of the clauses
active at that point, or failing that a *resolution asymmetric tautology*
(RAT) on its first literal.  Deletions never need justification (removing
a clause cannot make a satisfiable formula unsatisfiable).

**Checker algorithm** (backward, core-first):

1. *Forward timeline* — replay the step list once to assign every clause
   occurrence an instance with an activity interval.  A deletion matches
   the most recently added active clause with the same literal multiset;
   an unmatched deletion is skipped (the DRAT convention — harmless, the
   clause simply stays active, which can only make later checks easier).
2. *Final check* — the empty clause must be RUP with respect to the
   clauses active at the end of the log.
3. *Backward walk* — steps are undone in reverse (deletions reactivate,
   additions deactivate).  Only additions *needed* by some later check are
   verified; need is discovered by tracking each propagation's reason
   clause and walking the reason graph out of the conflict.  This is the
   standard backward-checking optimization: unused lemmas cost nothing.

A rejected proof is reported with the failing step; the caller maps it to
an ``UNKNOWN`` verdict (never a crash, never a trusted ``VERIFIED``).

The certificate's boundary: it covers *blasted CNF in, empty clause out*.
Term-level simplification, the word-level rewriter and the bit-blaster sit
above the certificate and keep their differential test suites; the model
side (SAT answers) is covered by counterexample replay instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["ProofLog", "CheckedProof", "check_proof"]


class ProofLog:
    """A compact in-memory clausal proof: axioms plus ordered add/delete
    steps.  Literals use the solver encoding (``2*v`` / ``2*v + 1``)."""

    __slots__ = ("axioms", "steps")

    def __init__(self) -> None:
        self.axioms: list[tuple[int, ...]] = []
        self.steps: list[tuple[bool, tuple[int, ...]]] = []

    def add_axiom(self, lits: Iterable[int]) -> None:
        """Record one input clause, exactly as the SAT layer received it."""
        self.axioms.append(tuple(lits))

    def extend_axioms(self, clauses: Iterable[Iterable[int]]) -> None:
        self.axioms.extend(tuple(c) for c in clauses)

    def add(self, lits: Iterable[int]) -> None:
        """Record a derived clause (must be RUP/RAT at this point)."""
        self.steps.append((False, tuple(lits)))

    def delete(self, lits: Iterable[int]) -> None:
        """Record a clause deletion (never needs justification)."""
        self.steps.append((True, tuple(lits)))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class CheckedProof:
    """The checker's verdict on one proof."""
    ok: bool
    reason: str = ""
    axioms: int = 0
    steps: int = 0
    verified: int = 0  # additions actually re-derived (core size)


def _clause_key(lits: Sequence[int]) -> tuple[int, ...]:
    """Order- and duplicate-insensitive identity of a clause."""
    return tuple(sorted(set(lits)))


def check_proof(log: ProofLog) -> CheckedProof:
    """Validate ``log`` as a DRAT-style proof that the axioms are
    unsatisfiable (the empty clause follows from them).

    Returns a :class:`CheckedProof`; never raises on a malformed log —
    any irregularity (bad literal, underivable clause) is a rejection.
    """
    axioms = log.axioms
    steps = log.steps

    # ---------------------------------------------------- forward timeline
    lits_of: list[tuple[int, ...]] = []
    active: list[bool] = []
    by_key: dict[tuple[int, ...], list[int]] = {}
    max_lit = -1

    def _new_instance(lits: tuple[int, ...]) -> int:
        nonlocal max_lit
        cid = len(lits_of)
        lits_of.append(lits)
        active.append(True)
        for lit in lits:
            if lit > max_lit:
                max_lit = lit
        by_key.setdefault(_clause_key(lits), []).append(cid)
        return cid

    for lits in axioms:
        for lit in lits:
            if not isinstance(lit, int) or lit < 0:
                return CheckedProof(False, f"malformed axiom literal {lit!r}",
                                    len(axioms), len(steps))
        _new_instance(tuple(lits))
    n_axioms = len(lits_of)

    step_cid: list[int] = []
    for is_delete, lits in steps:
        for lit in lits:
            if not isinstance(lit, int) or lit < 0:
                return CheckedProof(False, f"malformed step literal {lit!r}",
                                    len(axioms), len(steps))
        if is_delete:
            stack = by_key.get(_clause_key(lits))
            if stack:
                cid = stack.pop()
                active[cid] = False
                step_cid.append(cid)
            else:
                step_cid.append(-1)  # unmatched deletion: skipped, sound
        else:
            step_cid.append(_new_instance(tuple(lits)))

    n_insts = len(lits_of)
    nvars = (max_lit >> 1) + 1 if max_lit >= 0 else 0

    # Static occurrence lists over every instance; ``active`` is consulted
    # at visit time, so one index serves every point of the timeline.
    occ: list[list[int]] = [[] for _ in range(2 * nvars)]
    for cid, lits in enumerate(lits_of):
        for lit in set(lits):
            occ[lit].append(cid)
    # A clause is a *semantic* unit when it has one distinct literal —
    # ``(x, x, x)`` propagates exactly like ``(x,)`` and must seed BCP.
    unit_ids = [cid for cid, lits in enumerate(lits_of)
                if lits and len(set(lits)) == 1]
    empty_ids = [cid for cid, lits in enumerate(lits_of) if not lits]

    # -------------------------------------------- propagation machinery
    _UNSET = 2
    value_of = bytearray([_UNSET]) * nvars if nvars else bytearray()
    needed = bytearray(n_insts)

    _ASSUMED = -2  # reason marker for literals assumed false

    def _check(clause: Sequence[int]) -> bool:
        """Is ``clause`` RUP — or, with a pivot, RAT — against the
        currently active set?  Marks the antecedents of a successful
        derivation as needed."""
        if _rup(clause, list(clause), mark=True):
            return True
        if not clause:
            return False  # the empty clause has no pivot: RUP or nothing
        return _rat(clause)

    def _rup(assume_false: Sequence[int], full_clause: Sequence[int],
             mark: bool) -> bool:
        """Assume every literal of ``assume_false`` false and unit-propagate
        over the active set; success is a conflict.  ``full_clause`` is only
        used to detect tautologies."""
        trail: list[int] = []          # literals made TRUE
        reason: dict[int, int] = {}    # var -> instance id or _ASSUMED
        conflict = -1

        for cid in empty_ids:
            if active[cid]:
                conflict = cid
                break

        tautology = False
        if conflict < 0:
            for lit in assume_false:
                neg = lit ^ 1
                var = lit >> 1
                v = value_of[var]
                if v == _UNSET:
                    value_of[var] = neg & 1
                    reason[var] = _ASSUMED
                    trail.append(neg)
                elif v == (lit & 1) ^ 1:
                    continue  # duplicate literal: already assumed false
                else:
                    tautology = True  # clause contains both lit and ~lit
                    break

        def _propagate(qhead: int) -> tuple[int, int]:
            """Propagate from ``trail[qhead:]``; returns (conflict, qhead)."""
            while qhead < len(trail):
                false_lit = trail[qhead] ^ 1
                qhead += 1
                for cid in occ[false_lit]:
                    if not active[cid]:
                        continue
                    unassigned = -1
                    state = 0  # 0 falsified so far, 1 satisfied, 2 open
                    for lit in lits_of[cid]:
                        v = value_of[lit >> 1]
                        if v == _UNSET:
                            if unassigned >= 0 and unassigned != lit:
                                state = 2
                                break
                            unassigned = lit
                        elif v == (lit & 1):
                            state = 1  # literal is true: clause satisfied
                            break
                    if state:
                        continue
                    if unassigned < 0:
                        return cid, qhead  # clause falsified: conflict
                    value_of[unassigned >> 1] = unassigned & 1
                    reason[unassigned >> 1] = cid
                    trail.append(unassigned)
            return -1, qhead

        if not tautology and conflict < 0:
            conflict, qhead = _propagate(0)
            if conflict < 0:
                # No conflict from the assumptions alone: bring in the
                # active unit clauses and continue to fixpoint.
                for cid in unit_ids:
                    if not active[cid]:
                        continue
                    lit = lits_of[cid][0]
                    v = value_of[lit >> 1]
                    if v == _UNSET:
                        value_of[lit >> 1] = lit & 1
                        reason[lit >> 1] = cid
                        trail.append(lit)
                    elif v != (lit & 1):
                        conflict = cid  # unit falsified by the assumptions
                        break
                if conflict < 0:
                    conflict, qhead = _propagate(qhead)

        if conflict >= 0 and mark:
            # Walk the reason graph out of the conflict, marking every
            # clause the derivation actually used.
            needed[conflict] = 1
            seen: set[int] = set()
            stack = [lit >> 1 for lit in lits_of[conflict]]
            while stack:
                var = stack.pop()
                if var in seen:
                    continue
                seen.add(var)
                r = reason.get(var, _ASSUMED)
                if r >= 0:
                    needed[r] = 1
                    stack.extend(lit >> 1 for lit in lits_of[r])

        for lit in trail:
            value_of[lit >> 1] = _UNSET
        return tautology or conflict >= 0

    def _rat(clause: Sequence[int]) -> bool:
        """Resolution asymmetric tautology on the clause's first literal:
        every resolvent with an active occurrence of the negated pivot must
        be a tautology or RUP."""
        pivot = clause[0]
        rest = [lit for lit in clause if lit != pivot]
        for cid in occ[pivot ^ 1]:
            if not active[cid]:
                continue
            side = [lit for lit in lits_of[cid] if lit != pivot ^ 1]
            resolvent = rest + side
            lits = set(resolvent)
            if any(lit ^ 1 in lits for lit in lits):
                continue  # tautological resolvent
            if not _rup(resolvent, resolvent, mark=True):
                return False
            needed[cid] = 1
        return True

    # -------------------------------------------------------- final check
    if not _rup((), (), mark=True):
        return CheckedProof(False, "claimed empty clause is not RUP against "
                            "the final clause set", len(axioms), len(steps))
    verified = 1

    # ------------------------------------------------------ backward walk
    for s in range(len(steps) - 1, -1, -1):
        is_delete, _lits = steps[s]
        cid = step_cid[s]
        if is_delete:
            if cid >= 0:
                active[cid] = True
        else:
            active[cid] = False
            if needed[cid]:
                if not _check(lits_of[cid]):
                    return CheckedProof(
                        False, f"step {s}: derived clause "
                        f"{list(lits_of[cid])} is not RUP/RAT",
                        len(axioms), len(steps))
                verified += 1

    return CheckedProof(True, "", len(axioms), len(steps), verified)
