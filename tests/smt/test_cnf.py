"""The gate loader: ``SATSolver.add_gate`` against the per-clause path.

``add_gate`` checks a fresh gate's inputs once and then appends its
clauses in stored form; whenever a check fails it falls back to one
``add_clause`` per clause.  Either way the solver must end in exactly the
state the per-clause loop leaves: the same arena, watches, trail,
assignments, original-clause count, ``ok`` flag and proof axioms.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt.cnf import GateBuilder
from repro.smt.sat import ProofLog, SATResult, SATSolver


class PerClauseSolver(SATSolver):
    """The reference: every gate clause through ``add_clause``."""

    def add_gate(self, clauses, inputs):
        for lits in clauses:
            self.add_clause(lits)
        return self.ok


def _solver(cls=SATSolver, certify: bool = True) -> SATSolver:
    sat = cls()
    if certify:
        sat.attach_proof(ProofLog())
    return sat


def _state(sat: SATSolver) -> dict:
    state = {
        "arena": sat.arena, "watches": sat.watches, "trail": sat.trail,
        "assigns": sat.assigns, "n_orig": sat.n_orig, "ok": sat.ok,
        "num_vars": sat.num_vars,
    }
    if sat.proof is not None:
        state["axioms"] = sat.proof.axioms
    return state


KINDS = ("AND", "OR", "XOR", "ITE", "MAJ", "XOR3")

#: One step: a gate kind (or a unit assertion), then (pool index, sign)
#: picks; the pool holds both constants, the inputs and every earlier
#: gate output, so picks repeat, complement and chain.
_step = st.tuples(
    st.sampled_from(KINDS + ("assert",)),
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1)),
             min_size=3, max_size=5))

programs = st.tuples(st.integers(1, 4), st.lists(_step, max_size=30))


def _run(sat: SATSolver, program) -> SATSolver:
    n_inputs, steps = program
    gb = GateBuilder(sat)
    pool = [gb.true_lit, gb.false_lit,
            *(gb.new_lit() for _ in range(n_inputs))]
    for kind, picks in steps:
        lits = [pool[i % len(pool)] ^ sign for i, sign in picks]
        if kind == "assert":
            gb.assert_lit(lits[0])
            continue
        if kind in ("AND", "OR"):
            out = getattr(gb, kind)(lits)
        elif kind == "XOR":
            out = gb.XOR(lits[0], lits[1])
        else:
            out = getattr(gb, kind)(*lits[:3])
        pool.append(out)
    return sat


@pytest.mark.parametrize("certify", [False, True])
@settings(max_examples=300, deadline=None)
@given(program=programs)
def test_gate_loader_matches_per_clause_loading(certify, program):
    fast = _run(_solver(SATSolver, certify), program)
    slow = _run(_solver(PerClauseSolver, certify), program)
    assert _state(fast) == _state(slow)


def test_fallback_on_a_root_assigned_or_repeated_input():
    for build in (lambda gb, a, b: (gb.assert_lit(a), gb.XOR(a, b)),
                  lambda gb, a, b: gb.ITE(a, a, b)):
        fast = GateBuilder(_solver())
        slow = GateBuilder(_solver(PerClauseSolver))
        for gb in (fast, slow):
            build(gb, gb.new_lit(), gb.new_lit())
        assert _state(fast.sat) == _state(slow.sat)


def _xor_gate(sat: SATSolver, a: int, b: int):
    g = 2 * sat.new_var()
    return [[g ^ 1, a, b], [g ^ 1, a ^ 1, b ^ 1],
            [g, a, b ^ 1], [g, a ^ 1, b]], (a, b)


def test_undeclared_input_raises_like_add_clause():
    solvers = _solver(), _solver(PerClauseSolver)
    for sat in solvers:
        a = 2 * sat.new_var()
        clauses, inputs = _xor_gate(sat, a, 1000)
        with pytest.raises(SolverError, match="undeclared"):
            sat.add_gate(clauses, inputs)
    assert _state(solvers[0]) == _state(solvers[1])


def test_gate_above_level_zero_raises():
    sat = SATSolver()
    sat.new_var()
    assert sat.solve() is SATResult.SAT
    assert sat.trail_lim  # the model's decision is still on the trail
    # Inputs declared after the search are unassigned: only the level
    # check can send this gate to add_clause.
    a, b = 2 * sat.new_var(), 2 * sat.new_var()
    clauses, inputs = _xor_gate(sat, a, b)
    with pytest.raises(SolverError, match="decision level 0"):
        sat.add_gate(clauses, inputs)


def test_nothing_is_stored_once_unsat():
    sat = _solver()
    a = 2 * sat.new_var()
    sat.add_clause([a])
    assert not sat.add_clause([a ^ 1])
    before = (list(sat.arena), list(sat.proof.axioms), sat.n_orig)
    # Fresh inputs: only the ok check can keep this gate out.
    b, c = 2 * sat.new_var(), 2 * sat.new_var()
    clauses, inputs = _xor_gate(sat, b, c)
    assert sat.add_gate(clauses, inputs) is False
    assert (sat.arena, sat.proof.axioms, sat.n_orig) == before
