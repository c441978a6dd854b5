"""Tseitin transformation primitives.

:class:`GateBuilder` wraps a :class:`~repro.smt.sat.SATSolver` and offers
gate-level constructors (`AND`, `OR`, `XOR`, `ITE`, `IFF`, and the
three-input `MAJ` and `XOR3` that adders and comparators are built from)
that allocate a fresh output literal and emit the defining clauses.  A full
adder is one `XOR3` and one `MAJ`: two variables and 14 clauses.  Gates
fold constant, equal and complementary inputs, and are cached by their
(operator, sorted inputs) signature with input signs moved to the output
where the gate allows it (`XOR`, `XOR3`, and `MAJ` by self-duality), so
the circuit stays a DAG even when the term DAG is re-traversed.

The constant literals ``true_lit``/``false_lit`` are two polarities of one
reserved variable forced at level 0, which lets the bit-blaster treat
constant bits uniformly as literals.

The backend needs ``new_var``, ``add_clause`` and the gate loader
``add_gate(clauses, inputs)``, which receives all defining clauses of one
fresh gate at once: a :class:`SATSolver` for direct solving checks the
inputs once per gate and appends the clauses in stored form
(:meth:`SATSolver.add_gate`), while a :class:`ClauseDB`, used when the
clauses are destined for the preprocessor (:mod:`repro.smt.preprocess`),
records them one by one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .sat import SATSolver
from ..errors import SolverError

__all__ = ["ClauseDB", "GateBuilder"]


class ClauseDB:
    """A plain clause sink implementing the :class:`GateBuilder` backend
    protocol (``new_var``/``add_clause``/``add_gate``).

    Unlike :class:`SATSolver.add_clause` it performs no level-0
    simplification — tautology removal and unit propagation are the
    preprocessor's job — so the recorded CNF is exactly what the gates
    emitted.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.ok = True

    def new_var(self) -> int:
        v = self.num_vars
        self.num_vars += 1
        return v

    def add_clause(self, lits: Iterable[int]) -> bool:
        clause = list(lits)
        for lit in clause:
            if not 0 <= lit < 2 * self.num_vars:
                raise SolverError(
                    f"literal {lit} references an undeclared variable")
        if not clause:
            self.ok = False
            return False
        self.clauses.append(clause)
        return True

    def add_gate(self, clauses: list[list[int]],
                 inputs: Sequence[int]) -> bool:
        for lits in clauses:
            self.add_clause(lits)
        return self.ok


class GateBuilder:
    """Clause emitter with structural gate caching."""

    def __init__(self, sat: SATSolver | ClauseDB | None = None) -> None:
        self.sat = sat if sat is not None else SATSolver()
        const_var = self.sat.new_var()
        self.true_lit = const_var << 1
        self.false_lit = self.true_lit | 1
        self.sat.add_clause([self.true_lit])
        self._cache: dict[tuple, int] = {}
        self.gates = 0

    # ----------------------------------------------------------------- basics

    def new_lit(self) -> int:
        return self.sat.new_var() << 1

    def lit_const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    def is_const(self, lit: int) -> bool | None:
        """The constant value of ``lit`` if it is one of the reserved constant
        literals, else ``None``."""
        if lit == self.true_lit:
            return True
        if lit == self.false_lit:
            return False
        return None

    # ------------------------------------------------------------------ gates

    def AND(self, lits: Sequence[int]) -> int:
        true_lit, false_lit = self.true_lit, self.false_lit
        out: list[int] = []
        for lit in lits:
            if lit == false_lit:
                return false_lit
            if lit != true_lit:
                out.append(lit)
        inputs = tuple(sorted(set(out)))
        for lit in inputs:
            if lit ^ 1 in inputs:
                return false_lit
        if not inputs:
            return true_lit
        if len(inputs) == 1:
            return inputs[0]
        key = ("and", inputs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.new_lit()
        ng = g ^ 1
        clauses = [[ng, lit] for lit in inputs]
        clauses.append([g, *[lit ^ 1 for lit in inputs]])
        self.sat.add_gate(clauses, inputs)
        self._cache[key] = g
        self.gates += 1
        return g

    def OR(self, lits: Sequence[int]) -> int:
        return self.AND([lit ^ 1 for lit in lits]) ^ 1

    def XOR(self, a: int, b: int) -> int:
        true_lit, false_lit = self.true_lit, self.false_lit
        if a == true_lit:
            return b ^ 1
        if a == false_lit:
            return b
        if b == true_lit:
            return a ^ 1
        if b == false_lit:
            return a
        if a == b:
            return false_lit
        if a == b ^ 1:
            return true_lit
        # Canonicalize: inputs positive, sorted; sign folded into the output.
        sign = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        hit = self._cache.get(key)
        if hit is None:
            g = self.new_lit()
            ng, na, nb = g ^ 1, a ^ 1, b ^ 1
            self.sat.add_gate([[ng, a, b], [ng, na, nb],
                               [g, a, nb], [g, na, b]], (a, b))
            self._cache[key] = g
            self.gates += 1
            hit = g
        return hit ^ sign

    def IFF(self, a: int, b: int) -> int:
        return self.XOR(a, b) ^ 1

    def ITE(self, c: int, t: int, e: int) -> int:
        true_lit, false_lit = self.true_lit, self.false_lit
        if c == true_lit:
            return t
        if c == false_lit:
            return e
        if t == e:
            return t
        if t == true_lit:
            return c if e == false_lit else self.OR([c, e])
        if t == false_lit:
            return c ^ 1 if e == true_lit else self.AND([c ^ 1, e])
        if e == true_lit:
            return self.OR([c ^ 1, t])
        if e == false_lit:
            return self.AND([c, t])
        if t == e ^ 1:
            return self.IFF(c, t)
        key = ("ite", c, t, e)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.new_lit()
        ng, nc = g ^ 1, c ^ 1
        self.sat.add_gate([[ng, nc, t], [ng, c, e],
                           [g, nc, t ^ 1], [g, c, e ^ 1],
                           # Redundant but propagation-strengthening.
                           [ng, t, e], [g, t ^ 1, e ^ 1]], (c, t, e))
        self._cache[key] = g
        self.gates += 1
        return g

    def MAJ(self, a: int, b: int, c: int) -> int:
        """Majority of three: one variable, six clauses."""
        true_lit, false_lit = self.true_lit, self.false_lit
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if x == true_lit:
                return self.OR([y, z])
            if x == false_lit:
                return self.AND([y, z])
            if x == y:
                return x
            if x == y ^ 1:
                return z
        # Canonicalize: MAJ(~a,~b,~c) == ~MAJ(a,b,c), so keep at most one
        # negated input and fold the flip into the output; inputs sorted.
        sign = 1 if (a & 1) + (b & 1) + (c & 1) >= 2 else 0
        a, b, c = sorted((a ^ sign, b ^ sign, c ^ sign))
        key = ("maj", a, b, c)
        hit = self._cache.get(key)
        if hit is None:
            g = self.new_lit()
            ng, na, nb, nc = g ^ 1, a ^ 1, b ^ 1, c ^ 1
            self.sat.add_gate([[ng, a, b], [g, na, nb],
                               [ng, a, c], [g, na, nc],
                               [ng, b, c], [g, nb, nc]], (a, b, c))
            self._cache[key] = g
            self.gates += 1
            hit = g
        return hit ^ sign

    def XOR3(self, a: int, b: int, c: int) -> int:
        """Parity of three: one variable, eight clauses."""
        true_lit, false_lit = self.true_lit, self.false_lit
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if x == true_lit:
                return self.XOR(y, z) ^ 1
            if x == false_lit:
                return self.XOR(y, z)
            if x == y:
                return z
            if x == y ^ 1:
                return z ^ 1
        # Canonicalize: inputs positive, sorted; signs folded into the output.
        sign = (a ^ b ^ c) & 1
        a, b, c = sorted((a & ~1, b & ~1, c & ~1))
        key = ("xor3", a, b, c)
        hit = self._cache.get(key)
        if hit is None:
            g = self.new_lit()
            ng, na, nb, nc = g ^ 1, a ^ 1, b ^ 1, c ^ 1
            # Forbid every assignment whose parity disagrees with g: one
            # clause per sign pattern of (a, b, c), a's sign varying fastest.
            self.sat.add_gate([[ng, a, b, c], [g, na, b, c],
                               [g, a, nb, c], [ng, na, nb, c],
                               [g, a, b, nc], [ng, na, b, nc],
                               [ng, a, nb, nc], [g, na, nb, nc]], (a, b, c))
            self._cache[key] = g
            self.gates += 1
            hit = g
        return hit ^ sign

    # ----------------------------------------------------- adder primitives

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns ``(sum, carry_out)`` of a 1-bit full adder."""
        return self.XOR3(a, b, cin), self.MAJ(a, b, cin)

    def assert_lit(self, lit: int) -> None:
        """Assert ``lit`` as a unit clause."""
        self.sat.add_clause([lit])
