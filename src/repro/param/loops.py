"""Loop-header analysis and alignment (Section IV-E).

A barrier-synchronized loop is summarized by its *iteration space*: the set
of values its loop variable takes, as a predicate over a symbolic iteration
variable ``k``.  Equivalence checking aligns the loops of the two kernels by
normalizing their headers to canonical spaces and comparing those — the
paper's "the two loop headers can be normalized to be the same" — then
verifies the loop bodies once, for the *same* symbolic ``k``.

Recognized header shapes (covering the SDK kernels in scope):

* geometric ascending  — ``for (k = 1; k < B; k *= 2)``  (also ``k <<= 1``)
* geometric descending — ``for (k = B/2; k > 0; k >>= 1)`` (also ``k /= 2``)
* arithmetic ascending — ``for (k = 0; k < B; k += 1)``   (also ``k++``)

Both geometric shapes normalize — *for power-of-two B* — to the same
canonical space ``{ k | k is a power of two, 1 <= k < B }``; they traverse
it in opposite orders, so aligning an ascending loop with a descending one
additionally requires the per-iteration updates to commute (the paper's
reduction argument: ``+`` is commutative and associative).  We record the
direction and let the checker decide whether reordering is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlignmentError, EncodingError
from ..lang.ast import Assign, Binary, Expr, For, Ident, IntLit, VarDecl
from ..smt import And, BVUDiv, Term, UGe, ULt, UGt, Ne
from .geometry import pow2

__all__ = ["IterSpace", "parse_header"]


@dataclass(frozen=True)
class IterSpace:
    """Canonical iteration space of a barrier-synchronized loop.

    ``kind`` is ``"pow2"`` (powers of two in ``[1, bound)``) or ``"range"``
    (integers in ``[0, bound)``).  ``bound`` is an SMT term over the shared
    geometry/input variables, so two spaces are equal iff their kinds match
    and their bound terms are identical (hash-consing makes that ``is``).
    ``ascending`` records traversal direction for the reorder check.
    """

    kind: str
    bound: Term
    ascending: bool
    var_name: str

    def constraint(self, k: Term) -> Term:
        """The invariant pinning a symbolic ``k`` into this space."""
        if self.kind == "pow2":
            return And(pow2(k), ULt(k, self.bound))
        return ULt(k, self.bound)

    def same_space(self, other: "IterSpace") -> bool:
        return self.kind == other.kind and self.bound is other.bound


def _step_of(stmt: Assign, var: str) -> tuple[str, int]:
    """Classify the step statement; returns (op, amount)."""
    if not isinstance(stmt.target, Ident) or stmt.target.name != var:
        raise EncodingError("loop step must update the loop variable")
    if stmt.op is None:
        raise EncodingError("plain reassignment in loop step is unsupported")
    if not isinstance(stmt.value, IntLit):
        raise EncodingError("loop step amount must be a constant")
    return stmt.op, stmt.value.value


def parse_header(loop: For, eval_term) -> IterSpace:
    """Extract the iteration space of ``loop``.

    ``eval_term`` maps a DSL expression to an SMT term in the enclosing
    symbolic environment (used for the bound).
    """
    init = loop.init
    if isinstance(init, VarDecl):
        var, init_expr = init.name, init.init
    elif isinstance(init, Assign) and isinstance(init.target, Ident) \
            and init.op is None:
        var, init_expr = init.target.name, init.value
    else:
        raise EncodingError("unsupported loop initializer for alignment")
    if init_expr is None:
        raise EncodingError("loop variable must be initialized in the header")
    cond = loop.cond
    if not isinstance(cond, Binary) or not isinstance(cond.left, Ident) \
            or cond.left.name != var:
        raise EncodingError(
            "loop condition must compare the loop variable (e.g. k < bound)")
    if loop.step is None:
        raise EncodingError("loop must have a step")
    op, amount = _step_of(loop.step, var)

    # geometric ascending: k = 1; k < B; k *= 2  (or k <<= 1)
    if (op == "*" and amount == 2) or (op == "<<" and amount == 1):
        if not (isinstance(init_expr, IntLit) and init_expr.value == 1):
            raise EncodingError(
                "geometric ascending loops must start at 1 for alignment")
        if cond.op not in ("<", "<="):
            raise EncodingError("ascending loop needs an upper bound")
        bound = eval_term(cond.right)
        if cond.op == "<=":
            raise EncodingError(
                "inclusive upper bounds are not canonicalized; use '<'")
        return IterSpace(kind="pow2", bound=bound, ascending=True,
                         var_name=var)

    # geometric descending: k = B/2; k > 0; k >>= 1  (or k /= 2)
    if (op == ">>" and amount == 1) or (op == "/" and amount == 2):
        if cond.op != ">" or not (isinstance(cond.right, IntLit)
                                  and cond.right.value == 0):
            raise EncodingError(
                "descending geometric loops must run while k > 0")
        if not (isinstance(init_expr, Binary) and init_expr.op == "/"
                and isinstance(init_expr.right, IntLit)
                and init_expr.right.value == 2):
            raise EncodingError(
                "descending geometric loops must start at bound / 2")
        bound = eval_term(init_expr.left)
        # For power-of-two B, {B/2, B/4, ..., 1} = {powers of two < B}.
        return IterSpace(kind="pow2", bound=bound, ascending=False,
                         var_name=var)

    # arithmetic ascending: k = 0; k < B; k += 1
    if op == "+" and amount == 1:
        if not (isinstance(init_expr, IntLit) and init_expr.value == 0):
            raise EncodingError("arithmetic loops must start at 0")
        if cond.op != "<":
            raise EncodingError("arithmetic loops need 'k < bound'")
        bound = eval_term(cond.right)
        return IterSpace(kind="range", bound=bound, ascending=True,
                         var_name=var)

    raise EncodingError(
        f"line {loop.line}: unrecognized loop header shape for alignment")


def align(src: IterSpace, tgt: IterSpace, allow_reorder: bool = False) -> None:
    """Check two loops traverse the same iterations; raise otherwise.

    Opposite traversal directions are rejected unless ``allow_reorder`` —
    set it only when the loop bodies' updates commute (the paper's
    justification for reconciling the SDK's ascending and descending
    reduction loops).
    """
    if not src.same_space(tgt):
        raise AlignmentError(
            f"loop iteration spaces differ: {src.kind} over {src.bound!r} "
            f"vs {tgt.kind} over {tgt.bound!r}")
    if src.ascending != tgt.ascending and not allow_reorder:
        raise AlignmentError(
            "loops traverse the same space in opposite orders; pass "
            "allow_reorder=True if the body update is commutative and "
            "associative (paper, Section IV-E)")
